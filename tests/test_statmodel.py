"""Strength-function models, the max-entropy fitter, and moment predictions."""

import logging

import numpy as np
import pytest
from scipy.special import gamma, ndtr

from isingchaos import statmodel
from isingchaos.empirics import normal_cdf

from isingchaos.hamiltonian import ModelParams
from isingchaos.moments import LocalMomentSet, analytic_moments
from isingchaos.spin_basis import momentum_basis
from isingchaos.statmodel import (
    GibbsInfeasibleError,
    ParitySplit,
    _clipped_power,
    _delta,
    _density_stack,
    _panel_quadrature,
    _power_table,
    _std_moments,
    build_strength_model,
    fit_gibbs,
    fmt_float,
    model_spectral_density,
    parity_split_quantities,
    prediction_curve,
    prediction_span,
    r_q_complex,
    r_q_real,
    strength_density,
    write_csv,
    write_prediction_csv,
)
from oracles import gibbs_energy_moments

P17 = ModelParams(17, 1.0, 1.0)


def quad_moments(model, n_up, order=4):
    """Quadrature oracle for the moments of a model density."""
    mom = model.moments[n_up]
    sigma = np.sqrt(mom.sigma2)
    x, w = _panel_quadrature(4000)
    e = mom.e_n + sigma * x
    dens = strength_density(model, n_up, e)
    return np.array([np.sum(w * sigma * dens * e**j) for j in range(order + 1)])


def test_gaussian_moment_factors():
    assert r_q_complex(1) == pytest.approx(1.0)
    assert r_q_real(1) == pytest.approx(1.0)
    assert r_q_complex(2) == pytest.approx(2.0)
    assert r_q_real(2) == pytest.approx(3.0)
    assert r_q_complex(3) == pytest.approx(6.0)
    assert r_q_real(3) == pytest.approx(15.0)
    # continuous q against the Gamma forms
    q = 1.7
    assert r_q_complex(q) == pytest.approx(gamma(q + 1))
    assert r_q_real(q) == pytest.approx(2**q * gamma(q + 0.5) / np.sqrt(np.pi))


def test_elementwise_special_functions_match_scipy():
    q = np.array([1.0, 1.5, 1.7, 2.0, 2.5, 3.0, 4.25])
    for arg in (q + 1.0, q + 0.5):
        np.testing.assert_allclose(statmodel.gamma(arg), gamma(arg), rtol=1e-14, atol=0)
    x = np.linspace(-4.0, 4.0, 41)
    np.testing.assert_allclose(normal_cdf(x), ndtr(x), rtol=1e-14, atol=0)
    assert isinstance(statmodel.gamma(2.5), float) and isinstance(normal_cdf(0.3), float)
    assert normal_cdf(x).dtype == np.float64


def _std_moments_loop(coeffs, nodes, weights, n_max):
    """Reference power-loop form of the standardized Gibbs moments."""
    logp = -sum(c * nodes**j for j, c in enumerate(coeffs, start=1))
    logp -= logp.max()
    density = weights * np.exp(logp)
    z = density.sum()
    moments = np.array([np.sum(density * nodes**j) for j in range(n_max + 1)]) / z
    scale = np.array([np.sum(density * np.abs(nodes) ** j) for j in range(n_max + 1)]) / z
    return moments, scale


@pytest.mark.parametrize("n_nodes", [2000, 4000, 8000])
@pytest.mark.parametrize("n_max", [4, 8])
def test_std_moments_match_power_loop(n_nodes, n_max):
    fitted = fit_gibbs(analytic_moments(P17, 5)).std_coeffs
    coeff_sets = [
        (0.0, 0.5, 0.0, 0.0),
        (0.1, 0.45, -0.02, 0.01),
        (-0.3, 0.2, 0.05, 0.004),
        (0.0, 0.5),
        fitted,
    ]
    nodes, weights = _panel_quadrature(n_nodes)
    powers = _power_table(nodes, n_max)
    for coeffs in coeff_sets:
        want, scale = _std_moments_loop(coeffs, nodes, weights, n_max)
        got = _std_moments(coeffs, powers, weights)
        # relative to the moment of |x|^j, the rounding scale of odd moments near 0
        assert np.all(np.abs(got - want) <= 1e-13 * scale), coeffs


def test_gaussian_peak_value():
    model = build_strength_model(P17, "gaussian")
    peak = strength_density(model, 8, np.array([1.0]))[0]
    assert peak == pytest.approx(1.0 / np.sqrt(68 * np.pi))


def test_gram_charlier_peak_ratio():
    gauss = build_strength_model(P17, "gaussian")
    gc = build_strength_model(P17, "gram_charlier")
    mom = gc.moments[8]
    ratio = (
        strength_density(gc, 8, np.array([1.0]))[0]
        / strength_density(gauss, 8, np.array([1.0]))[0]
    )
    assert ratio == pytest.approx(1 + mom.k4 / (8 * mom.sigma2**2))


def test_zero_cumulants_reduce_to_gaussian():
    model = build_strength_model(P17, "gaussian")
    gc = build_strength_model(P17, "gram_charlier")
    zeroed = gc.moments[8]
    flat = LocalMomentSet.from_cumulants(8, zeroed.e_n, zeroed.sigma2, 0.0, 0.0, 0.0)
    patched = type(gc)(
        params=gc.params, variant="gram_charlier", moments=(flat,) * 18
    )
    e = np.linspace(-30, 30, 501)
    assert strength_density(patched, 8, e) == pytest.approx(
        strength_density(model, 8, e), abs=1e-15
    )


@pytest.mark.parametrize("variant", ["gaussian", "gram_charlier", "gibbs"])
def test_density_normalization(variant):
    model = build_strength_model(P17, variant)
    for n_up in (0, 4, 8, 13, 17):
        moments = quad_moments(model, n_up, order=0)
        assert abs(moments[0] - 1.0) < 1e-8


@pytest.mark.parametrize("variant,order", [("gaussian", 2), ("gram_charlier", 4), ("gibbs", 4)])
def test_density_moment_fidelity(variant, order):
    model = build_strength_model(P17, variant)
    for n_up in (0, 8, 12):
        mom = model.moments[n_up]
        target = [mom.mu1, mom.mu2, mom.mu3, mom.mu4]
        got = quad_moments(model, n_up, order=order)[1:]
        for j in range(order):
            assert abs(got[j] - target[j]) / max(abs(target[j]), 1.0) < 1e-6


def test_gram_charlier_tail_clamp_logs(caplog):
    # cumulants large enough to push the far tail negative
    mom = LocalMomentSet.from_cumulants(3, 0.0, 1.0, 2.5, 1.0, 0.0)
    model = build_strength_model(ModelParams(6, 1.0, 1.0), "gram_charlier")
    patched = type(model)(params=model.params, variant="gram_charlier", moments=(mom,) * 7)
    e = np.linspace(-12, 12, 2001)
    with caplog.at_level(logging.WARNING):
        dens = strength_density(patched, 3, e)
    x = np.abs(e)
    assert np.all(dens[(x > 6.0)] >= 0.0)
    assert any("clamped" in rec.message for rec in caplog.records)


def test_gibbs_two_moment_fit_is_gaussian():
    mom = analytic_moments(P17, 8)
    fit = fit_gibbs(mom, n_orders=2)
    assert fit.multipliers[0] == pytest.approx(-mom.e_n / mom.sigma2, abs=1e-10)
    assert fit.multipliers[1] == pytest.approx(1.0 / (2 * mom.sigma2), abs=1e-10)
    assert fit.multipliers[2] == 0.0
    assert fit.multipliers[3] == 0.0


def test_gibbs_zero_cumulants_zero_multipliers():
    mom = LocalMomentSet.from_cumulants(8, 1.0, 34.0, 0.0, 0.0, 4.5)
    fit = fit_gibbs(mom)
    assert abs(fit.multipliers[2]) < 1e-8
    assert abs(fit.multipliers[3]) < 1e-8


def test_gibbs_reproduces_targets():
    for n_up in (0, 5, 8):
        mom = analytic_moments(P17, n_up)
        fit = fit_gibbs(mom)
        got = gibbs_energy_moments(fit)
        target = np.array([mom.mu1, mom.mu2, mom.mu3, mom.mu4])
        assert np.max(np.abs(got - target) / np.abs(target)) < 1e-8


def test_gibbs_infeasible_targets_rejected():
    # kurtosis above the truncated-support bound L^2, and below the
    # Hamburger bound 1 + skew^2, cannot come from any density there
    too_heavy = LocalMomentSet.from_cumulants(4, 0.0, 1.0, 0.0, 150.0 - 3.0, 0.0)
    with pytest.raises(GibbsInfeasibleError):
        fit_gibbs(too_heavy)
    too_light = LocalMomentSet.from_cumulants(4, 0.0, 1.0, 0.0, 0.9 - 3.0, 0.0)
    with pytest.raises(GibbsInfeasibleError):
        fit_gibbs(too_light)


def test_gibbs_handles_large_feasible_kurtosis():
    # heavy but representable tails: the fit parks a small shelf against the
    # integration boundary and still reproduces the moments
    mom = LocalMomentSet.from_cumulants(4, 0.0, 1.0, 0.0, 60.0, 0.0)
    fit = fit_gibbs(mom)
    assert fit.residual < 1e-8
    assert 0.0 < fit.boundary_ratio < 1.0


def test_spectral_density_collapse_at_zero_transverse_field():
    params = ModelParams(9, 0.0, 1.0)
    model = build_strength_model(params, "gaussian")
    e = np.linspace(-10, 10, 301)
    rho = model_spectral_density(model, e)
    assert rho == pytest.approx(strength_density(model, 0, e))


def test_spectral_density_symmetry_and_norm():
    model = build_strength_model(ModelParams(10, 0.8, 1.2), "gaussian")
    e = np.linspace(0.3, 18.0, 40)
    assert model_spectral_density(model, e) == pytest.approx(
        model_spectral_density(model, -e)
    )
    x, w = _panel_quadrature(4000)
    sigma = np.sqrt(10 * (1 + 1.2**2))
    grid = sigma * 2.2 * x  # wide enough to cover all component means
    sector_rho = prediction_curve(momentum_basis(10, 3), model, grid).rho  # M_q is NaN far out
    for rho in (model_spectral_density(model, grid), sector_rho):
        total = np.sum(w * sigma * 2.2 * rho)
        assert abs(total - 1.0) < 1e-6


def exact_delta(basis, model, energies, q):
    """delta_q(E) of ``delta_mode="exact"`` on a grid."""
    return _delta(basis, _clipped_power(_density_stack(model, energies), q), "exact")


def test_delta_correction_values():
    model = build_strength_model(P17, "gaussian")
    b0 = momentum_basis(17, 0)
    assert _delta(b0, None, "uniform") == pytest.approx(512 / 7712)
    assert _delta(b0, None, "none") == 0.0
    exact = exact_delta(b0, model, np.linspace(-15, 15, 61), 2.0)
    assert np.all((exact >= 0.0) & (exact <= 1.0))
    assert _delta(momentum_basis(15, 0), None, "uniform") == pytest.approx(256 / 2192)


def test_delta_exact_reduces_to_uniform_when_densities_coincide():
    params = ModelParams(9, 0.0, 1.0)
    model = build_strength_model(params, "gaussian")
    basis = momentum_basis(9, 0)
    energies = np.array([-3.0, 0.0, 2.5])
    exact = exact_delta(basis, model, energies, 2.0)
    assert exact == pytest.approx(np.full(3, basis.delta))
    # and so do the curves, in a real and in a complex sector
    for sector in (basis, momentum_basis(9, 1)):
        exact_curve = prediction_curve(sector, model, energies, delta_mode="exact")
        uniform_curve = prediction_curve(sector, model, energies)
        for q, moment in exact_curve.moments.items():
            assert moment == pytest.approx(uniform_curve.moments[q], rel=1e-12)


def test_moment_prediction_normalization():
    model = build_strength_model(P17, "gram_charlier")
    for k in (0, 2):
        curve = prediction_curve(momentum_basis(17, k), model, np.array([0.7]), q_values=(1.0,))
        assert curve.moments[1.0][0] == pytest.approx(1.0)


def test_moment_prediction_flat_chain_closed_form():
    params = ModelParams(12, 0.0, 1.0)
    model = build_strength_model(params, "gaussian")
    basis = momentum_basis(12, 1)
    n_tot, delta = basis.dim, basis.delta
    curve = prediction_curve(basis, model, np.array([0.0]), q_values=(1.5, 2.0, 3.0))
    for q in (1.5, 2.0, 3.0):
        expected = (
            r_q_complex(q) + (r_q_real(q) - r_q_complex(q)) * delta
        ) * n_tot ** (1 - q)
        assert curve.moments[q][0] == pytest.approx(expected)


def test_effective_r2():
    model = build_strength_model(P17, "gaussian")
    b0 = momentum_basis(17, 0)
    b2 = momentum_basis(17, 2)
    e = 0.35

    def corrected_m2(basis):
        return prediction_curve(basis, model, np.array([e]), q_values=(2.0,)).moments[2.0][0]

    for basis, r2 in ((b0, 3 * (1 + b0.delta)), (b2, 2 + b2.delta)):
        m2 = corrected_m2(basis)
        curve = prediction_curve(basis, model, np.array([e]), q_values=(2.0,), delta_mode="none")
        base = 3.0 if basis.k == 0 else 2.0
        assert m2 / curve.moments[2.0][0] == pytest.approx(r2 / base)
    # the monotone-correction identity for the real sector
    m2_c = corrected_m2(b0)
    curve0 = prediction_curve(b0, model, np.array([e]), q_values=(2.0,), delta_mode="none")
    assert m2_c / curve0.moments[2.0][0] == pytest.approx(1 + b0.delta)


def closed_form_uncorrected_moment(basis, model, energies, q):
    """Oracle: the plain Gaussian-ensemble M_q = r_q sum_n nu_n P_n^q / (sum_n nu_n P_n)^q."""
    stack = _clipped_power(_density_stack(model, energies), 1.0)
    nu = basis.nu_tot().astype(float)
    s1 = nu @ stack
    factor = r_q_real if basis.k == 0 or 2 * basis.k == basis.n_sites else r_q_complex
    return factor(q) * (nu @ stack**q) / s1**q


@pytest.mark.parametrize("n_sites,k", [(17, 0), (17, 2), (12, 6)])
def test_uncorrected_prediction_matches_closed_formula(n_sites, k):
    basis = momentum_basis(n_sites, k)
    energies = np.linspace(-12.0, 12.0, 41)
    for variant in ("gaussian", "gram_charlier"):
        model = build_strength_model(ModelParams(n_sites, 1.0, 1.0), variant)
        curve = prediction_curve(basis, model, energies, q_values=(1.5, 2.0, 3.0), delta_mode="none")
        for q, moment in curve.moments.items():
            assert np.array_equal(moment, closed_form_uncorrected_moment(basis, model, energies, q))
        assert np.array_equal(curve.pr, 1.0 / curve.moments[2.0])
        assert curve.corrections == ("none" if variant == "gaussian" else variant)


def test_participation_ratio_flat_chain():
    params = ModelParams(12, 0.0, 1.0)
    model = build_strength_model(params, "gaussian")
    b1 = momentum_basis(12, 1)
    b0 = momentum_basis(12, 0)
    energies = np.array([-2.0, 0.0, 3.0])
    assert prediction_curve(b1, model, energies).pr == pytest.approx(
        np.full(3, b1.dim / (2 + b1.delta))
    )
    assert prediction_curve(b0, model, energies).pr == pytest.approx(
        np.full(3, b0.dim / (3 * (1 + b0.delta)))
    )


def test_participation_ratio_is_inverse_second_moment():
    model = build_strength_model(P17, "gram_charlier")
    basis = momentum_basis(17, 2)
    energies = np.array([-4.0, 1.0])
    # Pr comes from its own M_2 when q = 2 is not among the curve's moments
    pr = prediction_curve(basis, model, energies, q_values=(1.5,)).pr
    m2 = prediction_curve(basis, model, energies, q_values=(2.0,)).moments[2.0]
    assert pr == pytest.approx(1.0 / m2)


def test_parity_split_quantities():
    b0 = momentum_basis(17, 0)
    split = parity_split_quantities(b0)
    assert split.delta == pytest.approx(512 / 7712)
    assert split.n_plus == pytest.approx((7712 + 512) / 2)
    assert split.n_minus == pytest.approx((7712 - 512) / 2)
    assert split.variance_scale_plus == pytest.approx(2 / (1 + split.delta))
    assert split.variance_scale_minus == pytest.approx(2 / (1 - split.delta))


def test_parity_split_trivial_at_zero_delta():
    split = ParitySplit(
        delta=0.0,
        n_plus=50.0,
        n_minus=50.0,
        variance_scale_plus=2.0,
        variance_scale_minus=2.0,
    )
    for q in (1.5, 2.0, 3.0):
        assert split.moment_factor(q, +1) == pytest.approx(1.0)
        assert split.moment_factor(q, -1) == pytest.approx(1.0)
        assert split.mixed_moment_factor(q) == pytest.approx(1.0)


def test_parity_weighted_average_matches_first_order():
    # the rho_+-weighted mix must agree with 1 + (2^(q-1) - 1) delta up to
    # O(delta^2)
    for delta in (0.02, 0.0664, 0.12):
        split = ParitySplit(
            delta=delta,
            n_plus=0.0,
            n_minus=0.0,
            variance_scale_plus=0.0,
            variance_scale_minus=0.0,
        )
        for q in (1.5, 2.0, 3.0):
            gap = abs(split.mixed_moment_factor(q) - split.first_order_factor(q))
            assert gap < 4 * 2**q * delta**2


def test_prediction_csv_deterministic(tmp_path):
    model = build_strength_model(ModelParams(10, 1.0, 1.0), "gram_charlier")
    basis = momentum_basis(10, 1)
    curve = prediction_curve(basis, model, np.linspace(-12, 12, 25))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_prediction_csv(curve, p1)
    write_prediction_csv(curve, p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header.startswith("E,rho,M_1.5,M_2,M_3,Pr")


def test_fmt_float_17_digits():
    assert fmt_float(1 / 3) == "0.33333333333333331"
    assert float(fmt_float(np.pi)) == np.pi


def test_write_csv_cells(tmp_path):
    path = tmp_path / "t.csv"
    rows = [[1 / 3, np.float64(0.1), np.int64(7), "k=0"], [2, np.inf, int(True), "none"]]
    write_csv(path, ["a", "b", "c", "d"], iter(rows))
    assert path.read_text() == "a,b,c,d\n0.33333333333333331,0.10000000000000001,7,k=0\n2,inf,1,none\n"


def test_prediction_curve_builds_one_density_stack(monkeypatch):
    model = build_strength_model(ModelParams(12, 1.0, 1.0), "gibbs")
    calls = []
    inner = statmodel.strength_density

    def counting(model, n_up, energy):
        calls.append(n_up)
        return inner(model, n_up, energy)

    monkeypatch.setattr(statmodel, "strength_density", counting)
    prediction_curve(momentum_basis(12, 1), model, np.linspace(-20.0, 20.0, 33), delta_mode="exact")
    assert sorted(calls) == list(range(13))


def test_gibbs_quadrature_is_built_once_per_node_count(monkeypatch):
    built = []
    inner = statmodel._panel_quadrature

    def counting(n_nodes, *args):
        built.append(n_nodes)
        return inner(n_nodes, *args)

    statmodel._gibbs_grid.cache_clear()
    monkeypatch.setattr(statmodel, "_panel_quadrature", counting)
    try:
        model = build_strength_model(ModelParams(14, 1.0, 1.0), "gibbs")
    finally:
        statmodel._gibbs_grid.cache_clear()  # drop grids built through the wrapper
    assert all(fit is not None for fit in model.gibbs_fits)
    assert len(built) == len(set(built)) and {2000, 4000} <= set(built)


def test_memoized_gibbs_quadrature_is_read_only():
    for array in statmodel._gibbs_grid(2000):
        with pytest.raises(ValueError):
            array[0] = 1.0


@pytest.mark.parametrize("delta_mode", ["uniform", "exact"])
def test_gibbs_curve_far_outside_the_spectrum_is_nan_without_warnings(delta_mode):
    # on twice the prediction span the Gibbs densities underflow: M_q and Pr are
    # NaN there, and no floating-point warning is raised (the suite makes them errors)
    params = ModelParams(10, 0.9, 1.1)
    span = prediction_span(params)
    grid = np.linspace(-2 * span, 2 * span, 257)
    curve = prediction_curve(
        momentum_basis(10, 1), build_strength_model(params, "gibbs"), grid, delta_mode=delta_mode
    )
    empty = np.isnan(curve.moments[3.0])
    assert empty.any() and np.all(np.abs(grid[empty]) > span)
    inside = np.abs(grid) <= span
    assert np.isfinite(curve.pr[inside]).all()
    assert all(np.isfinite(m[inside]).all() for m in curve.moments.values())
