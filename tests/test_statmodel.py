"""Strength-function models, the max-entropy fitter, and moment predictions."""

import dataclasses
import logging

import numpy as np
import pytest
from scipy.special import gamma, ndtr

from isingchaos import statmodel
from isingchaos.empirics import normal_cdf

from isingchaos.hamiltonian import ModelParams
from isingchaos.moments import analytic_moments
from isingchaos.spin_basis import sector_counts
from isingchaos.statmodel import (
    VARIANTS,
    GibbsInfeasibleError,
    _delta,
    _panel_quadrature,
    _power_table,
    _std_moments,
    build_strength_model,
    density_stack,
    fit_gibbs,
    fmt_float,
    prediction_curve,
    prediction_span,
    r_q_complex,
    r_q_real,
    strength_density,
    write_csv,
    write_prediction_csv,
)
from oracles import (
    gibbs_energy_moments,
    gibbs_multipliers,
    model_spectral_density,
    moment_set_from_cumulants,
    write_csv_rows,
)

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
    x = np.linspace(-4.0, 4.0, 41)
    np.testing.assert_allclose(normal_cdf(x), ndtr(x), rtol=1e-14, atol=0)
    assert isinstance(normal_cdf(0.3), float)
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
    flat = moment_set_from_cumulants(8, zeroed.e_n, zeroed.sigma2, 0.0, 0.0, 0.0)
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


def test_gibbs_two_moment_fit_is_gaussian():
    mom = analytic_moments(P17, 8)
    multipliers = gibbs_multipliers(fit_gibbs(mom, n_orders=2))
    assert multipliers[0] == pytest.approx(-mom.e_n / mom.sigma2, abs=1e-10)
    assert multipliers[1] == pytest.approx(1.0 / (2 * mom.sigma2), abs=1e-10)
    assert multipliers[2] == 0.0
    assert multipliers[3] == 0.0


def test_gibbs_zero_cumulants_zero_multipliers():
    mom = moment_set_from_cumulants(8, 1.0, 34.0, 0.0, 0.0, 4.5)
    multipliers = gibbs_multipliers(fit_gibbs(mom))
    assert abs(multipliers[2]) < 1e-8
    assert abs(multipliers[3]) < 1e-8


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
    too_heavy = moment_set_from_cumulants(4, 0.0, 1.0, 0.0, 150.0 - 3.0, 0.0)
    with pytest.raises(GibbsInfeasibleError):
        fit_gibbs(too_heavy)
    too_light = moment_set_from_cumulants(4, 0.0, 1.0, 0.0, 0.9 - 3.0, 0.0)
    with pytest.raises(GibbsInfeasibleError):
        fit_gibbs(too_light)


def test_gibbs_handles_large_feasible_kurtosis():
    # heavy but representable tails: the fit parks a small shelf against the
    # integration boundary and still reproduces the moments
    mom = moment_set_from_cumulants(4, 0.0, 1.0, 0.0, 60.0, 0.0)
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
    sector_rho = prediction_curve(sector_counts(10, 3), model, grid).rho  # M_q is NaN far out
    for rho in (model_spectral_density(model, grid), sector_rho):
        total = np.sum(w * sigma * 2.2 * rho)
        assert abs(total - 1.0) < 1e-6


def test_delta_correction_values():
    model = build_strength_model(P17, "gaussian")
    b0 = sector_counts(17, 0)
    assert _delta(b0, "uniform") == pytest.approx(512 / 7712)
    assert _delta(b0, "none") == 0.0
    assert _delta(sector_counts(15, 0), "uniform") == pytest.approx(256 / 2192)
    with pytest.raises(ValueError, match="mode"):
        prediction_curve(b0, model, np.linspace(-15, 15, 61), delta_mode="exact")


def test_moment_prediction_normalization():
    model = build_strength_model(P17, "gram_charlier")
    for k in (0, 2):
        curve = prediction_curve(sector_counts(17, k), model, np.array([0.7]), q_values=(1.0,))
        assert curve.moments[1.0][0] == pytest.approx(1.0)


def test_moment_prediction_flat_chain_closed_form():
    params = ModelParams(12, 0.0, 1.0)
    model = build_strength_model(params, "gaussian")
    counts = sector_counts(12, 1)
    n_tot, delta = counts.dim, counts.delta
    curve = prediction_curve(counts, model, np.array([0.0]), q_values=(1.5, 2.0, 3.0))
    for q in (1.5, 2.0, 3.0):
        expected = (
            r_q_complex(q) + (r_q_real(q) - r_q_complex(q)) * delta
        ) * n_tot ** (1 - q)
        assert curve.moments[q][0] == pytest.approx(expected)


def test_effective_r2():
    model = build_strength_model(P17, "gaussian")
    b0 = sector_counts(17, 0)
    b2 = sector_counts(17, 2)
    e = 0.35

    def corrected_m2(counts):
        return prediction_curve(counts, model, np.array([e]), q_values=(2.0,)).moments[2.0][0]

    for counts, r2 in ((b0, 3 * (1 + b0.delta)), (b2, 2 + b2.delta)):
        m2 = corrected_m2(counts)
        curve = prediction_curve(counts, model, np.array([e]), q_values=(2.0,), delta_mode="none")
        base = 3.0 if counts.k == 0 else 2.0
        assert m2 / curve.moments[2.0][0] == pytest.approx(r2 / base)
    # the monotone-correction identity for the real sector
    m2_c = corrected_m2(b0)
    curve0 = prediction_curve(b0, model, np.array([e]), q_values=(2.0,), delta_mode="none")
    assert m2_c / curve0.moments[2.0][0] == pytest.approx(1 + b0.delta)


def closed_form_uncorrected_moment(counts, model, energies, q):
    """Oracle: the plain Gaussian-ensemble M_q = r_q sum_n nu_n (P_n / sum_m nu_m P_m)^q."""
    stack = density_stack(model, energies)
    nu = counts.nu_tot.astype(float)
    s1 = nu @ stack
    factor = r_q_real if counts.is_real else r_q_complex
    return factor(q) * (nu @ (stack / s1) ** q)


@pytest.mark.parametrize("n_sites,k", [(17, 0), (17, 2), (12, 6)])
def test_uncorrected_prediction_matches_closed_formula(n_sites, k):
    counts = sector_counts(n_sites, k)
    energies = np.linspace(-12.0, 12.0, 41)
    for variant in ("gaussian", "gram_charlier"):
        model = build_strength_model(ModelParams(n_sites, 1.0, 1.0), variant)
        curve = prediction_curve(counts, model, energies, q_values=(1.5, 2.0, 3.0), delta_mode="none")
        for q, moment in curve.moments.items():
            assert np.array_equal(moment, closed_form_uncorrected_moment(counts, model, energies, q))
        assert np.array_equal(curve.pr, 1.0 / curve.moments[2.0])
        assert curve.corrections == ("none" if variant == "gaussian" else variant)


def test_participation_ratio_flat_chain():
    params = ModelParams(12, 0.0, 1.0)
    model = build_strength_model(params, "gaussian")
    b1 = sector_counts(12, 1)
    b0 = sector_counts(12, 0)
    energies = np.array([-2.0, 0.0, 3.0])
    assert prediction_curve(b1, model, energies).pr == pytest.approx(
        np.full(3, b1.dim / (2 + b1.delta))
    )
    assert prediction_curve(b0, model, energies).pr == pytest.approx(
        np.full(3, b0.dim / (3 * (1 + b0.delta)))
    )


def test_participation_ratio_is_inverse_second_moment():
    model = build_strength_model(P17, "gram_charlier")
    counts = sector_counts(17, 2)
    energies = np.array([-4.0, 1.0])
    # Pr comes from its own M_2 when q = 2 is not among the curve's moments
    pr = prediction_curve(counts, model, energies, q_values=(1.5,)).pr
    m2 = prediction_curve(counts, model, energies, q_values=(2.0,)).moments[2.0]
    assert pr == pytest.approx(1.0 / m2)


def test_prediction_csv_deterministic(tmp_path):
    model = build_strength_model(ModelParams(10, 1.0, 1.0), "gram_charlier")
    counts = sector_counts(10, 1)
    curve = prediction_curve(counts, model, np.linspace(-12, 12, 25))
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
    columns = [[1 / 3, 2], [np.float64(0.1), np.inf], [np.int64(7), True], ["k=0", "none"]]
    write_csv(path, ["a", "b", "c", "d"], columns)
    assert path.read_text() == "a,b,c,d\n0.33333333333333331,0.10000000000000001,7,k=0\n2,inf,1,none\n"


def test_column_writer_matches_the_per_cell_writer(tmp_path):
    floats = np.array([1 / 3, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e300, 2.0])
    ints = np.arange(-3, 5)
    flags = np.array([True, False, True, True, False, False, True, False])
    labels = ["k=0", "k=1", "gibbs", "none", "delta[uniform]", "", "x", "y"]
    header = ["f", "i", "b", "s", "g"]
    write_csv(tmp_path / "columns.csv", header, [floats, ints, flags, labels, floats[::-1]])
    # the row writer took the flags as integers, as the commands passed them
    rows = zip(floats, ints, flags.astype(int), labels, floats[::-1])
    write_csv_rows(tmp_path / "rows.csv", header, rows)
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
    write_csv(tmp_path / "empty.csv", header, [[] for _ in header])
    assert (tmp_path / "empty.csv").read_text() == "f,i,b,s,g\n"
    # a short column is an error, not a file cut to its length
    with pytest.raises(ValueError):
        write_csv(tmp_path / "short.csv", header, [floats, ints, flags, labels, floats[:-1]])
    assert not (tmp_path / "short.csv").exists()


def test_prediction_curve_builds_one_density_stack(monkeypatch):
    model = build_strength_model(ModelParams(12, 1.0, 1.0), "gibbs")
    counts, grid = sector_counts(12, 1), np.linspace(-20.0, 20.0, 33)
    calls = []
    inner = statmodel.strength_density

    def counting(model, n_up, energy):
        calls.append(n_up)
        return inner(model, n_up, energy)

    monkeypatch.setattr(statmodel, "strength_density", counting)
    built = prediction_curve(counts, model, grid, delta_mode="uniform")
    assert sorted(calls) == list(range(13))
    # a stack evaluated once serves any number of curves, with the same values
    calls.clear()
    stack = density_stack(model, grid)
    given = prediction_curve(counts, model, grid, delta_mode="uniform", stack=stack)
    assert sorted(calls) == list(range(13))
    assert np.array_equal(given.pr, built.pr) and np.array_equal(given.rho, built.rho)
    with pytest.raises(ValueError, match="does not match"):
        prediction_curve(counts, model, grid[1:], stack=stack)


def test_gibbs_multipliers_expand_the_standardized_polynomial():
    for mom in (analytic_moments(P17, 8), analytic_moments(ModelParams(10, 0.9, 1.1), 3)):
        fit = fit_gibbs(mom)
        poly_x = np.polynomial.Polynomial([0.0, *fit.std_coeffs])
        poly_e = poly_x(np.polynomial.Polynomial([-fit.e_center / fit.sigma, 1.0 / fit.sigma]))
        np.testing.assert_allclose(gibbs_multipliers(fit), poly_e.coef[1:5], rtol=1e-12, atol=1e-15)


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


def test_gauss_legendre_rule():
    x, w = statmodel._gauss_legendre(40)
    nodes, weights = np.polynomial.legendre.leggauss(40)
    np.testing.assert_allclose(x, nodes, rtol=0, atol=1e-14)
    np.testing.assert_allclose(w, weights, rtol=0, atol=1e-14)
    assert w.sum() == pytest.approx(2.0, rel=1e-15)
    # exact for every polynomial of degree 2 * 40 - 1, up to rounding
    for m in range(80):
        exact = 0.0 if m % 2 else 2.0 / (m + 1)
        assert abs(w @ x**m - exact) <= 1e-15 * 2.0


def test_memoized_gibbs_quadrature_is_read_only():
    for array in statmodel._gibbs_grid(2000):
        with pytest.raises(ValueError):
            array[0] = 1.0


@pytest.mark.parametrize("delta_mode", ["uniform", "none"])
def test_gibbs_curve_far_outside_the_spectrum_is_finite_without_warnings(delta_mode):
    # out to twice the prediction span and a little beyond, the Gibbs densities are tiny
    # (rho down to 1e-112 at 2 spans) but not zero: M_q and Pr stay finite there, though
    # (sum_n nu_n P_n)^q underflows, and no floating-point warning is raised (the suite
    # makes them errors).  Beyond 2.1 spans P_10, whose n has no states at k = 1, exceeds
    # that sum by far and must not enter the normalized stack.
    params = ModelParams(10, 0.9, 1.1)
    counts = sector_counts(10, 1)
    assert counts.nu_tot[10] == 0
    model = build_strength_model(params, "gibbs")
    span = prediction_span(params)
    nu = counts.nu_tot.astype(float)
    tiny = np.finfo(float).tiny
    underflowed = 0
    for half_width in (2.0, 2.2):
        grid = np.linspace(-half_width * span, half_width * span, 257)
        curve = prediction_curve(counts, model, grid, delta_mode=delta_mode)
        assert np.all(curve.rho > 0)
        assert np.isfinite(curve.pr).all()
        assert all(np.isfinite(m).all() for m in curve.moments.values())
        # the unscaled ratio sum_n nu_n P_n^q / (sum_n nu_n P_n)^q gives the same values
        # wherever neither sum underflows: to 0 (0 / 0) or to a subnormal number, which
        # has lost digits
        stack = density_stack(model, grid)
        for q, moment in curve.moments.items():
            powered = stack**q
            factor = r_q_complex(q) + (r_q_real(q) - r_q_complex(q)) * _delta(counts, delta_mode)
            num, den = nu @ powered, (nu @ stack) ** q
            normal = (num >= tiny) & (den >= tiny)
            underflowed += np.count_nonzero(den == 0)
            assert np.count_nonzero(normal) > 200
            unscaled = factor * num / np.where(normal, den, 1.0)
            np.testing.assert_allclose(moment[normal], unscaled[normal], rtol=1e-12, atol=0)
    assert underflowed > 0


# the field points of the benchmark's workloads, each chaotic and Gibbs-feasible at N = 14 and 20
BENCH_POINTS = (
    (1.0, 1.0), (1.001, 0.944), (1.054, 1.093), (0.933, 0.926),
    (1.028, 1.073), (0.958, 1.09), (1.059, 1.075), (0.903, 0.98),
)


@pytest.mark.parametrize("n_sites", [10, 14])
@pytest.mark.parametrize("variant", VARIANTS)
def test_density_stack_clips_each_plain_density_once(variant, n_sites):
    negative = 0
    for lam, alpha in (*BENCH_POINTS, (0.9, 1.1)):
        params = ModelParams(n_sites, lam, alpha)
        model = build_strength_model(params, variant)
        span = prediction_span(params)
        grid = np.linspace(-span, span, 512)
        stack = density_stack(model, grid)
        assert not np.any(stack < 0), (lam, alpha)
        for n, row in enumerate(stack):
            plain = strength_density(model, n, grid)
            negative += np.count_nonzero(plain < 0)
            assert np.array_equal(row, np.maximum(plain, 0.0)), (lam, alpha, n)
    # strength_density keeps the negative Gram-Charlier lobes; the other two are positive
    assert (negative > 0) == (variant == "gram_charlier")


@pytest.mark.parametrize("variant,clipped", [("gram_charlier", True), ("gaussian", False)])
def test_density_stack_logs_the_count_it_clips(caplog, variant, clipped):
    # N = 14 on the CLI grid: the Gram-Charlier lobes are clipped and counted, the Gaussian has none
    params = ModelParams(14, 1.0, 1.0)
    model = build_strength_model(params, variant)
    span = prediction_span(params)
    grid = np.linspace(-span, span, 512)
    plain = np.stack([strength_density(model, n, grid) for n in range(15)])
    with caplog.at_level(logging.DEBUG, logger="isingchaos.statmodel"):
        density_stack(model, grid)
    [record] = [r for r in caplog.records if r.msg.startswith("density_stack")]
    assert record.levelno == logging.DEBUG
    count = np.count_nonzero(plain < 0)
    assert (count > 0) == clipped
    assert f"clipped {count} of {plain.size} values" in record.getMessage()
    assert variant in record.getMessage()


def test_gibbs_fits_log_one_summary_line(caplog):
    # N = 14 at (1, 1): every n fits, far inside the tolerance, and four fits have c4 < 0
    with caplog.at_level(logging.DEBUG, logger="isingchaos.statmodel"):
        model = build_strength_model(ModelParams(14, 1.0, 1.0), "gibbs")
    [record] = [r for r in caplog.records if r.msg.startswith("gibbs fits")]
    assert record.levelno == logging.DEBUG
    message = record.getMessage()
    fits = model.gibbs_fits
    assert "fitted 15 of 15 (N=14, lam=1, alpha=1), fell back at n=[]" in message
    residual = max(fit.residual for fit in fits)
    assert residual < 1e-12
    assert f"largest residual {residual:.3g} (GIBBS_TOL 1e-08)" in message
    assert f"largest boundary ratio {max(fit.boundary_ratio for fit in fits):.3g}" in message
    assert sum(fit.std_coeffs[3] < 0 for fit in fits) == 4
    assert message.endswith("4 with c4 < 0")


def test_strength_model_is_frozen():
    model = build_strength_model(ModelParams(6, 1.0, 1.0), "gram_charlier")
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.variant = "gaussian"


def _count_calls(monkeypatch, name):
    """Replace ``statmodel.<name>`` with a wrapper that counts its calls; returns the counter."""
    calls = []
    inner = getattr(statmodel, name)

    def counting(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(statmodel, name, counting)
    return calls


def _assert_same_fit(got, want, rtol=1e-10):
    scale = np.max(np.abs(want.std_coeffs))
    np.testing.assert_allclose(got.std_coeffs, want.std_coeffs, rtol=0, atol=rtol * scale)
    assert got.log_z_std == pytest.approx(want.log_z_std, rel=rtol, abs=rtol)
    assert got.residual < statmodel.GIBBS_TOL


def test_warm_started_model_takes_a_third_of_the_cold_moment_evaluations(monkeypatch):
    params = ModelParams(14, 1.0, 1.0)
    evaluations = _count_calls(monkeypatch, "_std_moments")
    model = build_strength_model(params, "gibbs")
    warm = len(evaluations)
    evaluations.clear()
    cold = [fit_gibbs(mom) for mom in model.moments]
    assert warm <= 0.35 * len(evaluations)
    for got, want in zip(model.gibbs_fits, cold):
        _assert_same_fit(got, want, rtol=1e-12)


def test_model_fits_every_n_once_through_fit_gibbs(monkeypatch):
    fits = _count_calls(monkeypatch, "fit_gibbs")
    model = build_strength_model(ModelParams(14, 1.0, 1.0), "gibbs")
    assert sorted(args[0].n_up for args in fits) == list(range(15))
    assert all(fit is not None for fit in model.gibbs_fits)


# the fits need no retry: at every benchmark point and the golden one, each n is fitted by
# one Newton solve, checked on the doubled grid, and no other grid is built
@pytest.mark.parametrize("n_sites", [10, 14, 20, 24])
def test_no_warm_start_falls_back_at_the_benchmark_points(monkeypatch, n_sites, caplog):
    solves = _count_calls(monkeypatch, "_newton_solve")
    grids = _count_calls(monkeypatch, "_gibbs_grid")
    with caplog.at_level(logging.INFO, logger="isingchaos.statmodel"):
        for lam, alpha in (*BENCH_POINTS, (0.9, 1.1)):
            solves.clear()
            grids.clear()
            model = build_strength_model(ModelParams(n_sites, lam, alpha), "gibbs")
            assert all(fit is not None for fit in model.gibbs_fits)
            assert len(solves) == n_sites + 1, (lam, alpha)
            assert {args[0] for args in grids} == {2000, 4000}, (lam, alpha)
    assert caplog.records == []


@pytest.mark.parametrize(
    "failure", [None, statmodel.GibbsFitError("singular moment covariance")], ids=["stalled", "singular"]
)
def test_a_failed_newton_solve_is_not_retried(monkeypatch, failure):
    params = ModelParams(14, 1.0, 1.0)
    mom = analytic_moments(params, 3)
    warm_start = fit_gibbs(analytic_moments(params, 4)).std_coeffs
    grids = _count_calls(monkeypatch, "_gibbs_grid")
    solves = []

    def failing(targets, n_orders, powers, weights, tol, start):
        # stall at the start, or raise ``failure``
        solves.append(np.array(start))
        if failure is not None:
            raise failure
        return np.array(start, dtype=float)

    monkeypatch.setattr(statmodel, "_newton_solve", failing)
    with pytest.raises(statmodel.GibbsFitError):
        fit_gibbs(mom, 4, warm_start)
    assert len(solves) == 1  # no restart from the Gaussian
    np.testing.assert_array_equal(solves[0], warm_start)
    assert [args[0] for args in grids] == [2000, 4000]


def test_an_off_doubled_grid_check_is_not_retried(monkeypatch):
    mom = analytic_moments(ModelParams(14, 1.0, 1.0), 5)
    grids = _count_calls(monkeypatch, "_gibbs_grid")
    solves = _count_calls(monkeypatch, "_newton_solve")
    inner = statmodel._std_to_energy_moments
    monkeypatch.setattr(
        statmodel, "_std_to_energy_moments", lambda *args: inner(*args) * (1.0 + 10 * statmodel.GIBBS_TOL)
    )
    with pytest.raises(statmodel.GibbsFitError, match="not below"):
        fit_gibbs(mom)
    assert len(solves) == 1
    assert [args[0] for args in grids] == [2000, 4000]
