"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
Heavy decompositions are shared through the session store fixture.
"""

from itertools import product

import numpy as np
import pytest

from isingchaos import empirics
from isingchaos.hamiltonian import (
    ModelParams,
    build_full_hamiltonian,
    build_sector_hamiltonian,
    element_blocks,
    sector_elements,
)
from isingchaos.moments import analytic_moments
from isingchaos.spin_basis import momentum_basis, sector_counts
from isingchaos.statmodel import (
    _clipped_power,
    build_strength_model,
    density_stack,
    fit_gibbs,
    model_spectral_density,
    prediction_curve,
    prediction_span,
    r_q_complex,
    r_q_real,
)
from oracles import (
    all_state_moments,
    bruteforce_state_moments,
    domain_wall_count,
    gibbs_energy_moments,
    invariant_counts,
    nu_inv_by_enumeration,
)


def report(index: int, name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {index} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {index}: {detail}"


def test_criterion_1_moment_oracle_equivalence():
    worst = 0.0
    for n_sites in range(5, 11):
        for lam, alpha in product((0.5, 1.0, 2.0), repeat=2):
            params = ModelParams(n_sites, lam, alpha)
            oracle = all_state_moments(params, 4)
            for config in range(1 << n_sites):
                m = analytic_moments(
                    params,
                    config.bit_count(),
                    k_walls=domain_wall_count(config, n_sites),
                )
                got = np.array([m.mu1, m.mu2, m.mu3, m.mu4])
                ref = oracle[:, config]
                rel = np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1.0))
                worst = max(worst, rel)
    report(
        1,
        "moment oracle equivalence",
        worst < 1e-9,
        f"worst relative deviation {worst:.2e} over N=5..10, 9 field pairs",
    )


def test_criterion_2_sum_rules():
    worst = 0.0
    rng = np.random.default_rng(20240817)
    for n_sites, n_symbols in ((9, 40), (12, 30)):
        params = ModelParams(n_sites, 1.0, 1.0)
        h = build_full_hamiltonian(params).toarray()
        energies, vectors = np.linalg.eigh(h)
        for config in rng.choice(1 << n_sites, size=n_symbols, replace=False):
            weights = vectors[config, :] ** 2
            emp = np.array([np.sum(weights * energies**j) for j in (1, 2, 3, 4)])
            ref = bruteforce_state_moments(int(config), params, 4)
            rel = np.max(np.abs(emp - ref) / np.maximum(np.abs(ref), 1.0))
            worst = max(worst, rel)
    report(
        2,
        "strength-function sum rules",
        worst < 1e-8,
        f"worst relative deviation {worst:.2e} for k<=4 at N=9,12",
    )


def test_criterion_3_sector_completeness():
    params = ModelParams(8, 1.0, 1.0)
    full = np.sort(np.linalg.eigvalsh(build_full_hamiltonian(params).toarray()))
    spectra = {}
    for k in range(8):
        h = build_sector_hamiltonian(momentum_basis(8, k), params).entries
        spectra[k] = np.sort(np.linalg.eigvalsh(0.5 * (h + h.conj().T)))
    union = np.sort(np.concatenate(list(spectra.values())))
    dev_union = float(np.max(np.abs(union - full)))
    dev_mirror = max(
        float(np.max(np.abs(spectra[k] - spectra[8 - k]))) for k in (1, 2, 3)
    )
    ok = dev_union < 1e-9 and dev_mirror < 1e-9
    report(
        3,
        "sector completeness",
        ok,
        f"union deviation {dev_union:.2e}, k vs N-k deviation {dev_mirror:.2e}",
    )


def test_criterion_4_counting_formulas():
    ok = True
    notes = []
    for n_sites in range(2, 18):
        for k in range(n_sites):
            if momentum_basis(n_sites, k).dim != sector_counts(n_sites, k).dim:
                ok = False
                notes.append(f"dim mismatch N={n_sites} k={k}")
    for n_sites in range(5, 18, 2):
        basis = momentum_basis(n_sites, 0)
        if basis.n_invariant != 2 ** (n_sites // 2 + 1):
            ok = False
            notes.append(f"invariant total mismatch N={n_sites}")
        nu = nu_inv_by_enumeration(basis)
        closed_form = sector_counts(n_sites, 0).nu_inv
        for n_up in range(n_sites + 1):
            if not invariant_counts(n_sites, n_up).count == nu[n_up] == closed_form[n_up]:
                ok = False
                notes.append(f"nu_inv mismatch N={n_sites} n={n_up}")
    report(
        4,
        "counting formulas",
        ok,
        "dimensions and invariant counts exact for N<=17" if ok else "; ".join(notes),
    )


def test_criterion_5_spectral_density(store):
    n_sites = 14
    params = ModelParams(n_sites, 1.0, 1.0)
    levels = np.sort(
        np.concatenate(
            [store.sector_eigenvalues(n_sites, k, 1.0, 1.0) for k in range(n_sites)]
        )
    )
    # 80-bin histogram over the model's prediction-grid span; deviations are
    # scored on bins inside the bulk (central 60% of levels)
    span = prediction_span(params)
    edges = np.linspace(-span, span, 81)
    counts, _ = np.histogram(levels, bins=edges)
    density = counts / np.diff(edges) / levels.size
    centers = 0.5 * (edges[:-1] + edges[1:])
    lo = levels[int(0.2 * levels.size)]
    hi = levels[int(0.8 * levels.size) - 1]
    bulk = (centers >= lo) & (centers <= hi)

    gauss = build_strength_model(params, "gaussian")
    corrected = build_strength_model(params, "gram_charlier")
    mad_gauss = float(np.mean(np.abs(density[bulk] - model_spectral_density(gauss, centers[bulk]))))
    mad_corr = float(np.mean(np.abs(density[bulk] - model_spectral_density(corrected, centers[bulk]))))
    peak = float(np.max(model_spectral_density(corrected, np.linspace(-10, 10, 401))))
    ok = mad_gauss >= 2.0 * mad_corr and mad_corr < 0.02 * peak
    report(
        5,
        "spectral density vs data",
        ok,
        f"MAD corrected {mad_corr:.2e} vs gaussian {mad_gauss:.2e} "
        f"(ratio {mad_gauss / mad_corr:.2f}, corrected/peak {mad_corr / peak:.2%})",
    )


def _pr_comparison(counts, decomp, corrected_model, gauss_model):
    edges = empirics.windows_fixed_count(decomp.energies, max(50, decomp.dim // 40))
    pr = empirics.empirical_participation_ratio(decomp)
    grid = np.linspace(decomp.energies[0], decomp.energies[-1], 512)
    corr = prediction_curve(counts, corrected_model, grid)
    unc = prediction_curve(counts, gauss_model, grid, delta_mode="none")
    # oracle for the uncorrected baseline: the plain Gaussian-ensemble closed form
    stack = _clipped_power(density_stack(gauss_model, grid), 1.0)
    nu = counts.nu_tot.astype(float)
    factor = r_q_real if counts.is_real else r_q_complex
    assert np.array_equal(unc.pr, 1.0 / (factor(2.0) * (nu @ (stack / (nu @ stack)) ** 2.0)))
    rep_c = empirics.compare(grid, corr.pr, decomp.energies, pr, edges)
    rep_u = empirics.compare(grid, unc.pr, decomp.energies, pr, edges)
    # effective R2 from data: model ratio-part divided by empirical Pr
    stack = _clipped_power(density_stack(corrected_model, rep_c.e_center), 1.0)
    nu = counts.nu_tot.astype(float)
    ratio_part = (nu @ stack) ** 2 / (nu @ stack**2)
    bulk = rep_c.in_bulk
    r2_fit = float(np.median(ratio_part[bulk] / rep_c.empirical[bulk]))
    return rep_c.bulk_median, rep_u.bulk_median, r2_fit


def test_criterion_6_participation_ratio(store):
    ok = True
    lines = []
    for n_sites in (14, 15, 16):
        params = ModelParams(n_sites, 1.0, 1.0)
        corrected = build_strength_model(params, "gram_charlier")
        gauss = build_strength_model(params, "gaussian")
        for k in (0, 1):
            keep = n_sites < 16
            _, decomp = store.get(n_sites, k, keep=keep)
            counts = sector_counts(n_sites, k)
            med_c, med_u, r2_fit = _pr_comparison(counts, decomp, corrected, gauss)
            sector_ok = med_c < 0.05 and med_c < med_u
            if k == 0:
                target = 3 * (1 + counts.delta)
                sector_ok = sector_ok and abs(r2_fit - target) < abs(r2_fit - 3.0)
                lines.append(
                    f"N={n_sites} k=0: corrected {med_c:.2%} vs {med_u:.2%}, "
                    f"R2 fit {r2_fit:.3f} vs 3(1+d)={target:.3f}"
                )
            else:
                lines.append(
                    f"N={n_sites} k={k}: corrected {med_c:.2%} vs {med_u:.2%}"
                )
            ok = ok and sector_ok
            del decomp
    report(6, "participation-ratio predictions", ok, "; ".join(lines))


def test_criterion_7_gibbs_fitter():
    params = ModelParams(17, 1.0, 1.0)
    worst = 0.0
    for n_up in range(18):
        mom = analytic_moments(params, n_up)
        fit = fit_gibbs(mom)
        got = gibbs_energy_moments(fit)
        target = np.array([mom.mu1, mom.mu2, mom.mu3, mom.mu4])
        worst = max(worst, float(np.max(np.abs(got - target) / np.abs(target))))
    mom8 = analytic_moments(params, 8)
    two = fit_gibbs(mom8, n_orders=2)
    gauss_err = max(
        abs(two.multipliers[0] + mom8.e_n / mom8.sigma2),
        abs(two.multipliers[1] - 1.0 / (2 * mom8.sigma2)),
        abs(two.multipliers[2]),
        abs(two.multipliers[3]),
    )
    ok = worst < 1e-8 and gauss_err < 1e-10
    report(
        7,
        "max-entropy fitter",
        ok,
        f"four-moment residual {worst:.2e} over all n at N=17; "
        f"two-moment Gaussian error {gauss_err:.2e}",
    )


def test_criterion_8_coefficient_gaussianity(store):
    basis, decomp = store.get(14, 0)
    edges = empirics.windows_fixed_count(decomp.energies, 500)
    rng = np.random.default_rng(42)
    symbols = rng.choice(decomp.dim, size=20, replace=False)
    chis = []
    for symbol in symbols:
        stats = empirics.windowed_coefficient_stats(decomp, int(symbol), edges)
        chis.extend(s.chi2_reduced for s in stats if not s.insufficient)
    median = float(np.median(chis))
    report(
        8,
        "coefficient gaussianity",
        median < 1.5,
        f"median reduced chi^2 {median:.3f} over {len(chis)} fits "
        f"(20 symbols x {edges.size - 1} windows of ~500 levels)",
    )


def test_criterion_9_spacing_ratios(store):
    rng = np.random.default_rng(7)
    goe = float(
        np.mean(
            [
                empirics.spacing_ratio(empirics.goe_surrogate_levels(800, rng)).mean_r
                for _ in range(20)
            ]
        )
    )
    poisson = empirics.spacing_ratio(
        empirics.poisson_surrogate_levels(200_000, rng)
    ).mean_r

    basis, decomp = store.get(15, 0)
    plus = np.flatnonzero(decomp.parity == 1)
    minus = np.flatnonzero(decomp.parity == -1)
    chaotic_rs = np.concatenate(
        [
            empirics.spacing_ratio(decomp.energies[idx]).r_values
            for idx in (plus, minus)
        ]
    )
    chaotic = float(chaotic_rs.mean())

    # integrable chain: off-critical transverse field (the critical point has
    # a commensurate single-particle spectrum); exact degeneracies force
    # block-projected symmetry resolution
    params0 = ModelParams(15, 1.2, 0.0)
    z_parity = (-1) ** (15 - basis.n_up)
    blocks = element_blocks(basis, sector_elements(basis, params0), z_parity)
    integrable_rs = []
    for block in blocks.values():
        energies = np.linalg.eigvalsh(0.5 * (block + block.T))
        integrable_rs.append(empirics.spacing_ratio(energies).r_values)
    integrable = float(np.concatenate(integrable_rs).mean())

    ok = (
        abs(goe - 0.531) < 0.01
        and abs(poisson - 0.386) < 0.01
        and plus.size == (basis.dim + basis.n_invariant) // 2
        and minus.size == (basis.dim - basis.n_invariant) // 2
        and len(blocks) == 4
        and abs(chaotic - 0.5307) < 0.02
        and abs(integrable - empirics.POISSON_MEAN_R) < 0.03
    )
    report(
        9,
        "spacing-ratio statistics",
        ok,
        f"GOE surrogate {goe:.4f}, Poisson surrogate {poisson:.4f}, "
        f"chain {chaotic:.4f} (GOE 0.5307), integrable {integrable:.4f} "
        f"(Poisson {empirics.POISSON_MEAN_R:.4f})",
    )
