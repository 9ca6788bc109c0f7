"""Empirical eigenvector statistics: windowing, strength functions, spacing."""

import numpy as np
import pytest

from isingchaos import eigensolve
from isingchaos.eigensolve import EigenDecomposition, diagonalize, state_moment_sums
from isingchaos.empirics import (
    GOE_MEAN_R,
    POISSON_MEAN_R,
    _median_p90,
    compare,
    coefficient_samples,
    empirical_participation_ratio,
    spacing_ratio,
    window_means,
    windowed_coefficient_stats,
    windows_fixed_count,
)
from isingchaos.hamiltonian import ModelParams, build_sector_hamiltonian, element_blocks, sector_elements
from isingchaos.spin_basis import momentum_basis
from oracles import (
    empirical_strength_function,
    gaussian_fit_chi2,
    goe_surrogate_levels,
    poisson_surrogate_levels,
    sector_state_moments,
    strength_moments,
)
from oracles import from_real
from parity_oracle import inversion_matrix

def synthetic_decomposition(vectors: np.ndarray, energies=None, n_sites=4, k=2) -> EigenDecomposition:
    """Sector k's decomposition, derived from min(k, N - k), whose W is ``vectors``.

    W is in the basis of sector min(k, N - k); the default, N = 4 and k = 2, is
    a real sector of 4 states, each its own mirror image, so that row a of V
    is row a of W.  The moment sums are taken as if every state were its own
    partner.
    """
    n_states = vectors.shape[1]
    if energies is None:
        energies = np.arange(n_states, dtype=float)
    vectors = np.asarray(vectors, dtype=np.float64)
    return EigenDecomposition(
        params=ModelParams(n_sites, 0.0, 0.0),
        k=k,
        basis=momentum_basis(n_sites, min(k, n_sites - k)),
        energies=np.asarray(energies, dtype=float),
        vectors=vectors,
        parity=np.zeros(n_states, dtype=np.int8),
        sum_c4=state_moment_sums(vectors, np.arange(vectors.shape[0]), 2.0),
    )



def test_windows_fixed_count():
    energies = np.linspace(0, 1, 103)
    edges = windows_fixed_count(energies, 25)
    assert edges.dtype.kind == "i" and edges.tolist() == [0, 25, 50, 75, 100, 103]
    sizes = np.diff(edges)
    assert sizes.tolist() == [25, 25, 25, 25, 3]
    assert (sizes < 25).tolist() == [False, False, False, False, True]  # only the last is short
    covered = np.concatenate([np.arange(a, b) for a, b in zip(edges[:-1], edges[1:])])
    assert sorted(covered) == list(range(103))
    with pytest.raises(ValueError):
        windows_fixed_count(energies, 1)


def test_windows_fixed_count_drops_a_trailing_level_and_needs_ascending_levels():
    assert windows_fixed_count(np.arange(101.0), 25).tolist() == [0, 25, 50, 75, 100]
    assert windows_fixed_count(np.arange(102.0), 25).tolist() == [0, 25, 50, 75, 100, 102]
    assert windows_fixed_count(np.arange(1.0), 25).tolist() == [0]
    with pytest.raises(ValueError, match="ascending"):
        windows_fixed_count(np.array([0.0, 2.0, 1.0, 3.0]), 2)


def test_window_means_are_slice_means():
    values = np.arange(9.0) ** 2
    edges = windows_fixed_count(np.arange(9.0), 4)  # the ninth level is dropped
    assert window_means(values, edges).tolist() == [3.5, 31.5]


def test_window_stats_on_true_gaussian_samples():
    rng = np.random.default_rng(123)
    dim = 3000
    vectors = rng.standard_normal((4, dim)) * 0.01
    decomp = synthetic_decomposition(vectors)
    edges = windows_fixed_count(decomp.energies, dim)
    stats = windowed_coefficient_stats(decomp, 1, edges)[0]
    assert not stats.insufficient
    assert stats.mean == pytest.approx(0.0, abs=4 * 0.01 / np.sqrt(dim))
    assert stats.variance == pytest.approx(1e-4, rel=0.1)
    assert 0.5 < stats.chi2_reduced < 1.5


def test_window_stats_insufficient_flag():
    rng = np.random.default_rng(1)
    decomp = synthetic_decomposition(rng.standard_normal((4, 20)))
    edges = windows_fixed_count(decomp.energies, 20)
    stats = windowed_coefficient_stats(decomp, 0, edges)[0]
    assert stats.insufficient


@pytest.mark.parametrize("n", [30, 36, 37, 50])
def test_window_is_insufficient_exactly_without_a_degree_of_freedom(n):
    # a moment-fitted Gaussian has a degree of freedom from 37 samples on
    rng = np.random.default_rng(n)
    decomp = synthetic_decomposition(rng.standard_normal((4, n)))
    (stats,) = windowed_coefficient_stats(decomp, 0, windows_fixed_count(decomp.energies, n))
    assert stats.n_samples == n
    assert stats.insufficient == (n <= 36) == (stats.chi2_reduced == np.inf)


def _assert_fits_equal_the_oracle(decomp, symbol, edges):
    """Each window's stats equal the one-window fit bit for bit; returns them."""
    stats = windowed_coefficient_stats(decomp, symbol, edges)
    assert len(stats) == edges.size - 1
    for a, b, st in zip(edges[:-1], edges[1:], stats):
        samples = coefficient_samples(decomp, symbol, slice(a, b))
        chi2, bin_edges, counts = gaussian_fit_chi2(samples)
        assert st.n_samples == samples.size
        assert st.mean == float(samples.mean()) and st.variance == float(samples.var())
        assert st.chi2_reduced == chi2
        assert np.array_equal(st.bin_edges, bin_edges) and bin_edges.dtype == st.bin_edges.dtype
        assert np.array_equal(st.counts, counts) and counts.dtype == st.counts.dtype
    return stats


def test_array_window_fits_equal_the_per_window_oracle(store):
    fitted = insufficient = 0
    for k in (0, 1):  # a real and a complex sector
        basis, decomp = store.get(10, k)
        if k:  # an invariant and a paired symbol
            assert basis.partner[0] == 0 and basis.partner[decomp.dim // 2] != decomp.dim // 2
        for levels in (15, 23, 40):
            edges = windows_fixed_count(decomp.energies, levels)
            assert np.diff(edges)[-1] < levels  # a short last window
            for symbol in (0, decomp.dim // 2, decomp.dim - 1):
                stats = _assert_fits_equal_the_oracle(decomp, symbol, edges)
                fitted += sum(not st.insufficient for st in stats)
                insufficient += sum(st.insufficient and st.n_samples <= 36 for st in stats)
    assert fitted > 0 and insufficient > 0


def test_array_window_fits_equal_the_oracle_on_a_zero_spread_window():
    rng = np.random.default_rng(7)
    vectors = rng.standard_normal((4, 130))
    vectors[0, 50:100] = 0.125
    decomp = synthetic_decomposition(vectors)
    assert decomp.basis.is_real and np.array_equal(decomp.basis.partner, np.arange(4))  # c_0 = W_0
    stats = _assert_fits_equal_the_oracle(decomp, 0, windows_fixed_count(decomp.energies, 50))
    assert [st.insufficient for st in stats] == [False, True, True]
    assert stats[1].counts.tolist() == [50] and stats[1].bin_edges.tolist() == [0.125, 0.125]


def test_bulk_median_and_p90_equal_numpy_bit_for_bit():
    rng = np.random.default_rng(11)
    for n in range(1, 258):
        for values in (rng.random(n) * 10.0 ** rng.integers(-6, 3), rng.integers(0, 4, n) * 0.1):
            median, p90 = _median_p90(values)  # the second array has ties
            assert median == np.median(values) and p90 == np.percentile(values, 90)


def test_variance_estimators_agree(store):
    # window-mean |C|^2 and the averaged-strength-function construction are
    # the same sum; both paths must agree identically
    _, decomp = store.get(10, 1)
    edges = windows_fixed_count(decomp.energies, 40)
    sym = 17
    weights = np.abs(decomp.coefficients(sym)) ** 2
    direct = window_means(weights, edges)
    strength_path = np.add.reduceat(weights[: edges[-1]], edges[:-1]) / np.diff(edges)
    assert direct == pytest.approx(strength_path, rel=1e-14)


def test_coefficient_samples_real_vs_complex(store):
    levels = np.arange(99)
    basis0, decomp0 = store.get(10, 0)
    s0 = coefficient_samples(decomp0, 5, levels)
    assert np.array_equal(s0, from_real(basis0, decomp0.vectors)[5, levels])  # real sector: c_a itself
    basis1, decomp1 = store.get(10, 1)
    v1 = from_real(basis1, decomp1.vectors)
    paired, invariant = 49, 0
    assert basis1.partner[paired] != paired and basis1.partner[invariant] == invariant
    s1 = coefficient_samples(decomp1, paired, levels)
    assert np.array_equal(s1, np.concatenate([v1[paired, levels].real, v1[paired, levels].imag]))  # re and im
    # an invariant state's c_a = exp(i angle / 2) W_a is one real Gaussian: W_a
    s1 = coefficient_samples(decomp1, invariant, levels)
    assert np.array_equal(s1, decomp1.vectors[invariant, levels])
    assert np.max(np.abs(s1 * np.exp(0.5j * basis1.angle[invariant]) - v1[invariant, levels])) < 1e-15


def test_coefficient_samples_follow_the_sector_not_the_data():
    # every symbol of every sector of N = 6, from random W: a real sector (k = 0, N/2)
    # gives one sample per level, a complex one two for a paired state and one for an
    # invariant state, k > N/2 as its partner N - k does
    rng = np.random.default_rng(5)
    kinds = set()
    for k in range(6):
        decomp = synthetic_decomposition(rng.standard_normal((momentum_basis(6, k).dim, 12)), n_sites=6, k=k)
        basis = decomp.basis
        assert basis.k == min(k, 6 - k)
        for symbol in range(basis.dim):
            paired = basis.partner[symbol] != symbol
            n_samples = 24 if paired and not basis.is_real else 12
            kinds.add((basis.is_real, bool(paired)))
            assert coefficient_samples(decomp, symbol, slice(0, 12)).size == n_samples, (k, symbol)
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}


def test_strength_function_weight_and_sum_rules(store):
    basis, decomp = store.get(10, 2)
    params = ModelParams(10, 1.0, 1.0)
    matrix = build_sector_hamiltonian(basis, params).entries
    for sym in (0, 11, 53):
        edges, density = empirical_strength_function(decomp, basis, sym, bins=50)
        total = np.sum(density * np.diff(edges))
        assert abs(total - 1.0) < 1e-10
        emp = strength_moments(decomp, basis, sym, order=4)
        ref = sector_state_moments(matrix, sym, order=4)
        assert np.max(np.abs(emp - ref) / np.maximum(np.abs(ref), 1.0)) < 1e-8


def test_strength_function_centers_on_diagonal_at_strong_field(store):
    params = ModelParams(10, 5.0, 1.0)
    basis = momentum_basis(10, 1)
    decomp = diagonalize(basis, sector_elements(basis, params), params)
    sym = 3
    e_n = params.lam * (10 - 2 * int(basis.reps[sym]).bit_count())
    mean_e = strength_moments(decomp, basis, sym, order=1)[0]
    sigma = np.sqrt(10 * (1 + 1.0))
    assert abs(mean_e - e_n) < sigma


def test_strength_completeness(store):
    # summing |C|^2 over all symbols turns the strength function into the
    # plain spectral measure
    basis, decomp = store.get(10, 3)
    total = np.sum(np.abs(from_real(basis, decomp.vectors)) ** 2, axis=0)
    assert total == pytest.approx(np.ones(decomp.dim), abs=1e-10)


def test_participation_ratio_synthetic():
    aligned = np.zeros((4, 1))
    aligned[2, 0] = 1.0
    pr = empirical_participation_ratio(synthetic_decomposition(aligned, [0.0]))
    assert pr[0] == pytest.approx(1.0)
    uniform = np.full((8, 1), np.sqrt(1 / 8))
    pr = empirical_participation_ratio(synthetic_decomposition(uniform, [0.0]))
    assert pr[0] == pytest.approx(8.0)


@pytest.mark.parametrize("k", [1, 3])
def test_invariant_states_carry_real_coefficients_and_paired_states_complex_ones(store, k):
    # the symmetry correction state by state: at a complex k, the coefficient of a state
    # that is its own inversion partner is a real Gaussian (<|C|^4>/<|C|^2>^2 = 3), that
    # of a paired state a complex one (2).  Per window of m levels and kind of state,
    # K = sum_s m4_s / sum_s U_s with x = |C_sa|^2, m4_s the window mean of x^2 and
    # U_s = ((sum x)^2 - sum x^2) / (m (m - 1)) the unbiased estimate of m2_s^2, so that
    # the Gaussian values are exactly 3 and 2.  At N=14 both K sit a few percent above
    # them, unevenly, so the ratio holds the correction (3/2, not 1), not the exact law
    basis, decomp = store.get(14, k)
    m, skip = 50, int(round(0.2 * decomp.dim))  # windows over the middle 60% of levels
    invariant = basis.partner == np.arange(decomp.dim)
    v = from_real(basis, decomp.vectors)
    k_inv, k_pair = [], []
    for start in range(skip, decomp.dim - skip - m + 1, m):
        x = np.abs(v[:, start : start + m]) ** 2
        m4 = np.mean(x**2, axis=1)
        u = (np.sum(x, axis=1) ** 2 - np.sum(x**2, axis=1)) / (m * (m - 1))
        k_inv.append(m4[invariant].sum() / u[invariant].sum())
        k_pair.append(m4[~invariant].sum() / u[~invariant].sum())
    ratios = np.array(k_inv) / np.array(k_pair)
    ratio, se = ratios.mean(), ratios.std(ddof=1) / np.sqrt(ratios.size)
    print(
        f"\nN=14 k={k}: {ratios.size} windows, K_inv {np.mean(k_inv):.3f}, K_pair {np.mean(k_pair):.3f}, "
        f"ratio {ratio:.3f} +- {se:.3f}, z vs 3/2 {(ratio - 1.5) / se:+.1f}"
    )
    assert abs(ratio / 1.5 - 1) < 0.05
    assert ratio - 1 >= 10 * se
    assert np.mean(k_inv) > 3 and np.mean(k_pair) > 2


@pytest.mark.parametrize("k", [1, 3])
def test_coefficient_histograms_accept_the_gaussian_for_both_kinds_of_symbol(store, k):
    # at a complex k an invariant state's coefficient is one real Gaussian, sampled once per
    # level as W_a, and a paired state's a complex one, sampled as its real and imaginary
    # parts; fitted over windows of 500 levels, the median reduced chi^2 of either kind is
    # near 1.  Splitting the invariant coefficients into Re and Im read 9.85 (k=1) and 10.23 (k=3)
    basis, decomp = store.get(14, k)
    edges = windows_fixed_count(decomp.energies, 500)
    invariant = basis.partner == np.arange(decomp.dim)
    rng = np.random.default_rng(42)
    medians = {}
    for kind, members in (("invariant", invariant), ("paired", ~invariant)):
        symbols = rng.choice(np.flatnonzero(members), size=20, replace=False)
        chis = [
            st.chi2_reduced
            for symbol in symbols.tolist()
            for st in windowed_coefficient_stats(decomp, symbol, edges)
            if not st.insufficient
        ]
        assert len(chis) == 20 * (edges.size - 1)
        medians[kind] = float(np.median(chis))
    print(f"\nN=14 k={k}: median reduced chi^2, invariant {medians['invariant']:.2f}, paired {medians['paired']:.2f}")
    assert medians["invariant"] < 2 and medians["paired"] < 2


def _peak_bytes(fn, *args):
    import tracemalloc

    tracemalloc.start()
    fn(*args)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak


def _unchunked_moment_sums(w, partner, q):
    """Whole-matrix oracle of the kernel's formula: sum_a ((W_a^2 + W_partner(a)^2) / 2)^q."""
    p = (w**2 + w[partner] ** 2) * 0.5
    return np.sum(p * p if q == 2 else p**q, axis=0)


def test_chunked_participation_ratio_is_exact_and_small(store):
    basis, decomp = store.get(12, 1)
    rows = eigensolve.MOMENT_CHUNK_ROWS
    assert decomp.dim > rows and decomp.dim % rows  # several blocks, the last one short
    pr = empirical_participation_ratio(decomp)
    # exact against the same formula summed without chunks
    assert np.array_equal(pr, 1.0 / _unchunked_moment_sums(decomp.vectors, basis.partner, 2.0))
    # and within rounding of the plain |C|^4 sum over V = U W
    np.testing.assert_allclose(
        pr, 1.0 / np.sum(np.abs(from_real(basis, decomp.vectors)) ** 4, axis=0), rtol=1e-14, atol=0
    )
    assert _peak_bytes(empirical_participation_ratio, decomp) < 0.5 * decomp.vectors.nbytes


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0])
def test_chunked_state_moment_sums_are_exact_and_small(store, q):
    basis, decomp = store.get(12, 1)
    sums = state_moment_sums(decomp.vectors, basis.partner, q)
    if q == 1.0:  # each eigenstate is normalized
        assert sums == pytest.approx(np.ones(decomp.dim), abs=1e-12)
    assert np.array_equal(sums, _unchunked_moment_sums(decomp.vectors, basis.partner, q))
    np.testing.assert_allclose(
        sums, np.sum(np.abs(from_real(basis, decomp.vectors)) ** (2 * q), axis=0), rtol=1e-14, atol=0
    )
    assert _peak_bytes(state_moment_sums, decomp.vectors, basis.partner, q) < 0.5 * decomp.vectors.nbytes



def test_state_moment_sums_of_real_vectors(store):
    # at k = 0 V = U W is real, and the pair formula holds for every q: one of
    # W_a and W_b is 0 in each eigenstate, which has a parity
    basis, decomp = store.get(10, 0)
    v = from_real(basis, decomp.vectors)
    assert v.dtype == np.float64
    for q in (1.5, 2.0, 3.0):
        sums = state_moment_sums(decomp.vectors, basis.partner, q)
        assert np.array_equal(sums, _unchunked_moment_sums(decomp.vectors, basis.partner, q))
        np.testing.assert_allclose(sums, np.sum(np.abs(v) ** (2 * q), axis=0), rtol=1e-14, atol=0)


def test_participation_ratio_bounds(store):
    basis, decomp = store.get(10, 1)
    pr = empirical_participation_ratio(decomp)
    assert np.all(pr >= 1.0 - 1e-9)
    assert np.all(pr <= decomp.dim + 1e-9)


def test_spacing_ratio_surrogates():
    rng = np.random.default_rng(7)
    goe = np.mean(
        [spacing_ratio(goe_surrogate_levels(800, rng)).mean_r for _ in range(12)]
    )
    assert goe == pytest.approx(GOE_MEAN_R, abs=0.01)
    poisson = spacing_ratio(poisson_surrogate_levels(150_000, rng)).mean_r
    assert poisson == pytest.approx(POISSON_MEAN_R, abs=0.01)


def test_spacing_ratio_excludes_degeneracies():
    rng = np.random.default_rng(3)
    base = np.sort(rng.uniform(0, 1, 400))
    doubled = np.sort(np.concatenate([base, base]))
    res = spacing_ratio(doubled)
    # the central 60% of the levels hold 0.6 x 400 pairs, each one degenerate spacing
    assert res.n_excluded == pytest.approx(0.6 * base.size, abs=2)
    with pytest.raises(ValueError):
        spacing_ratio(np.array([1.0, 1.0, 1.0]))


def test_inversion_matrix_is_involution_and_commutes(store):
    for n_sites, k in ((6, 0), (6, 3), (9, 0)):
        basis = momentum_basis(n_sites, k)
        s_op = inversion_matrix(basis)
        assert np.max(np.abs(s_op @ s_op - np.eye(basis.dim))) < 1e-12
        h = build_sector_hamiltonian(basis, ModelParams(n_sites, 1.0, 0.7)).entries
        assert np.max(np.abs(s_op @ h - h @ s_op)) < 1e-12
    with pytest.raises(ValueError):
        inversion_matrix(momentum_basis(6, 1))


def test_half_momentum_inversion_phases():
    # at k = N/2 invariant states may carry inversion eigenvalue -1; the
    # operator stays a real involution (classified by enumeration: a state
    # is invariant iff the oracle maps it onto itself), and the real basis
    # gives each invariant state's column the same sign as its parity
    basis = momentum_basis(8, 4)
    s_op = inversion_matrix(basis)
    assert np.max(np.abs(s_op.imag)) == 0.0
    invariant = np.flatnonzero(np.diag(s_op) != 0)
    assert np.array_equal(invariant, np.flatnonzero(basis.partner == np.arange(basis.dim)))
    diag = np.array([s_op[i, i].real for i in invariant])
    assert set(np.round(diag).astype(int)) <= {-1, 1}
    assert np.any(diag < 0)  # the -1 branch genuinely occurs
    assert np.array_equal(basis.column_parity[invariant], np.diag(s_op).real[invariant])
    assert not momentum_basis(8, 3).column_parity.any()


def test_split_by_parity_counts(store):
    basis, decomp = store.get(12, 0)
    plus = np.flatnonzero(decomp.parity == 1)
    minus = np.flatnonzero(decomp.parity == -1)
    assert plus.size + minus.size == decomp.dim
    assert plus.size == (basis.dim + basis.n_invariant) // 2
    assert minus.size == (basis.dim - basis.n_invariant) // 2
    s_op = inversion_matrix(basis)
    v = from_real(basis, decomp.vectors)
    expect = np.real(np.sum(v.conj() * (s_op @ v), axis=0))
    assert np.max(np.abs(expect - decomp.parity)) < 1e-6


def test_inversion_blocks_reproduce_sector_spectrum(store):
    basis = momentum_basis(10, 0)
    params = ModelParams(10, 1.0, 1.0)
    matrix = build_sector_hamiltonian(basis, params)
    blocks = element_blocks(basis, sector_elements(basis, params), np.zeros(basis.dim, dtype=int))
    assert sorted(blocks) == [(0, -1), (0, 1)]
    assert blocks[0, 1].entries.shape[0] == (basis.dim + basis.n_invariant) // 2
    union = np.sort(np.concatenate([np.linalg.eigvalsh(b.entries) for b in blocks.values()]))
    full = np.sort(np.linalg.eigvalsh(matrix.entries))
    assert np.max(np.abs(union - full)) < 1e-9


def test_z_parity_blocks_at_zero_longitudinal_field():
    for k in (0, 3, 4):
        basis = momentum_basis(8, k)
        params = ModelParams(8, 1.0, 0.0)
        matrix = build_sector_hamiltonian(basis, params)
        signs = (-1) ** (8 - basis.n_up)
        blocks = element_blocks(basis, sector_elements(basis, params), signs)
        parities = [0] if k == 3 else [1, -1]
        assert list(blocks) == [(z, p) for z in (1, -1) for p in parities]
        union = np.sort(np.concatenate([np.linalg.eigvalsh(b.entries) for b in blocks.values()]))
        assert np.max(np.abs(union - np.sort(np.linalg.eigvalsh(matrix.entries)))) < 1e-9
        # at a nonzero longitudinal field z-parity is broken and the check says so
        with pytest.raises(ValueError, match="couples"):
            element_blocks(basis, sector_elements(basis, ModelParams(8, 1.0, 0.5)), signs)


def test_compare_identical_and_offset(store):
    basis, decomp = store.get(10, 1)
    edges = windows_fixed_count(decomp.energies, 25)
    pr = empirical_participation_ratio(decomp)
    # a first report gives the window centers and means to use as the prediction
    first = compare(decomp.energies, np.ones(decomp.dim), decomp.energies, pr, edges)
    grid, exact = first.e_center, first.empirical
    assert np.array_equal(exact, window_means(pr, edges))
    report = compare(grid, exact, decomp.energies, pr, edges)
    assert report.bulk_median == pytest.approx(0.0, abs=1e-12)
    report_off = compare(grid, exact, decomp.energies, pr * 1.10, edges)
    assert report_off.bulk_median == pytest.approx(0.10, rel=1e-6)
    assert not report.in_bulk.all()  # edge windows are flagged, not dropped
    assert report.in_bulk.size == edges.size - 1
    with pytest.raises(ValueError):
        compare(grid + 1e6, exact, decomp.energies, pr, edges)


def test_compare_columns_equal_the_per_window_loop(store):
    # the reference takes each window's center, mean, prediction, deviation and
    # bulk flag one scalar at a time
    basis, decomp = store.get(10, 1)
    edges = windows_fixed_count(decomp.energies, 30)
    pr = empirical_participation_ratio(decomp)
    grid = np.linspace(decomp.energies[0], decomp.energies[-1], 77)
    pred = 2.0 + np.cos(grid)
    report = compare(grid, pred, decomp.energies, pr, edges, bulk_fraction=0.5)
    assert report.in_bulk.any() and not report.in_bulk.all()
    for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        center = 0.5 * (float(decomp.energies[a]) + float(decomp.energies[b - 1]))
        emp = pr[a:b].mean()
        p = float(np.interp(center, grid, pred))
        assert (report.e_center[i], report.empirical[i], report.predicted[i]) == (center, emp, p)
        assert report.rel_deviation[i] == abs(emp - p) / abs(p)
        assert report.in_bulk[i] == (abs((a + b) / 2 / decomp.dim - 0.5) <= 0.25)


def test_compare_bulk_fraction():
    energies = np.linspace(0, 1, 200)
    vectors = np.eye(200)
    decomp = synthetic_decomposition(vectors, energies)
    edges = windows_fixed_count(energies, 20)
    grid = np.linspace(0, 1, 50)
    pr = empirical_participation_ratio(decomp)  # every state is a basis state: Pr = 1
    report = compare(grid, np.ones(50), energies, pr, edges, bulk_fraction=0.6)
    assert report.bulk_median == 0.0
    assert report.in_bulk.sum() == 6  # central 60% of ten 20-level windows
