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
    goe_surrogate_levels,
    poisson_surrogate_levels,
    spacing_ratio,
    window_means,
    windowed_coefficient_stats,
    windows_fixed_count,
)
from isingchaos.hamiltonian import ModelParams, build_sector_hamiltonian, element_blocks, sector_elements
from isingchaos.spin_basis import momentum_basis
from oracles import empirical_strength_function, gaussian_fit_chi2, sector_state_moments, strength_moments
from parity_oracle import inversion_matrix


def synthetic_decomposition(vectors: np.ndarray, energies=None, k=0) -> EigenDecomposition:
    n_states = vectors.shape[1]
    if energies is None:
        energies = np.arange(n_states, dtype=float)
    return EigenDecomposition(
        params=ModelParams(4, 0.0, 0.0),
        k=k,
        energies=np.asarray(energies, dtype=float),
        vectors=np.asarray(vectors, dtype=np.complex128),
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
    decomp = synthetic_decomposition(rng.standard_normal((3, 20)))
    edges = windows_fixed_count(decomp.energies, 20)
    stats = windowed_coefficient_stats(decomp, 0, edges)[0]
    assert stats.insufficient


@pytest.mark.parametrize("n", [30, 36, 37, 50])
def test_window_is_insufficient_exactly_without_a_degree_of_freedom(n):
    # a moment-fitted Gaussian has a degree of freedom from 37 samples on
    rng = np.random.default_rng(n)
    decomp = synthetic_decomposition(rng.standard_normal((2, n)))
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
        _, decomp = store.get(10, k)
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
    vectors = rng.standard_normal((2, 130))
    vectors[0, 50:100] = 0.125
    decomp = synthetic_decomposition(vectors)
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
    basis, decomp = store.get(10, 1)
    edges = windows_fixed_count(decomp.energies, 40)
    sym = 17
    weights = np.abs(decomp.vectors[sym, :]) ** 2
    direct = window_means(weights, edges)
    strength_path = np.add.reduceat(weights[: edges[-1]], edges[:-1]) / np.diff(edges)
    assert direct == pytest.approx(strength_path, rel=1e-14)


def test_coefficient_samples_real_vs_complex(store):
    basis0, decomp0 = store.get(10, 0)
    s0 = coefficient_samples(decomp0, 5, np.arange(decomp0.dim))
    assert s0.size == decomp0.dim  # real sector: one sample per state
    basis1, decomp1 = store.get(10, 1)
    s1 = coefficient_samples(decomp1, 5, np.arange(decomp1.dim))
    assert s1.size == 2 * decomp1.dim  # complex sector: re and im parts


def test_coefficient_samples_follow_the_sector_not_the_data():
    # a complex sector (k = 1 of N = 4) whose symbol row happens to be real
    # still gives real and imaginary parts; a real sector (k = 2 = N/2) does not
    rng = np.random.default_rng(5)
    vectors = rng.standard_normal((3, 12))
    for k, n_samples in ((1, 24), (2, 12), (0, 12)):
        decomp = synthetic_decomposition(vectors, k=k)
        assert coefficient_samples(decomp, 1, slice(0, 12)).size == n_samples


def test_strength_function_weight_and_sum_rules(store):
    basis, decomp = store.get(10, 2)
    params = ModelParams(10, 1.0, 1.0)
    matrix = build_sector_hamiltonian(basis, params).entries
    for sym in (0, 11, 53):
        edges, density = empirical_strength_function(decomp, sym, bins=50)
        total = np.sum(density * np.diff(edges))
        assert abs(total - 1.0) < 1e-10
        emp = strength_moments(decomp, sym, order=4)
        ref = sector_state_moments(matrix, sym, order=4)
        assert np.max(np.abs(emp - ref) / np.maximum(np.abs(ref), 1.0)) < 1e-8


def test_strength_function_centers_on_diagonal_at_strong_field(store):
    params = ModelParams(10, 5.0, 1.0)
    basis = momentum_basis(10, 1)
    decomp = diagonalize(basis, sector_elements(basis, params), params)
    sym = 3
    e_n = params.lam * (10 - 2 * int(basis.reps[sym]).bit_count())
    mean_e = strength_moments(decomp, sym, order=1)[0]
    sigma = np.sqrt(10 * (1 + 1.0))
    assert abs(mean_e - e_n) < sigma


def test_strength_completeness(store):
    # summing |C|^2 over all symbols turns the strength function into the
    # plain spectral measure
    basis, decomp = store.get(10, 3)
    total = np.sum(np.abs(decomp.vectors) ** 2, axis=0)
    assert total == pytest.approx(np.ones(decomp.dim), abs=1e-10)


def test_participation_ratio_synthetic():
    aligned = np.zeros((4, 1), dtype=complex)
    aligned[2, 0] = 1.0
    pr = empirical_participation_ratio(synthetic_decomposition(aligned, [0.0]))
    assert pr[0] == pytest.approx(1.0)
    uniform = np.full((8, 1), np.sqrt(1 / 8), dtype=complex)
    pr = empirical_participation_ratio(synthetic_decomposition(uniform, [0.0]))
    assert pr[0] == pytest.approx(8.0)


def _peak_bytes(fn, *args):
    import tracemalloc

    tracemalloc.start()
    fn(*args)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak


def _unchunked_moment_sums(vectors, q):
    """Whole-matrix oracle of the kernel's formula: sum_n (Re^2 + Im^2)^q."""
    p = vectors.real**2 + vectors.imag**2
    return np.sum(p * p if q == 2 else p**q, axis=0)


def test_chunked_participation_ratio_is_exact_and_small(store):
    basis, decomp = store.get(12, 1)
    rows = eigensolve.MOMENT_CHUNK_ROWS
    assert decomp.dim > rows and decomp.dim % rows  # several blocks, the last one short
    pr = empirical_participation_ratio(decomp)
    # exact against the same formula summed without chunks
    assert np.array_equal(pr, 1.0 / _unchunked_moment_sums(decomp.vectors, 2.0))
    # and within rounding of the plain |C|^4 sum
    np.testing.assert_allclose(
        pr, 1.0 / np.sum(np.abs(decomp.vectors) ** 4, axis=0), rtol=1e-14, atol=0
    )
    assert _peak_bytes(empirical_participation_ratio, decomp) < 0.5 * decomp.vectors.nbytes


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0])
def test_chunked_state_moment_sums_are_exact_and_small(store, q):
    basis, decomp = store.get(12, 1)
    sums = state_moment_sums(decomp.vectors, q)
    if q == 1.0:  # each eigenstate is normalized
        assert sums == pytest.approx(np.ones(decomp.dim), abs=1e-12)
    assert np.array_equal(sums, _unchunked_moment_sums(decomp.vectors, q))
    np.testing.assert_allclose(
        sums, np.sum(np.abs(decomp.vectors) ** (2 * q), axis=0), rtol=1e-14, atol=0
    )
    assert _peak_bytes(state_moment_sums, decomp.vectors, q) < 0.5 * decomp.vectors.nbytes


def test_state_moment_sums_of_real_vectors(store):
    # the kernel skips the imaginary part of real storage
    basis, decomp = store.get(10, 0)
    real = EigenDecomposition(
        params=decomp.params, k=0, energies=decomp.energies, vectors=decomp.vectors.real.copy()
    )
    for q in (1.5, 2.0, 3.0):
        assert np.array_equal(
            state_moment_sums(real.vectors, q), _unchunked_moment_sums(real.vectors, q)
        )


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
    rows, parity = basis.real_layout.rows, basis.real_layout.parity
    single = np.isin(rows, invariant)
    assert np.array_equal(parity[single], np.diag(s_op).real[rows[single]])
    assert not momentum_basis(8, 3).real_layout.parity.any()


def test_split_by_parity_counts(store):
    basis, decomp = store.get(12, 0)
    plus = np.flatnonzero(decomp.parity == 1)
    minus = np.flatnonzero(decomp.parity == -1)
    assert plus.size + minus.size == decomp.dim
    assert plus.size == (basis.dim + basis.n_invariant) // 2
    assert minus.size == (basis.dim - basis.n_invariant) // 2
    s_op = inversion_matrix(basis)
    expect = np.real(np.sum(decomp.vectors.conj() * (s_op @ decomp.vectors), axis=0))
    assert np.max(np.abs(expect - decomp.parity)) < 1e-6


def test_inversion_blocks_reproduce_sector_spectrum(store):
    basis = momentum_basis(10, 0)
    params = ModelParams(10, 1.0, 1.0)
    matrix = build_sector_hamiltonian(basis, params)
    blocks = element_blocks(basis, sector_elements(basis, params), np.zeros(basis.dim, dtype=int))
    assert sorted(blocks) == [(0, -1), (0, 1)]
    assert blocks[0, 1].shape[0] == (basis.dim + basis.n_invariant) // 2
    union = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in blocks.values()]))
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
        union = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in blocks.values()]))
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
    vectors = np.eye(200, dtype=complex)
    decomp = synthetic_decomposition(vectors, energies)
    edges = windows_fixed_count(energies, 20)
    grid = np.linspace(0, 1, 50)
    pr = empirical_participation_ratio(decomp)  # every state is a basis state: Pr = 1
    report = compare(grid, np.ones(50), energies, pr, edges, bulk_fraction=0.6)
    assert report.bulk_median == 0.0
    assert report.in_bulk.sum() == 6  # central 60% of ten 20-level windows
