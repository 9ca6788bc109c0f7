"""Empirical eigenvector statistics: windowing, strength functions, spacing."""

import numpy as np
import pytest

from isingchaos.eigensolve import EigenDecomposition, diagonalize
from isingchaos.empirics import (
    GOE_MEAN_R,
    POISSON_MEAN_R,
    compare,
    coefficient_samples,
    empirical_moments,
    empirical_participation_ratio,
    empirical_strength_function,
    goe_surrogate_levels,
    poisson_surrogate_levels,
    sector_state_moments,
    spacing_ratio,
    state_moment_sums,
    strength_moments,
    windowed_coefficient_stats,
    windows_fixed_count,
    windows_fixed_width,
)
from isingchaos.hamiltonian import ModelParams, build_sector_hamiltonian, symmetry_blocks
from isingchaos.spin_basis import momentum_basis
from parity_oracle import inversion_matrix


def synthetic_decomposition(vectors: np.ndarray, energies=None) -> EigenDecomposition:
    n_states = vectors.shape[1]
    if energies is None:
        energies = np.arange(n_states, dtype=float)
    return EigenDecomposition(
        params=ModelParams(2, 0.0, 0.0),
        k=0,
        energies=np.asarray(energies, dtype=float),
        vectors=np.asarray(vectors, dtype=np.complex128),
    )


def test_windows_fixed_count():
    energies = np.linspace(0, 1, 103)
    windows = windows_fixed_count(energies, 25)
    assert [w.size for w in windows] == [25, 25, 25, 25, 3]
    assert [w.short for w in windows] == [False, False, False, False, True]
    covered = np.concatenate([w.indices for w in windows])
    assert sorted(covered) == list(range(103))
    with pytest.raises(ValueError):
        windows_fixed_count(energies, 1)


def test_windows_fixed_width():
    energies = np.concatenate([np.linspace(0, 1, 50), [5.0]])
    windows = windows_fixed_width(energies, 0.25)
    assert all(w.size >= 2 for w in windows)
    assert all(w.hi - w.lo == pytest.approx(0.25) for w in windows)
    # the last bin is closed on the right, as in np.histogram: no top level is lost
    windows = windows_fixed_width(np.array([0.0, 1.0, 2.0, 3.0]), 1.5)
    assert [w.indices.tolist() for w in windows] == [[0, 1], [2, 3]]
    with pytest.raises(ValueError):
        windows_fixed_width(energies, 0.0)


def test_window_stats_on_true_gaussian_samples():
    rng = np.random.default_rng(123)
    dim = 3000
    vectors = rng.standard_normal((4, dim)) * 0.01
    decomp = synthetic_decomposition(vectors)
    windows = windows_fixed_count(decomp.energies, dim)
    stats = windowed_coefficient_stats(decomp, 1, windows)[0]
    assert not stats.insufficient
    assert stats.mean == pytest.approx(0.0, abs=4 * 0.01 / np.sqrt(dim))
    assert stats.variance == pytest.approx(1e-4, rel=0.1)
    assert 0.5 < stats.chi2_reduced < 1.5


def test_window_stats_insufficient_flag():
    rng = np.random.default_rng(1)
    decomp = synthetic_decomposition(rng.standard_normal((3, 20)))
    windows = windows_fixed_count(decomp.energies, 20)
    stats = windowed_coefficient_stats(decomp, 0, windows)[0]
    assert stats.insufficient


def test_variance_estimators_agree(store):
    # window-mean |C|^2 and the averaged-strength-function construction are
    # the same sum; both paths must agree identically
    basis, decomp = store.get(10, 1)
    windows = windows_fixed_count(decomp.energies, 40)
    sym = 17
    weights = np.abs(decomp.vectors[sym, :]) ** 2
    for w in windows:
        direct = weights[w.indices].mean()
        strength_path = weights[w.indices].sum() / w.size
        assert direct == pytest.approx(strength_path, rel=1e-14)


def test_coefficient_samples_real_vs_complex(store):
    basis0, decomp0 = store.get(10, 0)
    s0 = coefficient_samples(decomp0, 5, np.arange(decomp0.dim))
    assert s0.size == decomp0.dim  # real sector: one sample per state
    basis1, decomp1 = store.get(10, 1)
    s1 = coefficient_samples(decomp1, 5, np.arange(decomp1.dim))
    assert s1.size == 2 * decomp1.dim  # complex sector: re and im parts


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
    decomp = diagonalize(build_sector_hamiltonian(basis, params))
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
    _, pr = empirical_participation_ratio(synthetic_decomposition(aligned, [0.0]))
    assert pr[0] == pytest.approx(1.0)
    uniform = np.full((8, 1), np.sqrt(1 / 8), dtype=complex)
    _, pr = empirical_participation_ratio(synthetic_decomposition(uniform, [0.0]))
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
    from isingchaos import empirics

    basis, decomp = store.get(12, 1)
    rows = empirics.MOMENT_CHUNK_ROWS
    assert decomp.dim > rows and decomp.dim % rows  # several blocks, the last one short
    _, pr = empirical_participation_ratio(decomp)
    # exact against the same formula summed without chunks
    assert np.array_equal(pr, 1.0 / _unchunked_moment_sums(decomp.vectors, 2.0))
    # and within rounding of the plain |C|^4 sum
    np.testing.assert_allclose(
        pr, 1.0 / np.sum(np.abs(decomp.vectors) ** 4, axis=0), rtol=1e-14, atol=0
    )
    assert _peak_bytes(empirical_participation_ratio, decomp) < 0.5 * decomp.vectors.nbytes


@pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
def test_chunked_state_moment_sums_are_exact_and_small(store, q):
    basis, decomp = store.get(12, 1)
    sums = state_moment_sums(decomp, q)
    assert np.array_equal(sums, _unchunked_moment_sums(decomp.vectors, q))
    np.testing.assert_allclose(
        sums, np.sum(np.abs(decomp.vectors) ** (2 * q), axis=0), rtol=1e-14, atol=0
    )
    assert _peak_bytes(state_moment_sums, decomp, q) < 0.5 * decomp.vectors.nbytes


def test_state_moment_sums_of_real_vectors(store):
    # the kernel skips the imaginary part of real storage
    basis, decomp = store.get(10, 0)
    real = EigenDecomposition(
        params=decomp.params, k=0, energies=decomp.energies, vectors=decomp.vectors.real.copy()
    )
    for q in (1.5, 2.0, 3.0):
        assert np.array_equal(
            state_moment_sums(real, q), _unchunked_moment_sums(real.vectors, q)
        )


def test_participation_ratio_bounds(store):
    basis, decomp = store.get(10, 1)
    _, pr = empirical_participation_ratio(decomp)
    assert np.all(pr >= 1.0 - 1e-9)
    assert np.all(pr <= decomp.dim + 1e-9)


def test_empirical_moments_q1_is_one(store):
    basis, decomp = store.get(10, 2)
    windows = windows_fixed_count(decomp.energies, 30)
    m1 = empirical_moments(decomp, 1.0, windows)
    assert m1 == pytest.approx(np.ones(len(windows)), abs=1e-12)
    with pytest.raises(ValueError):
        empirical_moments(decomp, 0.5, windows)


def test_empirical_moments_q2_vs_participation(store):
    basis, decomp = store.get(10, 2)
    windows = windows_fixed_count(decomp.energies, 30)
    m2 = empirical_moments(decomp, 2.0, windows)
    _, pr = empirical_participation_ratio(decomp)
    for w, m in zip(windows, m2):
        assert m == pytest.approx(np.mean(1.0 / pr[w.indices]), rel=1e-12)


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
    res = spacing_ratio(doubled, bulk_fraction=1.0)
    assert res.n_excluded == pytest.approx(base.size, abs=2)
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
    blocks = symmetry_blocks(matrix, np.zeros(basis.dim, dtype=int))
    assert sorted(blocks) == [(0, -1), (0, 1)]
    assert blocks[0, 1].shape[0] == (basis.dim + basis.n_invariant) // 2
    union = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in blocks.values()]))
    full = np.sort(np.linalg.eigvalsh(matrix.entries))
    assert np.max(np.abs(union - full)) < 1e-9


def test_z_parity_blocks_at_zero_longitudinal_field():
    for k in (0, 3, 4):
        basis = momentum_basis(8, k)
        matrix = build_sector_hamiltonian(basis, ModelParams(8, 1.0, 0.0))
        signs = (-1) ** (8 - basis.n_up)
        blocks = symmetry_blocks(matrix, signs)
        parities = [0] if k == 3 else [1, -1]
        assert list(blocks) == [(z, p) for z in (1, -1) for p in parities]
        union = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in blocks.values()]))
        assert np.max(np.abs(union - np.sort(np.linalg.eigvalsh(matrix.entries)))) < 1e-9
        # at a nonzero longitudinal field z-parity is broken and the check says so
        with pytest.raises(ValueError, match="couples"):
            symmetry_blocks(build_sector_hamiltonian(basis, ModelParams(8, 1.0, 0.5)), signs)


def test_compare_identical_and_offset(store):
    basis, decomp = store.get(10, 1)
    windows = windows_fixed_count(decomp.energies, 25)
    _, pr = empirical_participation_ratio(decomp)
    emp = np.array([pr[w.indices].mean() for w in windows])
    grid = np.array([w.center for w in windows])
    exact = emp.copy()
    report = compare(grid, exact, windows, emp, decomp.dim)
    assert report.bulk_median == pytest.approx(0.0, abs=1e-12)
    report_off = compare(grid, exact, windows, emp * 1.10, decomp.dim)
    assert report_off.bulk_median == pytest.approx(0.10, rel=1e-6)
    flagged = [r for r in report.rows if not r.in_bulk]
    assert flagged  # edge windows are flagged, not dropped
    with pytest.raises(ValueError):
        compare(grid + 1e6, exact, windows, emp, decomp.dim)


def test_compare_bulk_fraction():
    energies = np.linspace(0, 1, 200)
    vectors = np.eye(200, dtype=complex)
    decomp = synthetic_decomposition(vectors, energies)
    windows = windows_fixed_count(energies, 20)
    emp = np.ones(len(windows))
    grid = np.linspace(0, 1, 50)
    report = compare(grid, np.ones(50), windows, emp, 200, bulk_fraction=0.6)
    in_bulk = [r.in_bulk for r in report.rows]
    assert sum(in_bulk) == 6  # central 60% of ten 20-level windows
