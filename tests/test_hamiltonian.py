"""Hamiltonian assembly: full product basis vs momentum sectors."""

import tracemalloc

import numpy as np
import pytest

from isingchaos.hamiltonian import (
    FULL_BASIS_MAX_SITES,
    ChainSizeError,
    ModelParams,
    build_full_hamiltonian,
    build_sector_hamiltonian,
    element_blocks,
    sector_elements,
)
from isingchaos.spin_basis import momentum_basis
from oracles import (
    from_real,
    hermiticity_defect,
    labelled_blocks,
    real_basis_matrix,
    rotate_left,
    scattered_blocks,
    symmetry_blocks,
    to_real,
)
from parity_oracle import inversion_matrix


def test_two_site_matrix_explicit():
    # hand-built 4x4 for the literal periodic sum (the n=1 and n=2 bond terms
    # coincide on two sites, so the flip amplitude doubles)
    h = build_full_hamiltonian(ModelParams(2, 1.0, 0.0)).toarray()
    expected = np.array(
        [
            [2.0, 0.0, 0.0, -2.0],
            [0.0, 0.0, -2.0, 0.0],
            [0.0, -2.0, 0.0, 0.0],
            [-2.0, 0.0, 0.0, -2.0],
        ]
    )
    assert np.array_equal(h, expected)
    spectrum = np.linalg.eigvalsh(h)
    assert spectrum == pytest.approx([-2 * np.sqrt(2), -2.0, 2.0, 2 * np.sqrt(2)])


@pytest.mark.parametrize("n_sites", [3, 5, 8, 10])
def test_trace_identities(n_sites):
    params = ModelParams(n_sites, 0.7, 1.3)
    h = build_full_hamiltonian(params)
    assert abs(h.diagonal().sum()) < 1e-9
    tr2 = (h @ h).diagonal().sum() / 2**n_sites
    expected = n_sites * (1 + params.lam**2 + params.alpha**2)
    assert tr2 == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("n_sites", [3, 4, 6])
def test_row_structure(n_sites):
    h = build_full_hamiltonian(ModelParams(n_sites, 0.9, 0.4)).tocsr()
    for row in range(2**n_sites):
        cols = h.indices[h.indptr[row] : h.indptr[row + 1]]
        assert row in cols
        assert len(cols) == 1 + 2 * n_sites  # distinct flip targets for N >= 3


def test_two_site_row_structure_merges_coincidences():
    h = build_full_hamiltonian(ModelParams(2, 1.0, 0.5)).tocsr()
    for row in range(4):
        cols = h.indices[h.indptr[row] : h.indptr[row + 1]]
        assert len(cols) == 4  # diagonal + merged double-bond target + 2 flips


def orbit_period(rep: int, n_sites: int) -> int:
    return next(j for j in range(1, n_sites + 1) if rotate_left(rep, n_sites, j) == rep)


def same_orbit(a: int, b: int, n_sites: int) -> bool:
    return any(rotate_left(a, n_sites, j) == b for j in range(n_sites))


def embedded_momentum_state(rep: int, k: int, n_sites: int) -> np.ndarray:
    """Oracle: the plane-wave state as an explicit product-basis vector."""
    period = orbit_period(rep, n_sites)
    v = np.zeros(1 << n_sites, dtype=np.complex128)
    for j in range(period):
        v[rotate_left(rep, n_sites, j)] += np.exp(-2j * np.pi * k * j / n_sites) / np.sqrt(period)
    return v


@pytest.mark.parametrize("lam,alpha", [(1.7, 0.3), (0.0, 0.0), (1.0, 1.0)])
@pytest.mark.parametrize("n_sites,k", [(6, 0), (6, 1), (6, 3), (7, 2)])
def test_sector_elements_match_embedded_states(n_sites, k, lam, alpha):
    """Element-wise oracle: <r'_k| H |r_k> computed in the full product space."""
    params = ModelParams(n_sites, lam, alpha)
    basis = momentum_basis(n_sites, k)
    sector = build_sector_hamiltonian(basis, params)
    h_full = build_full_hamiltonian(params).toarray()
    vecs = np.column_stack(
        [embedded_momentum_state(rep, k, n_sites) for rep in basis.reps.tolist()]
    )
    oracle = vecs.conj().T @ h_full @ vecs
    assert np.max(np.abs(sector.entries - oracle)) < 1e-12


def test_diagonal_rule():
    params = ModelParams(7, 1.7, 0.3)
    h = build_full_hamiltonian(params)
    diag = h.diagonal()
    for s in range(1 << 7):
        assert diag[s] == pytest.approx(params.lam * (7 - 2 * s.bit_count()))
    # in a momentum sector the E_n rule holds for orbits that no Hamiltonian
    # term maps back onto themselves (bond terms hop lone spins around their
    # own orbit, adding a dispersion term on top of E_n for those states)
    basis = momentum_basis(7, 1)
    sector = build_sector_hamiltonian(basis, params)
    for i, rep in enumerate(basis.reps.tolist()):
        targets = [rep ^ ((1 << j) | (1 << ((j + 1) % 7))) for j in range(7)]
        targets += [rep ^ (1 << j) for j in range(7)]
        if not any(same_orbit(t, rep, 7) for t in targets):
            assert sector.entries[i, i].real == pytest.approx(
                params.lam * (7 - 2 * rep.bit_count())
            )
        assert abs(sector.entries[i, i].imag) < 1e-12


def test_full_basis_size_guard():
    with pytest.raises(ChainSizeError):
        build_full_hamiltonian(ModelParams(FULL_BASIS_MAX_SITES + 1, 1.0, 1.0))


def test_sector_params_mismatch():
    basis = momentum_basis(6, 0)
    with pytest.raises(ValueError):
        build_sector_hamiltonian(basis, ModelParams(7, 1.0, 1.0))


def test_zero_fields_sector_diagonal():
    # with both fields off the E_n contribution vanishes; what survives on
    # the diagonal is exactly the bond term's own-orbit hopping, so states
    # without such self-coupling must sit at 0
    params = ModelParams(6, 0.0, 0.0)
    for k in range(6):
        basis = momentum_basis(6, k)
        sector = build_sector_hamiltonian(basis, params)
        for i, rep in enumerate(basis.reps.tolist()):
            targets = [rep ^ ((1 << j) | (1 << ((j + 1) % 6))) for j in range(6)]
            if not any(same_orbit(t, rep, 6) for t in targets):
                assert sector.entries[i, i] == 0.0


def test_sector_eigenvalues_subset_of_full_spectrum():
    params = ModelParams(5, 1.0, 1.0)
    basis = momentum_basis(5, 0)
    sector = build_sector_hamiltonian(basis, params)
    assert sector.dim == 8
    sector_e = np.linalg.eigvalsh(sector.entries)
    full_e = np.linalg.eigvalsh(build_full_hamiltonian(params).toarray())
    for e in sector_e:
        assert np.min(np.abs(full_e - e)) < 1e-9


@pytest.mark.parametrize("lam,alpha", [(1.0, 1.0), (0.6, 1.4)])
def test_sector_union_equals_full_spectrum(lam, alpha):
    n_sites = 8
    params = ModelParams(n_sites, lam, alpha)
    full = np.sort(np.linalg.eigvalsh(build_full_hamiltonian(params).toarray()))
    collected = []
    for k in range(n_sites):
        sector = build_sector_hamiltonian(momentum_basis(n_sites, k), params)
        assert hermiticity_defect(sector.entries) < 1e-12
        collected.append(np.linalg.eigvalsh(sector.entries))
    union = np.sort(np.concatenate(collected))
    assert union.shape == full.shape
    assert np.max(np.abs(union - full)) < 1e-9


def test_opposite_momenta_share_spectra():
    params = ModelParams(8, 1.0, 1.0)
    for k in (1, 2, 3):
        a = np.sort(
            np.linalg.eigvalsh(build_sector_hamiltonian(momentum_basis(8, k), params).entries)
        )
        b = np.sort(
            np.linalg.eigvalsh(
                build_sector_hamiltonian(momentum_basis(8, 8 - k), params).entries
            )
        )
        assert np.max(np.abs(a - b)) < 1e-9


def test_zero_momentum_sector_is_real():
    sector = build_sector_hamiltonian(momentum_basis(6, 0), ModelParams(6, 1.0, 1.0))
    assert np.max(np.abs(sector.entries.imag)) == 0.0
    # half-momentum sector of an even chain is real as well
    sector_half = build_sector_hamiltonian(momentum_basis(6, 3), ModelParams(6, 1.0, 1.0))
    assert np.max(np.abs(sector_half.entries.imag)) < 1e-15


def conjugation_matrix(basis) -> np.ndarray:
    """The unitary part M of A = M K, from the basis's inversion x conjugation map."""
    m = np.zeros((basis.dim, basis.dim), dtype=np.complex128)
    m[basis.partner, np.arange(basis.dim)] = np.exp(1j * basis.angle)
    return m


@pytest.mark.parametrize("lam,alpha", [(1.0, 1.0), (0.6, 0.0)])
@pytest.mark.parametrize("n_sites", [6, 7, 8])
def test_sector_commutes_with_inversion_conjugation(n_sites, lam, alpha):
    for k in range(n_sites):
        sector = build_sector_hamiltonian(momentum_basis(n_sites, k), ModelParams(n_sites, lam, alpha))
        m = conjugation_matrix(sector.basis)
        assert np.max(np.abs(m @ m.conj() - np.eye(sector.dim))) < 1e-15  # A^2 = 1
        assert np.max(np.abs(m @ sector.entries.conj() - sector.entries @ m)) < 1e-12


@pytest.mark.parametrize("n_sites,k", [(7, 0), (7, 3), (8, 2), (8, 4), (9, 4)])
def test_real_basis_is_unitary_and_invariant(n_sites, k):
    basis = momentum_basis(n_sites, k)
    sector = build_sector_hamiltonian(basis, ModelParams(n_sites, 1.0, 1.0))
    u = from_real(basis, np.eye(basis.dim))
    assert np.max(np.abs(u.conj().T @ u - np.eye(basis.dim))) < 1e-14
    assert np.max(np.abs(np.sum(u != 0, axis=0) - 1.5)) <= 0.5  # one or two nonzeros per column
    assert np.all(np.diag(u) != 0)  # plane-wave order: column a belongs to state a
    # the same U, row by row from its nonzeros
    col, coef = basis.real_entries()
    from_entries = np.zeros_like(u)
    for j in (0, 1):
        np.add.at(from_entries, (np.arange(basis.dim), col[:, j]), coef[:, j])
    assert coef.dtype == u.dtype and np.max(np.abs(from_entries - u)) < 1e-15
    # A maps each column onto itself, times its inversion parity where there is one
    parity = basis.column_parity
    sign = np.where(parity < 0, -1.0, 1.0)
    assert np.max(np.abs(conjugation_matrix(basis) @ u.conj() - u * sign)) < 1e-14
    # the oracle's U, built column by column from the class docstring, is the same U
    assert np.max(np.abs(real_basis_matrix(basis) - u)) < 1e-15
    g = to_real(basis, sector.entries)
    assert np.max(np.abs(g - u.conj().T @ sector.entries @ u)) < 1e-12
    assert np.max(np.abs(g.imag)) < 1e-12
    if not basis.is_real:
        assert 2 * k % n_sites != 0 and not parity.any()
        return
    # k = 0, N/2: the parity basis is real orthogonal and splits h into two blocks
    assert 2 * k % n_sites == 0 and u.dtype == g.dtype == np.float64
    even = parity == 1
    assert np.all(parity[~even] == -1)
    assert np.max(np.abs(g[np.ix_(even, ~even)])) < 1e-12
    assert symmetry_blocks(sector)[0, 1].shape[0] == np.count_nonzero(even)


@pytest.mark.parametrize("n_sites,k", [(8, 4), (10, 0), (10, 5)])
def test_column_parities_match_inversion_oracle(n_sites, k):
    basis = momentum_basis(n_sites, k)
    u = from_real(basis, np.eye(basis.dim))
    # the real basis diagonalizes the state-by-state inversion, with the column parities as signs
    rotated = u.T @ inversion_matrix(basis) @ u
    signs = np.diag(rotated).real
    assert np.max(np.abs(rotated - np.diag(signs))) < 1e-14
    assert np.array_equal(np.sign(signs), basis.column_parity)
    assert np.max(np.abs(np.abs(signs) - 1)) < 1e-14


@pytest.mark.parametrize("n_sites", [12, 14])
def test_from_real_adds_at_most_two_and_a_half_units(n_sites):
    # the oracle's V = U W is complex at k = 1, 2 units of 8 D^2 bytes; the chunks of rows add little beside it
    basis = momentum_basis(n_sites, 1)
    w = np.random.default_rng(0).standard_normal((basis.dim, basis.dim))
    tracemalloc.start()
    try:
        v = from_real(basis, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 8 * basis.dim**2
    assert np.max(np.abs(v - real_basis_matrix(basis) @ w)) < 1e-12


@pytest.mark.parametrize("n_sites", [6, 7, 8, 9, 10])
def test_element_blocks_match_dense_blocks(n_sites):
    for k in range(n_sites):
        basis = momentum_basis(n_sites, k)
        # off the integrable line without labels, on it with the z-parity labels
        for alpha, labels in ((1.1, None), (0.0, (-1) ** (n_sites - basis.n_up))):
            params = ModelParams(n_sites, 0.9, alpha)
            matrix = build_sector_hamiltonian(basis, params)
            want = symmetry_blocks(matrix) if labels is None else labelled_blocks(matrix, labels)
            got = element_blocks(basis, sector_elements(basis, params), labels)
            assert list(got) == list(want)
            for key, block in want.items():
                columns, entries, trace, frob2 = got[key]
                assert entries.dtype == np.float64 and entries.shape == block.shape
                assert np.max(np.abs(entries - block), initial=0.0) < 1e-13
                # tr B and |B|_F^2, summed from the block's elements
                assert abs(trace - np.trace(entries)) <= 1e-13 * max(1.0, frob2)
                assert abs(frob2 - np.sum(entries**2)) <= 1e-13 * max(1.0, frob2)
                # the block's columns of U: those of its key, ascending
                label = 0 if labels is None else labels[columns]
                assert np.all(label == key[0]) and np.all(basis.column_parity[columns] == key[1])
                assert np.all(np.diff(columns) > 0)
            assert np.array_equal(np.sort(np.concatenate([b.columns for b in got.values()])), np.arange(basis.dim))


@pytest.mark.parametrize("n_sites", [8, 9, 10, 11, 12])
@pytest.mark.parametrize("labelled", [False, True])
def test_element_blocks_are_exactly_symmetric(n_sites, labelled):
    # LAPACK reads one triangle, the sum rules the whole block: both must see one matrix
    for k in range(n_sites):
        basis = momentum_basis(n_sites, k)
        labels = (-1) ** (n_sites - basis.n_up) if labelled else None
        params = ModelParams(n_sites, 0.9, 0.0 if labelled else 1.1)
        matrix = build_sector_hamiltonian(basis, params)
        want = labelled_blocks(matrix, labels) if labelled else symmetry_blocks(matrix)
        got = element_blocks(basis, sector_elements(basis, params), labels)
        assert list(got) == list(want)
        for key, (_, entries, *_) in got.items():
            assert np.array_equal(entries, entries.T), (k, key)
            assert np.max(np.abs(entries - (want[key] + want[key].T) / 2), initial=0.0) < 1e-14, (k, key)


@pytest.mark.parametrize("n_sites", [6, 7, 8, 9, 10])
def test_element_blocks_equal_the_scattered_list_bit_for_bit(n_sites):
    # one sort of the list by inversion pairs adds every entry's terms in the order of a
    # scatter of the summed list, so the blocks keep their bits, also in complex storage
    for k in range(n_sites):
        basis = momentum_basis(n_sites, k)
        for alpha, labels in ((1.1, None), (0.0, (-1) ** (n_sites - basis.n_up))):
            elements = sector_elements(basis, ModelParams(n_sites, 0.9, alpha))
            stored = [elements, elements._replace(values=elements.values.astype(np.complex128))]
            for elements in stored[: 1 + basis.is_real]:
                want = scattered_blocks(basis, elements, labels)
                got = element_blocks(basis, elements, labels)
                assert list(got) == list(want)
                for key, block in want.items():
                    assert np.array_equal(got[key].entries.view(np.uint64), block.view(np.uint64)), (k, key)
