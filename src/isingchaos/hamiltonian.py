"""Ising chain in transverse and longitudinal fields, periodic boundaries.

H = -sum_j sx_j sx_{j+1} - lam * sum_j sz_j - alpha * sum_j sx_j,  site N+1 = 1.

Two assembly paths: a sparse matrix over the full product basis (small chains,
used as an oracle) and, in fixed translation-momentum sectors (production
path), one element list per sector, real at k = 0 and k = N/2 and complex
elsewhere.

Every sector block commutes with the antiunitary A = (inversion) x (complex
conjugation), so it is real symmetric in an A-invariant basis, which the
sector's ``MomentumBasis`` owns.  ``element_blocks`` checks the element list
(hermiticity, and in the real basis a vanishing imaginary part and no
coupling between blocks) and maps it straight into those real blocks, which
both solvers of ``eigensolve`` read; no CLI command forms the dense
plane-wave block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .spin_basis import ChainSizeError, MomentumBasis, popcount

FULL_BASIS_MAX_SITES = 14
# pre-solve checks: |h - h^dagger|, and the imaginary part and the coupling of
# the symmetry blocks in the real basis, each relative to max(1, max|h|)
HERMITICITY_TOL = 1e-12


class NonHermitianError(ValueError):
    """Input matrix fails the Hermiticity tolerance."""


class SymmetryBreakingError(NonHermitianError):
    """Input matrix does not commute with the symmetry it carries."""


@dataclass(frozen=True)
class ModelParams:
    """Chain length and the two field strengths."""

    n_sites: int
    lam: float
    alpha: float

    def __post_init__(self):
        if self.n_sites < 2:
            raise ChainSizeError("need at least 2 sites")
        if not (np.isfinite(self.lam) and np.isfinite(self.alpha)):
            raise ValueError("fields must be finite")


def diagonal_energy(params: ModelParams, n_up) -> np.ndarray | float:
    """Diagonal matrix element for a configuration with ``n_up`` spins up."""
    return params.lam * (params.n_sites - 2 * np.asarray(n_up, dtype=float))


def build_full_hamiltonian(params: ModelParams) -> "scipy.sparse.csr_matrix":
    """Sparse real-symmetric Hamiltonian over all 2^N configurations."""
    from scipy import sparse  # imported here: only this oracle needs SciPy

    n = params.n_sites
    if n > FULL_BASIS_MAX_SITES:
        raise ChainSizeError(
            f"full-basis assembly capped at N={FULL_BASIS_MAX_SITES} (got {n})"
        )
    size = 1 << n
    states = np.arange(size, dtype=np.int64)
    diag = diagonal_energy(params, popcount(states, n))

    rows = [states]
    cols = [states]
    data = [diag]
    for j in range(n):
        bond = (1 << j) | (1 << ((j + 1) % n))
        rows.append(states ^ bond)
        cols.append(states)
        data.append(np.full(size, -1.0))
    for j in range(n):
        rows.append(states ^ (1 << j))
        cols.append(states)
        data.append(np.full(size, -params.alpha))
    mat = sparse.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(size, size),
    )
    return mat.tocsr()


@dataclass
class SectorMatrix:
    """Dense Hamiltonian block at fixed translation momentum.

    ``entries`` is the block over the plane-wave states of ``basis``.  No
    command reads it: it stays here, with ``build_sector_hamiltonian``, for
    the benchmark's ``check_spacing``, which reads ``entries`` for tr H and
    |H|_F^2, and for the tests' dense references.
    """

    params: ModelParams
    basis: MomentumBasis
    entries: np.ndarray

    @property
    def k(self) -> int:
        return self.basis.k

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


class SectorElements(NamedTuple):
    """Matrix elements of a sector block over its plane-wave states.

    The block is the sum of ``values[i]`` at (``rows[i]``, ``cols[i]``);
    a (row, col) pair may appear more than once.
    """

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray


def _element_chunks(basis: MomentumBasis, params: ModelParams):
    """The elements of ``sector_elements`` as (rows, cols, values) chunks: the diagonal, then each flip."""
    n = params.n_sites
    if basis.n_sites != n:
        raise ValueError("basis and params disagree on the chain length")

    reps = basis.reps
    periods = basis.periods.astype(np.float64)
    rep_index, shift = basis.config_lookup()

    phases = np.exp(2j * np.pi * basis.k * np.arange(n) / n)
    if basis.is_real:
        phases = phases.real  # exactly +-1
    states = np.arange(basis.dim)
    yield states, states, diagonal_energy(params, basis.n_up)
    flips = [((1 << j) | (1 << ((j + 1) % n)), -1.0) for j in range(n)]
    flips += [(1 << j, -params.alpha) for j in range(n)]
    for mask, coeff in flips:
        targets = reps ^ mask
        rows = rep_index[targets]
        valid = rows >= 0
        r, c = rows[valid], states[valid]
        yield r, c, coeff * np.sqrt(periods[c] / periods[r]) * phases[shift[targets[valid]] % n]


def sector_elements(basis: MomentumBasis, params: ModelParams) -> SectorElements:
    """The elements of the momentum-sector Hamiltonian in the given orbit basis.

    The diagonal comes first, one element per state in basis order, then the
    elements of each bond flip and each single-site flip in site order.  Each
    flip maps a representative onto some configuration b; the matrix element
    picks up sqrt(t_a / t_b) times the plane-wave phase of the shift locating
    b inside its own orbit.  The values are float64 where ``basis.is_real``
    (every phase is +-1) and complex128 elsewhere.
    """
    rows, cols, values = zip(*_element_chunks(basis, params))
    return SectorElements(np.concatenate(rows), np.concatenate(cols), np.concatenate(values))


def build_sector_hamiltonian(basis: MomentumBasis, params: ModelParams) -> SectorMatrix:
    """The dense momentum-sector block: the elements of ``sector_elements`` summed in their order.

    The block is filled chunk by chunk: one scatter of the concatenated list
    leaves heap fragments that raised the peak RSS of ``diag --spins 14
    --momentum all`` by 7% (glibc's dynamic mmap threshold).
    """
    chunks = _element_chunks(basis, params)
    states, _, energies = next(chunks)
    h = np.zeros((basis.dim, basis.dim), dtype=np.float64 if basis.is_real else np.complex128)
    # the diagonal is assigned, not added, so that a vanishing diagonal energy keeps its sign
    h[states, states] = energies
    for rows, cols, values in chunks:
        np.add.at(h, (rows, cols), values)
    return SectorMatrix(params=params, basis=basis, entries=h)


def _limit(magnitudes: np.ndarray) -> float:
    """The pre-solve tolerance for a block with entries of these magnitudes."""
    return HERMITICITY_TOL * float(np.max(magnitudes, initial=1.0))


def _block_edges(labels: np.ndarray, parity: np.ndarray) -> list[int]:
    """Start of each run of equal (label, parity) in column order, and the end."""
    change = (np.diff(labels) != 0) | (np.diff(parity) != 0)
    return [0, *(np.flatnonzero(change) + 1).tolist(), parity.size]


def summed_elements(elements: SectorElements, dim: int) -> SectorElements:
    """One element per (row, col) pair of a ``dim`` x ``dim`` block, sorted by row, then col.

    The values of repeated pairs are added in list order.
    """
    rows, cols, values = elements
    key, inverse = np.unique(np.asarray(rows, dtype=np.int64) * dim + cols, return_inverse=True)
    summed = np.bincount(inverse, weights=values.real, minlength=key.size)
    if np.iscomplexobj(values):
        summed = summed + 1j * np.bincount(inverse, weights=values.imag, minlength=key.size)
    return SectorElements(key // dim, key % dim, summed)


def _real_basis_elements(
    basis: MomentumBasis, elements: SectorElements
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The checked elements of U^dagger h U, one per (row, col) pair, and the pre-solve limit.

    See ``element_blocks`` for the checks; the limit is that of h.
    """
    dim = basis.dim
    rows, cols, values = summed_elements(elements, dim)
    limit = _limit(np.abs(values))
    key = rows * dim + cols
    mirror_key = cols * dim + rows
    at = np.minimum(np.searchsorted(key, mirror_key), key.size - 1)
    mirror = np.where(key[at] == mirror_key, values[at], 0.0)
    defect = float(np.max(np.abs(values - mirror.conj()), initial=0.0))
    if defect > limit:
        raise NonHermitianError(f"hermiticity defect {defect:.3e} exceeds tolerance")

    # U^dagger h U: the element (a, b, v) adds conj(U[a, c]) v U[b, d] at (c, d)
    # for each of the at most 2 x 2 nonzeros U[a, c], U[b, d]
    u_col, u_coef = basis.real_entries()
    g = u_coef[rows].conj()[:, :, None] * values[:, None, None] * u_coef[cols][:, None, :]
    g_rows, g_cols = np.broadcast_arrays(u_col[rows][:, :, None], u_col[cols][:, None, :])
    nonzero = (u_coef[rows] != 0)[:, :, None] & (u_coef[cols] != 0)[:, None, :]
    g_rows, g_cols, g = summed_elements(
        SectorElements(g_rows[nonzero], g_cols[nonzero], g[nonzero]), dim
    )
    if np.iscomplexobj(g):  # real values at real k give a real g, with nothing to check
        off_real = float(np.max(np.abs(g.imag), initial=0.0))
        if off_real > limit:
            raise SymmetryBreakingError(f"block is off-real by {off_real:.3e} in its symmetry basis")
        g = g.real
    return g_rows, g_cols, g, limit


def element_blocks(
    basis: MomentumBasis, elements: SectorElements, row_labels: np.ndarray | None = None
) -> dict[tuple[int, int], np.ndarray]:
    """Checked real diagonal blocks of a sector, built from its elements without the dense block.

    The blocks are those of U^dagger h U for the summed block h and the real
    basis U of ``basis``.  With ``row_labels`` each real column is also
    labelled by the integer label of its plane-wave rows, which must agree
    on both members of a pair (the z-parity does, since inversion keeps the
    up-spin count).  Returns ``{(row label or 0, parity): block}`` in
    descending key order, each block a new float64 array with its columns in
    basis column order.  After summing repeated elements, with limit
    ``HERMITICITY_TOL`` * max(1, max|h|) it raises ``NonHermitianError`` if
    an element differs from the conjugate of its transpose (0 where that is
    absent) by more than the limit, and ``SymmetryBreakingError`` if, in the
    real basis, an imaginary part or an entry coupling two blocks does.

    The blocks are allocated before the element lists of the mapping, so
    that those are freed above them.  Allocated after them, the lists leave
    a hole below the blocks that glibc's heap cannot give back: that raised
    the peak RSS of ``diag --spins 14 --momentum all`` from 100 to 113 MiB.
    """
    dim = basis.dim
    parity = basis.real_layout.parity
    labels = np.zeros_like(parity) if row_labels is None else np.asarray(row_labels)[basis.real_layout.rows]
    order = np.lexsort((-parity, -labels))  # descending keys; stable, so basis order within a block
    edges = _block_edges(labels[order], parity[order])
    blocks = {
        (int(labels[order[a]]), int(parity[order[a]])): np.zeros((b - a, b - a))
        for a, b in zip(edges[:-1], edges[1:])
    }
    g_rows, g_cols, g, limit = _real_basis_elements(basis, elements)
    block_of = np.empty(dim, dtype=np.int64)
    local = np.empty(dim, dtype=np.int64)
    block_of[order] = np.repeat(np.arange(len(edges) - 1), np.diff(edges))
    local[order] = np.arange(dim) - np.repeat(edges[:-1], np.diff(edges))
    inside = block_of[g_rows] == block_of[g_cols]
    coupling = float(np.max(np.abs(g[~inside]), initial=0.0))
    if coupling > limit:
        raise SymmetryBreakingError(f"block couples two symmetry blocks by {coupling:.3e}")
    for i, block in enumerate(blocks.values()):
        mine = inside & (block_of[g_rows] == i)
        block[local[g_rows[mine]], local[g_cols[mine]]] = g[mine]
    return blocks
