"""Ising chain in transverse and longitudinal fields, periodic boundaries.

H = -sum_j sx_j sx_{j+1} - lam * sum_j sz_j - alpha * sum_j sx_j,  site N+1 = 1.

Two assembly paths: a sparse matrix over the full product basis (small chains,
used as an oracle) and, in fixed translation-momentum sectors (production
path), one element list per sector, real at k = 0 and k = N/2 and complex
elsewhere, built from the sector's representatives and ``orbit_tables``.
The dense plane-wave block of ``build_sector_hamiltonian`` is that list
summed by ``summed_elements`` and scattered once.

Every sector block commutes with the antiunitary A = (inversion) x (complex
conjugation), so it is real symmetric in an A-invariant basis, which the
sector's ``MomentumBasis`` owns.  ``element_blocks`` checks the element list
(hermiticity, and in the real basis a vanishing imaginary part and no
coupling between blocks) and maps it straight into those real blocks, which
both solvers of ``eigensolve`` read, each block exactly symmetric; no CLI
command forms the dense plane-wave block.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .spin_basis import ChainSizeError, MomentumBasis, _rep_index, orbit_tables

FULL_BASIS_MAX_SITES = 14
# pre-solve checks: |h - h^dagger|, and the imaginary part and the coupling of
# the symmetry blocks in the real basis, each relative to max(1, max|h|)
HERMITICITY_TOL = 1e-12
# the largest field scale max(|lam|, |alpha|) N: the analytic moments raise it
# to the fourth power, and at N >= 5 mu4 is at most 4.3 times that power, so
# below this bound (about 5.8e76) every moment stays finite
FIELD_SCALE_MAX = sys.float_info.max ** 0.25 / 2


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
        name, value = max(("lam", self.lam), ("alpha", self.alpha), key=lambda field: abs(field[1]))
        if abs(value) * self.n_sites > FIELD_SCALE_MAX:
            raise ValueError(
                f"field {name} = {value!r} is too large: max(|lam|, |alpha|) * N must not exceed "
                f"{FIELD_SCALE_MAX:.4g}"
            )


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
    diag = diagonal_energy(params, np.bitwise_count(states))

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


def sector_elements(basis: MomentumBasis, params: ModelParams) -> SectorElements:
    """The elements of the momentum-sector Hamiltonian in the given orbit basis.

    The diagonal comes first, one element per state in basis order, then the
    elements of each bond flip and each single-site flip in site order.  Each
    flip maps a representative onto some configuration b; the matrix element
    picks up sqrt(t_a / t_b) times the plane-wave phase of the shift locating
    b inside its own orbit.  The values are float64 where ``basis.is_real``
    (every phase is +-1) and complex128 elsewhere.
    """
    n = params.n_sites
    if basis.n_sites != n:
        raise ValueError("basis and params disagree on the chain length")

    reps = basis.reps
    periods = basis.periods.astype(np.float64)
    rep_of, shift, _ = orbit_tables(n)
    rep_index = _rep_index(reps, n)

    phases = np.exp(2j * np.pi * basis.k * np.arange(n) / n)
    if basis.is_real:
        phases = phases.real  # exactly +-1
    states = np.arange(basis.dim)
    rows, cols, values = [states], [states], [diagonal_energy(params, basis.n_up)]
    flips = [((1 << j) | (1 << ((j + 1) % n)), -1.0) for j in range(n)]
    flips += [(1 << j, -params.alpha) for j in range(n)]
    for mask, coeff in flips:
        targets = reps ^ mask
        target_rows = rep_index[rep_of[targets]]
        valid = target_rows >= 0
        r, c = target_rows[valid], states[valid]
        rows.append(r)
        cols.append(c)
        values.append(coeff * np.sqrt(periods[c] / periods[r]) * phases[shift[targets[valid]] % n])
    return SectorElements(np.concatenate(rows), np.concatenate(cols), np.concatenate(values))


def build_sector_hamiltonian(basis: MomentumBasis, params: ModelParams) -> SectorMatrix:
    """The dense momentum-sector block: one scatter of ``summed_elements(sector_elements(...))``."""
    rows, cols, values = summed_elements(sector_elements(basis, params), basis.dim)
    h = np.zeros((basis.dim, basis.dim), dtype=values.dtype)
    h[rows, cols] = values
    return SectorMatrix(params=params, basis=basis, entries=h)


class RealBlock(NamedTuple):
    """One diagonal block of a sector in its real basis U.

    The columns of U it spans, its entries, and tr B and |B|_F^2, each
    summed from the block's own real-basis elements.
    """

    columns: np.ndarray
    entries: np.ndarray
    trace: float
    frob2: float


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


def _grouped_elements(
    elements: SectorElements, pair: np.ndarray, slot: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The summed elements, laid out by the two inversion pairs they join: the one sort of the list.

    State a is in slot ``slot[a]`` of the inversion pair named by its lower
    index ``pair[a]``: slot 0 for that index, 1 for its partner.  Group i
    joins pairs P_i <= Q_i.  Returns (R, C, h) with R = (P, Q), C = (Q, P)
    and h of shape (2, 2, 2 G): h[x, y, m] is the element from slot x of
    pair R[m] to slot y of pair C[m], so that group i appears as m = i and
    m = G + i (as two copies of one where P_i = Q_i), and ``_transposed(h)``
    holds each element's transpose.  An absent element is 0, and repeated
    ones are added in list order, as in ``summed_elements``.
    """
    dim = pair.size
    rows, cols, values = elements
    p, q = pair[rows], pair[cols]
    key, group = np.unique(np.minimum(p, q) * dim + np.maximum(p, q), return_inverse=True)
    size = 2 * key.size
    bins = (slot[rows] * 2 + slot[cols]) * size + (p > q) * key.size + group
    h = np.bincount(bins, weights=values.real, minlength=4 * size)
    if np.iscomplexobj(values):
        h = h + 1j * np.bincount(bins, weights=values.imag, minlength=4 * size)
    h = h.reshape(2, 2, size)
    first, second = key // dim, key % dim
    within = np.flatnonzero(first == second)
    h[:, :, key.size + within] = h[:, :, within]
    return np.concatenate([first, second]), np.concatenate([second, first]), h


def _transposed(t: np.ndarray) -> np.ndarray:
    """A (2, 2, 2 G) layout of ``_grouped_elements`` at each entry's transpose: [x, y, m] holds t[y, x, m -+ G]."""
    return t.reshape(2, 2, 2, -1).swapaxes(0, 1)[:, :, ::-1].reshape(t.shape)


def _real_basis_elements(
    basis: MomentumBasis, elements: SectorElements
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """The checked elements of U^dagger h U and the pre-solve limit, as (c, d, g, s, limit).

    Each real-basis pair (c, d) that two inversion pairs span appears once,
    with its entry g and its symmetrized entry s = (g_cd + g_dc) / 2; see
    ``element_blocks`` for the checks.  The limit is that of h.
    """
    col, coef = basis.real_entries()  # col[a]: the two columns of a's pair, its name first
    slot = (basis.partner < np.arange(basis.dim)).astype(np.int64)
    row_pair, col_pair, h = _grouped_elements(elements, col[:, 0], slot)
    limit = _limit(np.abs(h))
    defect = float(np.max(np.abs(h - _transposed(h).conj()), initial=0.0))
    if defect > limit:
        raise NonHermitianError(f"hermiticity defect {defect:.3e} exceeds tolerance")

    # U^dagger h U: the element from slot x of the row pair to slot y of the
    # column pair adds conj(U[x, j]) h U[y, l] at their columns j and l.  The
    # terms are added in ascending (row, col), as a scatter of the summed
    # list adds them, and each complex product keeps its operands' order
    u = np.zeros((2, 2, basis.dim), dtype=coef.dtype)  # u[x, j, P]: 0 where pair P has no slot x
    u[slot, :, col[:, 0]] = coef
    u_row, u_col = np.take(u, row_pair, axis=2).conj(), np.take(u, col_pair, axis=2)
    g = np.zeros((2, 2, row_pair.size), dtype=np.result_type(h, coef))  # g[j, l, m]
    for x in (0, 1):
        for y in (0, 1):
            g += u_row[x][:, None] * h[x, y] * u_col[y][None, :]
    if np.iscomplexobj(g):  # real values at real k give a real g, with nothing to check
        off_real = float(np.max(np.abs(g.imag), initial=0.0))
        if off_real > limit:
            raise SymmetryBreakingError(f"block is off-real by {off_real:.3e} in its symmetry basis")
        g = g.real
    s = (g + _transposed(g)) * 0.5
    # each (c, d) once: a pair has a column 1 only if it holds two states,
    # and a group within one pair keeps its first copy
    has = np.stack([np.ones(basis.dim, dtype=bool), col[:, 1] != col[:, 0]])
    keep = has[:, None, row_pair] & has[None, :, col_pair]
    second = slice(row_pair.size // 2, None)
    keep[:, :, second] &= row_pair[second] != col_pair[second]
    c = np.broadcast_to(col[row_pair].T[:, None], g.shape)[keep]
    d = np.broadcast_to(col[col_pair].T[None, :], g.shape)[keep]
    return c, d, g[keep], s[keep], limit


def element_blocks(
    basis: MomentumBasis, elements: SectorElements, row_labels: np.ndarray | None = None
) -> dict[tuple[int, int], RealBlock]:
    """Checked real diagonal blocks of a sector, built from its elements without the dense block.

    The blocks are those of U^dagger h U for the summed block h and the real
    basis U of ``basis``, whose column a belongs to plane-wave state a.  Each
    column goes to the block of its inversion parity (``column_parity``)
    and, with ``row_labels``, of the integer label of its plane-wave state,
    which must agree on both members of a pair (the z-parity does, since
    inversion keeps the up-spin count).  This is the one place that sorts
    the columns into blocks.  Returns ``{(row label or 0, parity):
    RealBlock(columns, entries, trace, frob2)}`` in descending key order:
    the block's columns of U, ascending, a new float64 array over them, and
    its tr B and |B|_F^2, summed from the block's real-basis elements.

    The element list is sorted once, by the two inversion pairs each element
    joins: the elements between two pairs are all that U maps onto the real
    columns of those pairs, and they hold their own transposes.  After
    summing repeated elements, with limit ``HERMITICITY_TOL`` * max(1,
    max|h|) it raises ``NonHermitianError`` if an element differs from the
    conjugate of its transpose (0 where that is absent) by more than the
    limit, and ``SymmetryBreakingError`` if, in the real basis, an imaginary
    part or an entry coupling two blocks does.  Past these checks each
    real-basis pair (c, d), (d, c) gets the one value (g_cd + g_dc) / 2, so
    that every block is exactly symmetric, as LAPACK takes it: this is the
    one place that symmetrizes.

    The blocks are allocated before the element lists of the mapping, so
    that those are freed above them.  Allocated after them, the lists leave
    a hole below the blocks that glibc's heap cannot give back: that raised
    the peak RSS of ``diag --spins 14 --momentum all`` from 100 to 113 MiB.
    """
    dim = basis.dim
    parity = basis.column_parity
    labels = np.zeros_like(parity) if row_labels is None else np.asarray(row_labels)
    order = np.lexsort((-parity, -labels))  # descending keys; stable, so ascending columns within a block
    edges = _block_edges(labels[order], parity[order])
    spans = list(zip(edges[:-1], edges[1:]))
    entries = [np.zeros((b - a, b - a)) for a, b in spans]
    c, d, g, s, limit = _real_basis_elements(basis, elements)
    block_of = np.empty(dim, dtype=np.int64)
    local = np.empty(dim, dtype=np.int64)
    block_of[order] = np.repeat(np.arange(len(spans)), np.diff(edges))
    local[order] = np.arange(dim) - np.repeat(edges[:-1], np.diff(edges))
    which = np.where(block_of[c] == block_of[d], block_of[c], -1)  # -1: between two blocks
    coupling = float(np.max(np.abs(g[which < 0]), initial=0.0))
    if coupling > limit:
        raise SymmetryBreakingError(f"block couples two symmetry blocks by {coupling:.3e}")
    blocks = {}
    for i, ((a, b), block) in enumerate(zip(spans, entries)):
        mine = which == i
        block[local[c[mine]], local[d[mine]]] = s[mine]
        trace = float(np.sum(s[mine & (c == d)]))
        frob2 = float(np.sum(np.square(s[mine])))
        blocks[int(labels[order[a]]), int(parity[order[a]])] = RealBlock(order[a:b], block, trace, frob2)
    return blocks
