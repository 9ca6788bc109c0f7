"""Ising chain in transverse and longitudinal fields, periodic boundaries.

H = -sum_j sx_j sx_{j+1} - lam * sum_j sz_j - alpha * sum_j sx_j,  site N+1 = 1.

Two assembly paths: a sparse matrix over the full product basis (small chains,
used as an oracle) and dense matrices in fixed translation-momentum sectors
(production path), real at k = 0 and k = N/2 and complex elsewhere.

Every sector block commutes with the antiunitary A = (inversion) x (complex
conjugation), so it is real symmetric in an A-invariant basis.  Sector
matrices carry their ``MomentumBasis``, which owns that real basis;
``symmetry_blocks`` checks a block and splits it there into real blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spin_basis import ChainSizeError, MomentumBasis, popcount

FULL_BASIS_MAX_SITES = 14
SECTOR_MAX_SITES = 20
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

    ``entries`` is the block over the plane-wave states of ``basis``.
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


def hermiticity_defect(matrix: np.ndarray) -> float:
    """Largest absolute deviation from H = H^dagger."""
    return float(np.max(np.abs(matrix - matrix.conj().T)))


def build_sector_hamiltonian(basis: MomentumBasis, params: ModelParams) -> SectorMatrix:
    """Assemble the momentum-sector Hamiltonian in the given orbit basis.

    Each term maps a representative onto some configuration b; the matrix
    element picks up sqrt(t_a / t_b) times the plane-wave phase of the shift
    locating b inside its own orbit.  The block is float64 where
    ``basis.is_real`` (every phase is +-1) and complex128 elsewhere.
    """
    n = params.n_sites
    if basis.n_sites != n:
        raise ValueError("basis and params disagree on the chain length")
    if n > SECTOR_MAX_SITES:
        raise ChainSizeError(f"sector assembly capped at N={SECTOR_MAX_SITES} (got {n})")

    dim = basis.dim
    reps = basis.reps
    periods = basis.periods.astype(np.float64)
    rep_index, shift = basis.config_lookup()

    phases = np.exp(2j * np.pi * basis.k * np.arange(n) / n)
    if basis.is_real:
        phases = phases.real  # exactly +-1
    h = np.zeros((dim, dim), dtype=phases.dtype)
    cols = np.arange(dim)
    h[cols, cols] = diagonal_energy(params, basis.n_up)
    flips = [((1 << j) | (1 << ((j + 1) % n)), -1.0) for j in range(n)]
    flips += [(1 << j, -params.alpha) for j in range(n)]
    for mask, coeff in flips:
        targets = reps ^ mask
        rows = rep_index[targets]
        valid = rows >= 0
        r, c = rows[valid], cols[valid]
        vals = (
            coeff
            * np.sqrt(periods[c] / periods[r])
            * phases[shift[targets[valid]] % n]
        )
        np.add.at(h, (r, c), vals)
    return SectorMatrix(params=params, basis=basis, entries=h)


def symmetry_blocks(
    matrix: SectorMatrix, row_labels: np.ndarray | None = None
) -> dict[tuple[int, int], np.ndarray]:
    """Checked real diagonal blocks of a sector matrix in the real basis of its ``basis``.

    The columns carry the inversion parity of that basis: +-1 at k = 0 and
    N/2, 0 elsewhere.  With ``row_labels`` each column is also labelled by
    the integer label of its plane-wave rows, which must agree on both
    members of a pair (the z-parity does, since inversion keeps the up-spin
    count).  Returns ``{(row label or 0, parity): block}`` in descending key
    order; without ``row_labels`` the blocks are views, in basis column
    order.  With limit ``HERMITICITY_TOL`` * max(1, max|h|), raises
    ``NonHermitianError`` if |h - h^dagger| exceeds it and
    ``SymmetryBreakingError`` if, in the real basis, an imaginary part or an
    entry coupling two blocks does.
    """
    basis, h = matrix.basis, matrix.entries
    limit = HERMITICITY_TOL * float(np.max(np.abs(h), initial=1.0))
    defect = hermiticity_defect(h)
    if defect > limit:
        raise NonHermitianError(f"hermiticity defect {defect:.3e} exceeds tolerance")
    g = basis.to_real(h)
    if np.iscomplexobj(g):  # a real h at real k gives a real g, with nothing to check
        off_real = float(np.max(np.abs(g.imag), initial=0.0))
        if off_real > limit:
            raise SymmetryBreakingError(f"block is off-real by {off_real:.3e} in its symmetry basis")
        g = g.real
    rows, parity = basis.real_layout.rows, basis.real_layout.parity
    labels = np.zeros_like(parity)
    if row_labels is not None:
        labels = np.asarray(row_labels)[rows]
        order = np.lexsort((-parity, -labels))
        g, labels, parity = g[np.ix_(order, order)], labels[order], parity[order]
    change = (np.diff(labels) != 0) | (np.diff(parity) != 0)
    edges = [0, *(np.flatnonzero(change) + 1).tolist(), matrix.dim]
    spans = list(zip(edges[:-1], edges[1:]))
    coupling = max(
        [0.0]
        + [float(np.max(np.abs(g[a:b, b:]), initial=0.0)) for a, b in spans]
        + [float(np.max(np.abs(g[b:, a:b]), initial=0.0)) for a, b in spans]
    )
    if coupling > limit:
        raise SymmetryBreakingError(f"block couples two symmetry blocks by {coupling:.3e}")
    return {(int(labels[a]), int(parity[a])): g[a:b, a:b] for a, b in spans}
