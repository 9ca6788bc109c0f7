"""Ising chain in transverse and longitudinal fields, periodic boundaries.

H = -sum_j sx_j sx_{j+1} - lam * sum_j sz_j - alpha * sum_j sx_j,  site N+1 = 1.

Two assembly paths: a sparse matrix over the full product basis (small chains,
used as an oracle) and dense complex matrices in fixed translation-momentum
sectors (production path).

Every sector block commutes with the antiunitary A = (inversion) x (complex
conjugation), so it is real symmetric in an A-invariant basis.  Sector
matrices carry the map of A, and ``AntiunitarySymmetry`` converts between the
plane-wave basis and that real basis; the eigensolver uses it to solve
complex sectors as real problems while its eigenvectors stay plane-wave
coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spin_basis import ChainSizeError, MomentumBasis, popcount

FULL_BASIS_MAX_SITES = 14
SECTOR_MAX_SITES = 20


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


@dataclass(frozen=True)
class AntiunitarySymmetry:
    """An antiunitary A with A|a> = exp(i angle[a]) |partner[a]> and A^2 = 1.

    The real basis U has at most two nonzeros per column: exp(i angle_a / 2)
    e_a for each invariant state a, and for each pair (a, b = partner[a]) with
    p = exp(i angle_a) the two columns (e_a + p e_b)/sqrt2 and
    i (e_a - p e_b)/sqrt2.  Every column is A-invariant, so U^dagger h U is
    real for any h that commutes with A.  Columns are ordered invariant
    states first, then the "+" and the "-" combination of each pair.

    Where every phase p_a is +-1 (k = 0 and k = N/2), A is a real involution
    P (the inversion) times conjugation, and a real h commutes with P itself.
    The parity basis then drops the exp(i angle/2) and i factors: e_a with
    parity p_a for each invariant state, and (e_a +- p e_b)/sqrt2 with parity
    +-1 for each pair.  Its columns are ordered even invariant states, "+"
    combinations, "-" combinations, odd invariant states, so the even and
    the odd block of U^T h U are contiguous.
    """

    partner: np.ndarray
    angle: np.ndarray

    @property
    def parity_signs(self) -> np.ndarray | None:
        """The phases exp(i angle) as exact +-1 when all are real, else None."""
        cos = np.cos(self.angle)
        signs = np.where(cos > 0, 1.0, -1.0)
        return signs if np.all(np.abs(cos - signs) < 1e-12) else None

    def _layout(self, parity: bool = False) -> tuple[np.ndarray, np.ndarray, int, int]:
        """Plane-wave rows of U grouped as (invariant, first, partner[, odd invariant]).

        Returns the rows, their phases, the number of leading invariant
        states and the number of pairs.
        """
        idx = np.arange(self.partner.size)
        invariant = idx[self.partner == idx]
        first = idx[self.partner > idx]
        if parity:
            signs = self.parity_signs
            odd = signs[invariant] < 0
            invariant, trailing = invariant[~odd], invariant[odd]
            lead_phase = np.ones(invariant.size)
            pair_phase = signs[first]
        else:
            trailing = idx[:0]
            lead_phase = np.exp(0.5j * self.angle[invariant])
            pair_phase = np.exp(1j * self.angle[first])
        order = np.concatenate([invariant, first, self.partner[first], trailing])
        phase = np.concatenate([lead_phase, np.ones(first.size), pair_phase, np.ones(trailing.size)])
        return order, phase, invariant.size, first.size

    def to_real(self, h: np.ndarray, parity: bool = False) -> np.ndarray:
        """U^dagger h U, in the parity basis if ``parity`` (see the class docstring).

        In the A-invariant basis the result is complex and A forces its
        imaginary part to zero; in the parity basis it is real for a real h.
        """
        order, phase, lead, n_pair = self._layout(parity)
        g = h[np.ix_(order, order)].astype(np.result_type(h, phase), copy=False)
        g *= phase.conj()[:, None]
        g *= phase[None, :]
        z = 1.0 if parity else 1j
        _mix_pairs(g, lead, n_pair, np.conj(z))  # rows: the conjugate of U's pair block
        _mix_pairs(g.T, lead, n_pair, z)  # columns
        return g

    def from_real(self, w: np.ndarray, parity: bool = False) -> np.ndarray:
        """U w: real-basis column vectors back to plane-wave coefficients.

        In the parity basis the result is real and ``w`` is overwritten.
        """
        order, phase, lead, n_pair = self._layout(parity)
        y = w.astype(np.result_type(w, phase), copy=False)
        if not parity:
            y[lead + n_pair :] *= 1j
        _mix_pairs(y, lead, n_pair, 1.0)
        y *= phase[:, None]
        out = np.empty_like(y)
        out[order] = y
        return out


def _mix_pairs(x: np.ndarray, start: int, n_pair: int, z: complex) -> None:
    """In place along axis 0: rows (a, b) of each pair become ((a + b), z (a - b))/sqrt2."""
    a = x[start : start + n_pair]
    b = x[start + n_pair : start + 2 * n_pair]
    diff = a - b
    a += b
    a *= np.sqrt(0.5)
    np.multiply(diff, z * np.sqrt(0.5), out=b)


@dataclass
class SectorMatrix:
    """Dense Hamiltonian block at fixed translation momentum.

    ``entries`` is the block in the plane-wave basis; ``symmetry``, when set,
    is an antiunitary the block commutes with (see ``AntiunitarySymmetry``).
    """

    params: ModelParams
    k: int
    entries: np.ndarray
    symmetry: AntiunitarySymmetry | None = None

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
    locating b inside its own orbit.  The block is float64 at k = 0 and
    k = N/2, where every phase is real, and complex128 elsewhere.
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

    # k = 0 and k = N/2 give exactly real matrices: assemble them as float64
    # so the eigensolver dispatches on a strictly real sector
    if basis.k == 0:
        phases = np.ones(n)
    elif 2 * basis.k == n:
        phases = (-1.0) ** np.arange(n)
    else:
        phases = np.exp(2j * np.pi * basis.k * np.arange(n) / n)
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
    return SectorMatrix(
        params=params,
        k=basis.k,
        entries=h,
        symmetry=AntiunitarySymmetry(partner=basis.partner, angle=basis.angle),
    )


def symmetry_blocks(
    matrix: SectorMatrix, row_labels: np.ndarray | None = None, tol: float = 1e-12
) -> dict[tuple[int, int], np.ndarray]:
    """Real diagonal blocks of a sector matrix in the real basis of its ``symmetry``.

    A float block whose phases are all real (k = 0, N/2) is taken to the
    parity basis, whose columns have inversion parity +-1; any other block
    to the A-invariant basis, parity 0.  With ``row_labels`` each column is
    also labelled by the integer label of its plane-wave rows, which must
    agree on both members of a pair (the z-parity does, since inversion
    keeps the up-spin count).  Returns ``{(row label or 0, parity): block}``
    in descending key order; without ``row_labels`` the blocks are views, in
    basis column order.  Raises ``SymmetryBreakingError`` if the matrix has,
    in that basis, an imaginary part or an entry coupling two blocks above
    ``tol`` * max|h|.
    """
    sym, h = matrix.symmetry, matrix.entries
    use_parity = not np.iscomplexobj(h) and sym.parity_signs is not None
    rows, _, lead, n_pair = sym._layout(use_parity)
    g = sym.to_real(h, use_parity)
    parity = np.where(np.arange(matrix.dim) < lead + n_pair, 1, -1) * use_parity
    labels = np.zeros_like(parity)
    if row_labels is not None:
        labels = np.asarray(row_labels)[rows]
        order = np.lexsort((-parity, -labels))
        g, labels, parity = g[np.ix_(order, order)], labels[order], parity[order]
    change = (np.diff(labels) != 0) | (np.diff(parity) != 0)
    edges = [0, *(np.flatnonzero(change) + 1).tolist(), matrix.dim]
    limit = tol * (max(1.0, float(np.max(np.abs(h)))) if h.size else 1.0)
    if np.iscomplexobj(g):
        off_real = float(np.max(np.abs(g.imag), initial=0.0))
        if off_real > limit:
            raise SymmetryBreakingError(f"block is off-real by {off_real:.3e} in its symmetry basis")
        g = g.real
    spans = list(zip(edges[:-1], edges[1:]))
    coupling = max(
        [0.0]
        + [float(np.max(np.abs(g[a:b, b:]), initial=0.0)) for a, b in spans]
        + [float(np.max(np.abs(g[b:, a:b]), initial=0.0)) for a, b in spans]
    )
    if coupling > limit:
        raise SymmetryBreakingError(f"block couples two symmetry blocks by {coupling:.3e}")
    return {(int(labels[a]), int(parity[a])): g[a:b, a:b] for a, b in spans}
