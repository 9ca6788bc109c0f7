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
from scipy import sparse

from .spin_basis import ChainSizeError, MomentumBasis, inversion_conjugation_map

FULL_BASIS_MAX_SITES = 14
SECTOR_MAX_SITES = 20


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


def _popcount(states: np.ndarray, n_sites: int) -> np.ndarray:
    counts = np.zeros_like(states)
    for i in range(n_sites):
        counts += (states >> i) & 1
    return counts


def build_full_hamiltonian(params: ModelParams) -> sparse.csr_matrix:
    """Sparse real-symmetric Hamiltonian over all 2^N configurations."""
    n = params.n_sites
    if n > FULL_BASIS_MAX_SITES:
        raise ChainSizeError(
            f"full-basis assembly capped at N={FULL_BASIS_MAX_SITES} (got {n})"
        )
    size = 1 << n
    states = np.arange(size, dtype=np.int64)
    diag = diagonal_energy(params, _popcount(states, n))

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
    """

    partner: np.ndarray
    angle: np.ndarray

    def _layout(self) -> tuple[np.ndarray, np.ndarray, int, int]:
        """Plane-wave rows of U grouped as (invariant, first, partner) and their phases."""
        idx = np.arange(self.partner.size)
        invariant = idx[self.partner == idx]
        first = idx[self.partner > idx]
        order = np.concatenate([invariant, first, self.partner[first]])
        phase = np.concatenate(
            [
                np.exp(0.5j * self.angle[invariant]),
                np.ones(first.size),
                np.exp(1j * self.angle[first]),
            ]
        )
        return order, phase, invariant.size, first.size

    def to_real(self, h: np.ndarray) -> np.ndarray:
        """U^dagger h U, as a complex array whose imaginary part A forces to zero."""
        order, phase, n_inv, n_pair = self._layout()
        g = h[np.ix_(order, order)]
        g *= phase.conj()[:, None]
        g *= phase[None, :]
        _mix_pairs(g, n_inv, n_pair, -1j)  # rows: the conjugate of U's pair block
        _mix_pairs(g.T, n_inv, n_pair, 1j)  # columns
        return g

    def from_real(self, w: np.ndarray) -> np.ndarray:
        """U w: real-basis column vectors back to plane-wave coefficients."""
        order, phase, n_inv, n_pair = self._layout()
        y = w.astype(np.complex128)
        y[n_inv + n_pair :] *= 1j
        _mix_pairs(y, n_inv, n_pair, 1.0)
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
    locating b inside its own orbit.
    """
    n = params.n_sites
    if basis.n_sites != n:
        raise ValueError("basis and params disagree on the chain length")
    if n > SECTOR_MAX_SITES:
        raise ChainSizeError(f"sector assembly capped at N={SECTOR_MAX_SITES} (got {n})")

    dim = basis.dim
    reps = basis.representatives()
    periods = np.array([st.orbit.period for st in basis.states], dtype=np.float64)
    rep_index, shift = basis.config_lookup()

    h = np.zeros((dim, dim), dtype=np.complex128)
    cols = np.arange(dim)
    h[cols, cols] = diagonal_energy(params, _popcount(reps, n))

    # k = 0 and k = N/2 give exactly real matrices; keep the phases exact so
    # downstream code can dispatch on a strictly real sector
    if basis.k == 0:
        phases = np.ones(n, dtype=np.complex128)
    elif 2 * basis.k == n:
        phases = ((-1.0) ** np.arange(n)).astype(np.complex128)
    else:
        phases = np.exp(2j * np.pi * basis.k * np.arange(n) / n)
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
    partner, angle = inversion_conjugation_map(basis)
    return SectorMatrix(
        params=params,
        k=basis.k,
        entries=h,
        symmetry=AntiunitarySymmetry(partner=partner, angle=angle),
    )
