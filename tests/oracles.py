"""Brute-force references that the tests hold the package's fast paths against.

None of these run in the pipeline: single-configuration bit operations,
closed-form and exhaustive counts, the per-n state counts of an enumerated
basis, a moment set built from given cumulants, explicit powers of H,
spectral sums over eigenvectors, quadrature moments and the energy-power
multipliers of a fitted Gibbs density, the full-chain model density of
states, the dense pre-solve path (the hermiticity defect of a dense block,
its rotation into the real basis and the checked or labelled symmetry
blocks cut from it), the Gaussian fit of one window at a time, and a CSV
writer that formats cell by cell.
"""

from math import comb
from typing import NamedTuple

import numpy as np

from isingchaos.eigensolve import EigenDecomposition
from isingchaos.empirics import normal_cdf
from isingchaos.hamiltonian import (
    FULL_BASIS_MAX_SITES,
    ModelParams,
    NonHermitianError,
    SectorMatrix,
    SymmetryBreakingError,
    _block_edges,
    _limit,
    build_full_hamiltonian,
)
from isingchaos.moments import LocalMomentSet
from isingchaos.spin_basis import ChainSizeError, MomentumBasis, _divisors, orbit_tables, popcount, reflect_table
from isingchaos.statmodel import (
    GibbsFit,
    StrengthModel,
    _clipped_power,
    _panel_quadrature,
    _power_table,
    _std_moments,
    _std_to_energy_moments,
    density_stack,
    fmt_float,
)


def rotate_left(state: int, n_sites: int, shift: int = 1) -> int:
    """Translate a configuration by ``shift`` sites."""
    shift %= n_sites
    mask = (1 << n_sites) - 1
    return ((state << shift) | (state >> (n_sites - shift))) & mask


def reflect(state: int, n_sites: int) -> int:
    """Geometric inversion: reverse the site order of a configuration."""
    out = 0
    for i in range(n_sites):
        out |= ((state >> i) & 1) << (n_sites - 1 - i)
    return out


def totient(n: int) -> int:
    """Euler's totient by trial division."""
    result, p, m = n, 2, n
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1 if p == 2 else 2
    if m > 1:
        result -= result // m
    return result


def zero_momentum_dimension_totient(n_sites: int) -> int:
    """Closed-form k=0 dimension: (1/N) sum over d|N of totient(d) 2^{N/d}."""
    total = sum(totient(d) * (1 << (n_sites // d)) for d in _divisors(n_sites))
    assert total % n_sites == 0
    return total // n_sites


def nu_tot_by_enumeration(basis: MomentumBasis) -> np.ndarray:
    """Number of basis states per up-spin count n (length N+1), counted state by state."""
    return np.bincount(basis.n_up, minlength=basis.n_sites + 1)


def nu_inv_by_enumeration(basis: MomentumBasis) -> np.ndarray:
    """Number of inversion-invariant basis states (their own partner) per up-spin count."""
    invariant = basis.partner == np.arange(basis.dim)
    return np.bincount(basis.n_up[invariant], minlength=basis.n_sites + 1)


def delta_by_enumeration(basis: MomentumBasis) -> float:
    """Fraction of invariant states, N_inv / N_tot, of an enumerated basis."""
    return basis.n_invariant / basis.dim


class InvariantCount(NamedTuple):
    count: int
    by_formula: bool


def invariant_counts(n_sites: int, n_up: int) -> InvariantCount:
    """Number of inversion-invariant orbits with a fixed up-spin count.

    Odd chains use the closed form C(N//2, n//2); even chains fall back to
    exhaustive reflection testing (flagged via ``by_formula=False``).
    """
    if not 0 <= n_up <= n_sites:
        raise ValueError("up-spin count outside [0, N]")
    if n_sites % 2 == 1:
        return InvariantCount(comb(n_sites // 2, n_up // 2), True)
    rep_of, _, _ = orbit_tables(n_sites)
    refl = reflect_table(n_sites)
    states = np.arange(1 << n_sites, dtype=np.int64)
    is_rep = rep_of == states
    reps = states[is_rep]
    invariant = rep_of[refl[reps]] == reps
    return InvariantCount(int(np.sum(invariant & (popcount(reps, n_sites) == n_up))), False)


def domain_wall_count(config: int, n_sites: int) -> int:
    """Number of domain-wall pairs: anti-aligned neighbour pairs on the ring / 2."""
    walls = (config ^ rotate_left(config, n_sites)).bit_count()
    assert walls % 2 == 0
    return walls // 2


def cumulants_from_raw(mu1: float, mu2: float, mu3: float, mu4: float) -> tuple[float, float]:
    """Third and fourth cumulants from raw moments."""
    k3 = mu3 - 3 * mu2 * mu1 + 2 * mu1**3
    k4 = mu4 - 4 * mu3 * mu1 - 3 * mu2**2 + 12 * mu2 * mu1**2 - 6 * mu1**4
    return k3, k4


def moment_set_from_cumulants(
    n_up: int, e_n: float, sigma2: float, k3: float, k4: float, k_walls: float = 0.0
) -> LocalMomentSet:
    """A moment set with the given mean, variance and cumulants, its raw moments derived from them."""
    mu1 = e_n
    mu2 = sigma2 + mu1**2
    mu3 = k3 + 3 * mu2 * mu1 - 2 * mu1**3
    mu4 = k4 + 4 * mu3 * mu1 + 3 * mu2**2 - 12 * mu2 * mu1**2 + 6 * mu1**4
    return LocalMomentSet(
        n_up=n_up, e_n=e_n, sigma2=sigma2, mu3=mu3, mu4=mu4, k3=k3, k4=k4, k_walls=k_walls
    )


def bruteforce_state_moments(config: int, params: ModelParams, order: int = 4) -> np.ndarray:
    """<s|H^j|s> for j = 1..order by repeated sparse application (N <= 12)."""
    if params.n_sites > 12:
        raise ChainSizeError("brute-force moments capped at N=12")
    if not 1 <= order <= 6:
        raise ValueError("order must be in [1, 6]")
    h = build_full_hamiltonian(params)
    v = np.zeros(1 << params.n_sites)
    v[config] = 1.0
    out = np.empty(order)
    w = v
    for j in range(order):
        w = h @ w
        out[j] = v @ w
    return out


def all_state_moments(params: ModelParams, order: int = 4) -> np.ndarray:
    """<s|H^j|s> for every configuration at once via dense matrix powers.

    Returns an array of shape (order, 2^N).  Dense powers keep this fast for
    the oracle sweeps; capped well below the sparse path's limit.
    """
    if params.n_sites > min(FULL_BASIS_MAX_SITES, 11):
        raise ChainSizeError("dense moment sweep capped at N=11")
    h = build_full_hamiltonian(params).toarray()
    out = np.empty((order, h.shape[0]))
    power = np.eye(h.shape[0])
    for j in range(order):
        power = power @ h
        out[j] = np.diag(power)
    return out


def sector_state_moments(matrix: np.ndarray, index: int, order: int = 4) -> np.ndarray:
    """<i|H^j|i> within a sector by repeated dense application."""
    v = np.zeros(matrix.shape[0], dtype=matrix.dtype)
    v[index] = 1.0
    out = np.empty(order)
    w = v
    for j in range(order):
        w = matrix @ w
        out[j] = np.real(np.vdot(v, w))
    return out


def empirical_strength_function(
    decomp: EigenDecomposition, symbol_index: int, bins: int = 60
) -> tuple[np.ndarray, np.ndarray]:
    """|C|^2-weighted histogram of the spectrum: the empirical P_n(E).

    Returns (bin_edges, density); the density integrates to the total weight
    sum |C|^2 = 1.
    """
    weights = np.abs(decomp.vectors[symbol_index, :]) ** 2
    counts, edges = np.histogram(decomp.energies, bins=bins, weights=weights)
    density = counts / np.diff(edges)
    return edges, density


def strength_moments(decomp: EigenDecomposition, symbol_index: int, order: int = 4) -> np.ndarray:
    """Spectral moments sum_a |C(a)|^2 E_a^j for j = 1..order."""
    w = np.abs(decomp.vectors[symbol_index, :]) ** 2
    return np.array([np.sum(w * decomp.energies**j) for j in range(1, order + 1)])


def gibbs_energy_moments(fit: GibbsFit, n_nodes: int = 4000) -> np.ndarray:
    """Raw energy moments mu_1..mu_4 of a fitted density, by quadrature."""
    nodes, weights = _panel_quadrature(n_nodes)
    m = _std_moments(fit.std_coeffs, _power_table(nodes, 4), weights)
    return _std_to_energy_moments(m, fit.e_center, fit.sigma)


def gibbs_multipliers(fit: GibbsFit) -> tuple[float, float, float, float]:
    """mu_1..mu_4 of exp(-sum_i mu_i E^i): sum_j c_j ((E - E_n) / sigma)^j expanded in powers of E."""
    c = fit.std_coeffs
    return tuple(
        sum(comb(j, i) * c[j - 1] * (-fit.e_center) ** (j - i) / fit.sigma**j for j in range(i, 5))
        for i in range(1, 5)
    )


def model_spectral_density(model: StrengthModel, energy) -> np.ndarray:
    """Normalized model density of states of the full chain, each P_n clipped at zero.

    The P_n(E) carry the 2^-N binomial weights of the full product basis,
    which no sector's ``prediction_curve(...).rho`` gives.
    """
    n = model.n_sites
    counts = np.array([comb(n, m) for m in range(n + 1)], dtype=float)
    return (counts / counts.sum()) @ _clipped_power(density_stack(model, energy), 1.0)


def hermiticity_defect(matrix: np.ndarray) -> float:
    """Largest absolute deviation from H = H^dagger."""
    return float(np.max(np.abs(matrix - matrix.conj().T)))


def _mix_pairs(x: np.ndarray, start: int, n_pair: int, z: complex) -> None:
    """In place along axis 0: rows (a, b) of each pair become ((a + b), z (a - b))/sqrt2."""
    a = x[start : start + n_pair]
    b = x[start + n_pair : start + 2 * n_pair]
    diff = a - b
    a += b
    a *= np.sqrt(0.5)
    np.multiply(diff, z * np.sqrt(0.5), out=b)


def to_real(basis: MomentumBasis, h: np.ndarray) -> np.ndarray:
    """U^dagger h U for a dense matrix ``h`` over ``basis``, by gathers on its ``real_layout``.

    Real for a real ``h`` where ``basis.is_real``; complex elsewhere, with
    an imaginary part that vanishes when ``h`` commutes with A.
    """
    rows, phase, lead, n_pair, _ = basis.real_layout
    g = h[np.ix_(rows, rows)].astype(np.result_type(h, phase), copy=False)
    g *= phase.conj()[:, None]
    g *= phase[None, :]
    z = 1.0 if basis.is_real else 1j
    _mix_pairs(g, lead, n_pair, np.conj(z))  # rows: the conjugate of U's pair block
    _mix_pairs(g.T, lead, n_pair, z)  # columns
    return g


def symmetry_blocks(matrix: SectorMatrix) -> dict[tuple[int, int], np.ndarray]:
    """Dense reference for ``element_blocks``: the checked real blocks of a dense sector matrix.

    The columns carry the inversion parity of the real basis: +-1 at k = 0
    and N/2, 0 elsewhere.  Returns ``{(0, parity): block}`` in descending key
    order, as views in basis column order.  With limit ``HERMITICITY_TOL`` *
    max(1, max|h|), raises ``NonHermitianError`` if |h - h^dagger| exceeds
    it and ``SymmetryBreakingError`` if, in the real basis, an imaginary
    part or an entry coupling two blocks does.
    """
    basis, h = matrix.basis, matrix.entries
    limit = _limit(np.abs(h))
    defect = hermiticity_defect(h)
    if defect > limit:
        raise NonHermitianError(f"hermiticity defect {defect:.3e} exceeds tolerance")
    g = to_real(basis, h)
    if np.iscomplexobj(g):  # a real h at real k gives a real g, with nothing to check
        off_real = float(np.max(np.abs(g.imag), initial=0.0))
        if off_real > limit:
            raise SymmetryBreakingError(f"block is off-real by {off_real:.3e} in its symmetry basis")
        g = g.real
    parity = basis.real_layout.parity
    edges = _block_edges(np.zeros_like(parity), parity)
    spans = list(zip(edges[:-1], edges[1:]))
    coupling = max(
        [0.0]
        + [float(np.max(np.abs(g[a:b, b:]), initial=0.0)) for a, b in spans]
        + [float(np.max(np.abs(g[b:, a:b]), initial=0.0)) for a, b in spans]
    )
    if coupling > limit:
        raise SymmetryBreakingError(f"block couples two symmetry blocks by {coupling:.3e}")
    return {(0, int(parity[a])): g[a:b, a:b] for a, b in spans}


def real_basis_matrix(basis: MomentumBasis) -> np.ndarray:
    """The dense real basis U, column by column as the ``MomentumBasis`` docstring defines it."""
    rows, phase, lead, n_pair, _ = basis.real_layout
    z = 1.0 if basis.is_real else 1j
    u = np.zeros((basis.dim, basis.dim), dtype=complex)
    for c in range(basis.dim):
        if lead <= c < lead + n_pair:  # the "+" column of a pair
            u[rows[c], c] = phase[c] * np.sqrt(0.5)
            u[rows[c + n_pair], c] = phase[c + n_pair] * np.sqrt(0.5)
        elif lead + n_pair <= c < lead + 2 * n_pair:  # its "-" column
            u[rows[c - n_pair], c] = z * phase[c - n_pair] * np.sqrt(0.5)
            u[rows[c], c] = -z * phase[c] * np.sqrt(0.5)
        else:
            u[rows[c], c] = phase[c]
    return u


def symmetry_decomposition(matrix: SectorMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Dense reference for ``diagonalize``: eigh of each block of ``symmetry_blocks``, rotated back by U.

    Returns the ascending energies, the plane-wave eigenvectors in no fixed
    gauge and, where the basis ``is_real``, the parity of each eigenstate.
    """
    basis = matrix.basis
    energies, columns, parities = [], [], []
    start = 0
    for (_, parity), block in symmetry_blocks(matrix).items():
        e, w = np.linalg.eigh(block)
        padded = np.zeros((basis.dim, e.size))
        padded[start : start + e.size] = w
        start += e.size
        energies.append(e)
        columns.append(padded)
        parities.append(np.full(e.size, parity))
    order = np.argsort(np.concatenate(energies), kind="stable")
    vectors = real_basis_matrix(basis) @ np.concatenate(columns, axis=1)[:, order]
    parity = np.concatenate(parities)[order] if basis.is_real else None
    return np.concatenate(energies)[order], vectors, parity


def labelled_blocks(matrix: SectorMatrix, row_labels: np.ndarray) -> dict[tuple[int, int], np.ndarray]:
    """Dense reference for ``element_blocks`` with row labels.

    The real-basis block U^dagger h U has its columns sorted by descending
    (label of their plane-wave rows, parity), basis order within, and is
    cut at each change.
    """
    basis = matrix.basis
    g = to_real(basis, matrix.entries).real
    labels = np.asarray(row_labels)[basis.real_layout.rows]
    parity = basis.real_layout.parity
    order = np.lexsort((-parity, -labels))
    g, labels, parity = g[np.ix_(order, order)], labels[order], parity[order]
    change = (np.diff(labels) != 0) | (np.diff(parity) != 0)
    edges = [0, *(np.flatnonzero(change) + 1).tolist(), g.shape[0]]
    return {(int(labels[a]), int(parity[a])): g[a:b, a:b] for a, b in zip(edges[:-1], edges[1:])}


def gaussian_fit_chi2(samples: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Reduced chi^2, bin edges and counts of one window's moment-fitted Gaussian against its histogram.

    inf when the fit has no degree of freedom: no spread, or fewer than four
    bins expecting 5 or more counts, as for every sample of 36 or fewer.
    """
    n = samples.size
    mu = samples.mean()
    s = samples.std()
    if s == 0:
        return np.inf, np.array([mu, mu]), np.array([n])
    n_bins = max(8, int(round(np.sqrt(n))))
    edges = np.linspace(mu - 4 * s, mu + 4 * s, n_bins + 1)
    counts, _ = np.histogram(samples, bins=edges)
    cdf = normal_cdf((edges - mu) / s)
    expected = n * np.diff(cdf)
    keep = expected >= 5.0
    dof = int(keep.sum()) - 3
    if dof < 1:
        return np.inf, edges, counts
    chi2 = float(np.sum((counts[keep] - expected[keep]) ** 2 / expected[keep]))
    return chi2 / dof, edges, counts


def write_csv_rows(path, header: list[str], rows) -> None:
    """One CSV file row by row: float cells (numpy's too) through ``fmt_float``, every other cell ``str``."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [fmt_float(c) if isinstance(c, float) else str(c) for c in row]
            fh.write(",".join(cells) + "\n")
