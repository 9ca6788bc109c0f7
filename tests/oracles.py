"""Brute-force references that the tests hold the package's fast paths against.

None of these run in the pipeline: single-configuration bit operations,
closed-form and exhaustive counts, the per-n state counts of an enumerated
basis, a moment set built from given cumulants, explicit powers of H and
their traces over each up-spin class by a transfer matrix, spectral sums
over eigenvectors, quadrature moments and the energy-power multipliers of
a fitted Gibbs density, the full-chain model density of
states, the plane-wave eigenvectors V = U W of the solver's real ones and
the phase that matches two eigenvectors, the dense pre-solve path (the
hermiticity defect of a dense block, its rotation into the real basis and
the checked or labelled symmetry blocks cut from it, and the summed
element list scattered through U in list order), the free-fermion levels of each momentum sector on
the integrable line alpha = 0 and the classical necklace levels on the line
lam = 0, the Gaussian fit of one window at a time, the GOE and Poisson
surrogate spectra that the spacing ratio is checked on, and a CSV writer
that formats cell by cell.
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
    SectorElements,
    SymmetryBreakingError,
    _limit,
    build_full_hamiltonian,
    summed_elements,
)
from isingchaos.moments import LocalMomentSet
from isingchaos.spin_basis import ChainSizeError, MomentumBasis, _divisors, orbit_tables
from isingchaos.statmodel import (
    GibbsFit,
    StrengthModel,
    _panel_quadrature,
    _power_table,
    _std_moments,
    _std_to_energy_moments,
    density_stack,
    fmt_float,
)

# ``from_real`` writes U w in this many chunks of rows, so that its
# temporaries, about 3 / FROM_REAL_CHUNKS of 8 D^2 bytes, stay small
FROM_REAL_CHUNKS = 32


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
    reps = np.flatnonzero(rep_of == np.arange(1 << n_sites))
    reps = reps[np.bitwise_count(reps) == n_up].tolist()
    return InvariantCount(sum(int(rep_of[reflect(rep, n_sites)]) == rep for rep in reps), False)


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
    """A moment set with the given mean, variance and cumulants."""
    return LocalMomentSet(n_up=n_up, e_n=e_n, sigma2=sigma2, k3=k3, k4=k4, k_walls=k_walls)


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


def class_traces(params: ModelParams, j: int) -> np.ndarray:
    """tr_n H^m for m = 0..j and n = 0..N: the trace of H^m over the configurations with n up spins.

    A transfer matrix at any N.  Each of the j factors of H^j is read site by
    site as a 4-state automaton: 0 before its term, 1 inside a bond, 2 after
    its term, and 3 inside the bond that wraps from site 1 to site N, which
    only site 1 opens and only site N closes.  The sites are contracted one
    at a time, and tr(z^n_up H^j) is carried as a polynomial in the fugacity
    z, whose coefficient of z^n is tr_n.  A factor that ends in state 0 placed
    no term and is the identity, so the end states with m factors at 2 and
    the rest at 0 give tr_n H^m.  Returns an array of shape (j + 1, N + 1).
    """
    n = params.n_sites
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    bulk = np.zeros((4, 4, 2, 2))  # [state before, state after, row spin, column spin]; spin 1 is up
    bulk[0, 0] = bulk[2, 2] = bulk[3, 3] = np.eye(2)
    bulk[0, 1] = x
    bulk[1, 2] = -x
    bulk[0, 2] = np.diag([params.lam, -params.lam]) - params.alpha * x
    first, last = bulk.copy(), bulk.copy()
    first[0, 3] = x
    last[3, 2] = -x
    carry = np.zeros((4,) * j + (n + 1,))  # [state of each factor, power of z]
    carry[(0,) * j + (0,)] = 1.0
    for site in range(n):
        w = first if site == 0 else last if site == n - 1 else bulk
        # [spin of the trace, spin after the factors so far, states, power of z]:
        # the sites before this one reach z^site at most
        t = np.zeros((2, 2) + carry.shape[:-1] + (site + 1,))
        t[0, 0] = t[1, 1] = carry[..., : site + 1]
        for i in range(j):
            t = np.tensordot(t, w, axes=([1, 2 + i], [2, 0]))
            t = np.moveaxis(t, [-1, -2], [1, 2 + i])
        carry[..., : site + 1] = t[0, 0]
        carry[..., 1 : site + 2] += t[1, 1]  # an up spin multiplies by z
    return np.stack([carry[(2,) * m + (0,) * (j - m)] for m in range(j + 1)])


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
    decomp: EigenDecomposition, basis: MomentumBasis, symbol_index: int, bins: int = 60
) -> tuple[np.ndarray, np.ndarray]:
    """|C|^2-weighted histogram of the spectrum: the empirical P_n(E), with C the row of V = U W.

    Returns (bin_edges, density); the density integrates to the total weight
    sum |C|^2 = 1.
    """
    weights = np.abs(from_real(basis, decomp.vectors)[symbol_index]) ** 2
    counts, edges = np.histogram(decomp.energies, bins=bins, weights=weights)
    density = counts / np.diff(edges)
    return edges, density


def strength_moments(
    decomp: EigenDecomposition, basis: MomentumBasis, symbol_index: int, order: int = 4
) -> np.ndarray:
    """Spectral moments sum_a |C(a)|^2 E_a^j for j = 1..order, with C the row of V = U W."""
    w = np.abs(from_real(basis, decomp.vectors)[symbol_index]) ** 2
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
    return (counts / counts.sum()) @ density_stack(model, energy)


def hermiticity_defect(matrix: np.ndarray) -> float:
    """Largest absolute deviation from H = H^dagger."""
    return float(np.max(np.abs(matrix - matrix.conj().T)))


def real_basis_matrix(basis: MomentumBasis) -> np.ndarray:
    """The dense real basis U, column by column from ``partner``/``angle``, as the ``MomentumBasis`` docstring has it.

    Real where ``basis.is_real`` (every phase exp(i angle) is +-1 there), complex elsewhere.
    """
    z = 1.0 if basis.is_real else 1j
    phase = np.exp(1j * basis.angle)
    if basis.is_real:
        phase = np.round(phase.real)
    u = np.zeros((basis.dim, basis.dim), dtype=phase.dtype)
    for a in range(basis.dim):
        b = int(basis.partner[a])
        if b == a:  # an invariant state keeps its own column
            u[a, a] = 1.0 if basis.is_real else np.exp(0.5j * basis.angle[a])
        elif a < b:  # a pair's "+" combination, at its lower index
            u[a, a] = np.sqrt(0.5)
            u[b, a] = phase[a] * np.sqrt(0.5)
        else:  # its "-" combination, at its upper index
            u[b, a] = z * np.sqrt(0.5)
            u[a, a] = -z * phase[b] * np.sqrt(0.5)
    return u


def from_real(basis: MomentumBasis, w: np.ndarray) -> np.ndarray:
    """U w, as a new array: real-basis column vectors back to plane-wave coefficients.

    Row a of U w is coef[a, 0] w[col[a, 0]] + coef[a, 1] w[col[a, 1]],
    with the nonzeros of ``basis.real_entries``.  It is written in
    ``FROM_REAL_CHUNKS`` chunks of rows, so that the temporaries stay a
    small fraction of the result.
    """
    col, coef = basis.real_entries()
    out = np.empty(w.shape, dtype=np.result_type(w, coef))
    step = -(-basis.dim // FROM_REAL_CHUNKS)
    for start in range(0, basis.dim, step):
        part = slice(start, start + step)
        rows = out[part]
        np.multiply(coef[part, :1], w[col[part, 0]], out=rows)
        rows += coef[part, 1:] * w[col[part, 1]]
    return out


def column_phases(v: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Per column, the unit phase z that brings column j of ``v`` nearest to that of ``ref``: z = <v_j, ref_j> / |.|.

    For two gauges of one nondegenerate eigenvector, ``v * z`` equals ``ref``
    up to round-off, and z is +-1 where both are fixed by a sign.
    """
    overlap = np.einsum("ij,ij->j", v.conj(), ref)
    return overlap / np.abs(overlap)


def to_real(basis: MomentumBasis, h: np.ndarray) -> np.ndarray:
    """U^dagger h U for a dense matrix ``h`` over ``basis``, with the dense U of ``real_basis_matrix``.

    Real for a real ``h`` where ``basis.is_real``; complex elsewhere, with
    an imaginary part that vanishes when ``h`` commutes with A.
    """
    u = real_basis_matrix(basis)
    return u.conj().T @ h @ u


def symmetry_blocks(matrix: SectorMatrix) -> dict[tuple[int, int], np.ndarray]:
    """Dense reference for ``element_blocks``: the checked real blocks of a dense sector matrix.

    The columns carry the inversion parity of the real basis
    (``column_parity``): +-1 at k = 0 and N/2, 0 elsewhere.  Returns
    ``{(0, parity): block}`` in descending key order, each block over the
    columns of its parity in ascending order.  With limit
    ``HERMITICITY_TOL`` * max(1, max|h|), raises ``NonHermitianError`` if
    |h - h^dagger| exceeds it and ``SymmetryBreakingError`` if, in the real
    basis, an imaginary part or an entry coupling two blocks does.
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
    parity = basis.column_parity
    coupling = float(np.max(np.abs(g[parity[:, None] != parity[None, :]]), initial=0.0))
    if coupling > limit:
        raise SymmetryBreakingError(f"block couples two symmetry blocks by {coupling:.3e}")
    return {(0, p): g[np.ix_(parity == p, parity == p)] for p in sorted(set(parity.tolist()), reverse=True)}


def symmetry_decomposition(matrix: SectorMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense reference for ``diagonalize``: eigh of each block of ``symmetry_blocks``, rotated back by U.

    Returns the ascending energies, the plane-wave eigenvectors in no fixed
    gauge and the parity of each eigenstate's block (0 where the basis is
    not ``is_real``).
    """
    basis = matrix.basis
    energies, columns, parities = [], [], []
    for (_, parity), block in symmetry_blocks(matrix).items():
        e, w = np.linalg.eigh(block)
        padded = np.zeros((basis.dim, e.size))
        padded[basis.column_parity == parity] = w
        energies.append(e)
        columns.append(padded)
        parities.append(np.full(e.size, parity))
    order = np.argsort(np.concatenate(energies), kind="stable")
    vectors = real_basis_matrix(basis) @ np.concatenate(columns, axis=1)[:, order]
    return np.concatenate(energies)[order], vectors, np.concatenate(parities)[order]


def labelled_blocks(matrix: SectorMatrix, row_labels: np.ndarray) -> dict[tuple[int, int], np.ndarray]:
    """Dense reference for ``element_blocks`` with row labels.

    Column a of the real-basis block U^dagger h U carries the label of
    plane-wave state a and its inversion parity; each (label, parity) block
    is cut by that mask, its columns in ascending order, and the blocks come
    in descending key order.
    """
    basis = matrix.basis
    g = to_real(basis, matrix.entries).real
    labels = np.asarray(row_labels)
    parity = basis.column_parity
    keys = sorted(set(zip(labels.tolist(), parity.tolist())), reverse=True)
    masks = {key: (labels == key[0]) & (parity == key[1]) for key in keys}
    return {key: g[np.ix_(mask, mask)] for key, mask in masks.items()}


def scattered_blocks(
    basis: MomentumBasis, elements: SectorElements, row_labels: np.ndarray | None = None
) -> dict[tuple[int, int], np.ndarray]:
    """Bit-for-bit reference for ``element_blocks``, without its checks: the summed list scattered through U.

    Each element (a, b, h) of ``summed_elements``, in its (row, col) order,
    adds conj(U[a, c]) h U[b, d] at (c, d) of a dense G for each nonzero
    U[a, c], U[b, d].  The blocks are cut from the real part of
    (G + G^T) / 2 by (label, parity), as in ``labelled_blocks``.
    """
    rows, cols, values = summed_elements(elements, basis.dim)
    col, coef = basis.real_entries()
    terms = coef[rows].conj()[:, :, None] * values[:, None, None] * coef[cols][:, None, :]
    nonzero = (coef[rows] != 0)[:, :, None] & (coef[cols] != 0)[:, None, :]
    at = np.broadcast_arrays(col[rows][:, :, None], col[cols][:, None, :])
    g = np.zeros((basis.dim, basis.dim), dtype=terms.dtype)
    np.add.at(g, (at[0][nonzero], at[1][nonzero]), terms[nonzero])
    g = (g.real + g.real.T) * 0.5
    labels = np.zeros(basis.dim, dtype=int) if row_labels is None else np.asarray(row_labels)
    parity = basis.column_parity
    keys = sorted(set(zip(labels.tolist(), parity.tolist())), reverse=True)
    masks = {key: (labels == key[0]) & (parity == key[1]) for key in keys}
    return {key: g[np.ix_(mask, mask)] for key, mask in masks.items()}


def free_fermion_levels(n_sites: int, lam: float, k: int) -> dict[int, np.ndarray]:
    """Every level of momentum sector ``k`` on the integrable line alpha = 0, by Jordan-Wigner.

    Lieb, Schultz & Mattis, Ann. Phys. 16, 407 (1961); Pfeuty, Ann. Phys.
    57, 79 (1970).  A mode q has the energy 2 sqrt(1 + lam^2 - 2 lam cos q)
    and a level is sum_q eps_q (n_q - 1/2).  An even fermion number takes
    the antiperiodic modes q = 2 pi (m + 1/2) / N, an odd one the periodic
    modes q = 2 pi m / N; a mode with q = -q (q = 0 or pi) is unpaired and
    carries the signed energy 2 (lam - cos q).  The level's momentum is
    sum of the occupied q, times N / 2 pi, mod N.  Returns {fermion-number
    parity (+1 even, -1 odd): ascending levels}; the fermions are the down
    spins, so that parity is the z-parity prod_j sz_j = (-1)^(N - n_up).
    """
    occupied = (np.arange(1 << n_sites)[:, None] >> np.arange(n_sites)) & 1
    odd = occupied.sum(axis=1) % 2 == 1
    levels = {}
    for parity, offset in ((1, 1), (-1, 0)):
        twice_m = 2 * np.arange(n_sites) + offset  # q = pi twice_m / N
        q = np.pi * twice_m / n_sites
        eps = 2 * np.sqrt(1 + lam**2 - 2 * lam * np.cos(q))
        unpaired = twice_m % n_sites == 0
        eps[unpaired] = 2 * (lam - np.cos(q[unpaired]))
        states = occupied[odd == (parity == -1)]
        momentum = (states @ twice_m) // 2 % n_sites  # states @ twice_m is even in both cases
        levels[parity] = np.sort(states[momentum == k] @ eps - eps.sum() / 2)
    return levels


def necklace_levels(n_sites: int, alpha: float, k: int) -> np.ndarray:
    """Every level of momentum sector ``k`` on the line lam = 0, where H is diagonal in the sx basis.

    There a configuration x in {+1, -1}^N of the sx_j has the classical
    energy -sum_j x_j x_{j+1} - alpha sum_j x_j, and translation permutes the
    configurations, as it permutes the sz ones.  So sector k holds one level
    per necklace (translation orbit) whose period t has k t = 0 mod N: the
    orbit's plane wave of momentum k is nonzero just then.  Returns the
    ascending levels.
    """
    configs = np.arange(1 << n_sites)
    x = 1 - 2 * ((configs[:, None] >> np.arange(n_sites)) & 1)
    energy = -np.sum(x * np.roll(x, -1, axis=1), axis=1) - alpha * np.sum(x, axis=1)
    mask = (1 << n_sites) - 1
    shifts = np.arange(1, n_sites + 1)
    rotated = ((configs[:, None] << shifts) | (configs[:, None] >> (n_sites - shifts))) & mask
    period = np.argmax(rotated == configs[:, None], axis=1) + 1  # the shift by N always matches
    representative = rotated.min(axis=1) == configs
    return np.sort(energy[representative & (k * period % n_sites == 0)])


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


def goe_surrogate_levels(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Spectrum of one GOE random matrix."""
    a = rng.standard_normal((dim, dim))
    return np.linalg.eigvalsh((a + a.T) / np.sqrt(2 * dim))


def poisson_surrogate_levels(n: int, rng: np.random.Generator) -> np.ndarray:
    """Levels of an uncorrelated (Poisson) spectrum."""
    return np.sort(rng.uniform(0.0, 1.0, size=n))


def write_csv_rows(path, header: list[str], rows) -> None:
    """One CSV file row by row: float cells (numpy's too) through ``fmt_float``, every other cell ``str``."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [fmt_float(c) if isinstance(c, float) else str(c) for c in row]
            fh.write(",".join(cells) + "\n")
