"""Brute-force references that the tests hold the package's fast paths against.

None of these run in the pipeline: single-configuration bit operations,
closed-form and exhaustive counts, explicit powers of H, spectral sums over
eigenvectors, and quadrature moments of a fitted Gibbs density.
"""

from math import comb
from typing import NamedTuple

import numpy as np

from isingchaos.eigensolve import EigenDecomposition
from isingchaos.hamiltonian import FULL_BASIS_MAX_SITES, ModelParams, build_full_hamiltonian
from isingchaos.spin_basis import ChainSizeError, _divisors, orbit_tables, popcount, reflect_table
from isingchaos.statmodel import (
    GibbsFit,
    _panel_quadrature,
    _power_table,
    _std_moments,
    _std_to_energy_moments,
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
