"""Translation orbits and momentum-sector bases for a periodic spin-1/2 chain.

Configurations are integer bitmasks: bit ``i`` holds the spin at site ``i + 1``
(1 = up).  The translation operator moves every spin one site to the right,
which is a left rotation of the bit string.  Orbits under translation are
grouped by their lexicographically smallest member (the representative), and
a momentum basis holds one normalized plane-wave state per admissible orbit,
stored as arrays together with the map of inversion x conjugation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import NamedTuple

import numpy as np

MAX_ENUM_SITES = 24


class ChainSizeError(ValueError):
    """Requested chain length outside the supported range."""


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


@lru_cache(maxsize=4)
def reflect_table(n_sites: int) -> np.ndarray:
    """Vectorized ``reflect`` for all 2^N configurations."""
    states = np.arange(1 << n_sites, dtype=np.int64)
    out = np.zeros_like(states)
    for i in range(n_sites):
        out |= ((states >> i) & 1) << (n_sites - 1 - i)
    return out


@lru_cache(maxsize=4)
def orbit_tables(n_sites: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-configuration orbit data over the full Hilbert space.

    Returns arrays ``(rep, shift, period)`` indexed by configuration:
    ``rep[s]`` is the smallest translate of ``s``, ``period[s]`` the primitive
    period, and ``shift[s]`` the number of translations taking the
    representative onto ``s``.
    """
    if not 2 <= n_sites <= MAX_ENUM_SITES:
        raise ChainSizeError(f"n_sites={n_sites} outside supported range [2, {MAX_ENUM_SITES}]")
    size = 1 << n_sites
    mask = size - 1
    states = np.arange(size, dtype=np.int64)
    cur = states.copy()
    rep = states.copy()
    jmin = np.zeros(size, dtype=np.int16)
    period = np.full(size, n_sites, dtype=np.int16)
    for j in range(1, n_sites):
        cur = ((cur << 1) | (cur >> (n_sites - 1))) & mask
        smaller = cur < rep
        rep[smaller] = cur[smaller]
        jmin[smaller] = j
        closed = (cur == states) & (period == n_sites)
        period[closed] = j
    shift = (period - jmin % period) % period
    return rep, shift.astype(np.int16), period


def _mobius(n: int) -> int:
    if n == 1:
        return 1
    mu, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1 if p == 2 else 2
    if n > 1:
        mu = -mu
    return mu


def _totient(n: int) -> int:
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


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def count_primitive_orbits(t: int) -> int:
    """Number of translation orbits of binary chains with primitive period t."""
    if t < 1:
        raise ValueError("period must be positive")
    total = sum((1 << (t // d)) * _mobius(d) for d in _divisors(t))
    assert total % t == 0
    return total // t


def momentum_admissible(period: int, k: int, n_sites: int) -> bool:
    """An orbit of the given period carries momentum k iff k*t = 0 mod N."""
    return (k * period) % n_sites == 0


def sector_dimension(n_sites: int, k: int, mode: str = "exact") -> int | float:
    """Dimension of the momentum-k basis, exact or the 2^N / N estimate."""
    if not 0 <= k < n_sites:
        raise ValueError(f"momentum k={k} outside [0, {n_sites})")
    if mode == "approx":
        return 2**n_sites / n_sites
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")
    return sum(
        count_primitive_orbits(t)
        for t in _divisors(n_sites)
        if momentum_admissible(t, k, n_sites)
    )


def zero_momentum_dimension_totient(n_sites: int) -> int:
    """Closed-form k=0 dimension: (1/N) sum over d|N of totient(d) 2^{N/d}."""
    total = sum(_totient(d) * (1 << (n_sites // d)) for d in _divisors(n_sites))
    assert total % n_sites == 0
    return total // n_sites


@dataclass(frozen=True, eq=False)
class MomentumBasis:
    """Momentum-k basis: one plane-wave state per orbit whose period t has k t = 0 mod N.

    State ``a`` is the plane wave over the orbit of ``reps[a]`` (its smallest
    member), of period ``periods[a]`` and with ``n_up[a]`` up spins; states
    are ordered by (n_up, representative).  ``partner``/``angle`` is the map
    of the antiunitary A = (inversion) x (complex conjugation):
    A|k,a> = exp(i angle[a]) |k,partner[a]>.  Inversion sends momentum k to
    -k and conjugation sends it back, so A keeps the sector in place; A^2 = 1
    gives partner[partner] = identity and equal angles on both members of a
    pair.  A state is inversion-invariant iff it is its own partner (the
    reflected orbit is the orbit itself), and paired otherwise.
    """

    n_sites: int
    k: int
    reps: np.ndarray
    periods: np.ndarray
    n_up: np.ndarray
    partner: np.ndarray
    angle: np.ndarray

    @property
    def dim(self) -> int:
        return self.reps.size

    def nu_tot(self) -> np.ndarray:
        """Number of basis states per up-spin count n (length N+1)."""
        return np.bincount(self.n_up, minlength=self.n_sites + 1)

    def nu_inv(self) -> np.ndarray:
        """Number of inversion-invariant basis states per up-spin count."""
        return np.bincount(self.n_up[self._invariant], minlength=self.n_sites + 1)

    @property
    def _invariant(self) -> np.ndarray:
        return self.partner == np.arange(self.dim)

    @property
    def n_invariant(self) -> int:
        return int(np.count_nonzero(self._invariant))

    @property
    def delta(self) -> float:
        """Fraction of invariant states, N_inv / N_tot."""
        return self.n_invariant / self.dim

    def config_lookup(self) -> tuple[np.ndarray, np.ndarray]:
        """Maps configuration -> (basis index of its representative, shift).

        Index is -1 for configurations whose orbit does not carry momentum k.
        """
        rep, shift, _ = orbit_tables(self.n_sites)
        return _rep_index(self.reps, self.n_sites)[rep], shift


def _rep_index(reps: np.ndarray, n_sites: int) -> np.ndarray:
    index = np.full(1 << n_sites, -1, dtype=np.int32)
    index[reps] = np.arange(reps.size, dtype=np.int32)
    return index


def popcount(states: np.ndarray, n_sites: int) -> np.ndarray:
    """Number of up spins in each configuration."""
    counts = np.zeros_like(states)
    for i in range(n_sites):
        counts += (states >> i) & 1
    return counts


def momentum_basis(n_sites: int, k: int) -> MomentumBasis:
    """Build the momentum-k basis from admissible orbits, with its inversion map."""
    if not 0 <= k < n_sites:
        raise ValueError(f"momentum k={k} outside [0, {n_sites})")
    rep_of, shift_of, period_of = orbit_tables(n_sites)
    states = np.arange(1 << n_sites, dtype=np.int64)
    reps = states[(rep_of == states) & momentum_admissible(period_of, k, n_sites)]
    n_up = popcount(reps, n_sites)
    order = np.lexsort((reps, n_up))
    reps, n_up = reps[order], n_up[order]
    reflected = reflect_table(n_sites)[reps]
    partner = _rep_index(reps, n_sites)[rep_of[reflected]].astype(np.int64)
    assert np.array_equal(partner[partner], np.arange(reps.size))
    steps = (k * shift_of[reflected].astype(np.int64)) % n_sites
    return MomentumBasis(
        n_sites=n_sites,
        k=k,
        reps=reps,
        periods=period_of[reps].astype(np.int64),
        n_up=n_up,
        partner=partner,
        angle=2 * np.pi * steps / n_sites,
    )


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
