"""Translation orbits and momentum-sector bases for a periodic spin-1/2 chain.

Configurations are integer bitmasks: bit ``i`` holds the spin at site ``i + 1``
(1 = up).  The translation operator moves every spin one site to the right,
which is a left rotation of the bit string.  Orbits under translation are
grouped by their lexicographically smallest member (the representative), and
momentum bases are built from one normalized plane-wave state per admissible
orbit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from typing import NamedTuple

import numpy as np

MAX_ENUM_SITES = 24

INVARIANT = "invariant"
PAIRED = "paired"


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


@dataclass(frozen=True)
class SpinConfig:
    """A length-N configuration stored as a bitmask (bit i = site i+1)."""

    bits: int
    n_sites: int

    def __post_init__(self):
        if self.n_sites < 2:
            raise ChainSizeError("need at least 2 sites")
        if not 0 <= self.bits < (1 << self.n_sites):
            raise ValueError("bitmask outside configuration space")

    @property
    def n_up(self) -> int:
        return self.bits.bit_count()

    def as_tuple(self) -> tuple[int, ...]:
        return tuple((self.bits >> i) & 1 for i in range(self.n_sites))


@dataclass(frozen=True)
class Orbit:
    """A translation orbit, identified by its minimal translate."""

    representative: int
    period: int
    n_sites: int

    @property
    def n_up(self) -> int:
        return self.representative.bit_count()

    def members(self) -> tuple[int, ...]:
        return tuple(
            rotate_left(self.representative, self.n_sites, j) for j in range(self.period)
        )


def enumerate_orbits(n_sites: int) -> list[Orbit]:
    """All translation orbits, ordered by (up-spin count, representative)."""
    rep, _, period = orbit_tables(n_sites)
    states = np.arange(1 << n_sites, dtype=np.int64)
    is_rep = rep == states
    reps = states[is_rep]
    pers = period[is_rep]
    orbits = [
        Orbit(int(r), int(t), n_sites) for r, t in zip(reps.tolist(), pers.tolist())
    ]
    orbits.sort(key=lambda o: (o.n_up, o.representative))
    total = sum(o.period for o in orbits)
    assert total == 1 << n_sites
    return orbits


@dataclass
class MomentumBasisState:
    """One plane-wave basis state: an orbit carrying momentum k."""

    orbit: Orbit
    momentum: int
    inversion_class: str | None = None
    partner_index: int | None = None

    @property
    def normalization(self) -> float:
        return 1.0 / np.sqrt(self.orbit.period)


@dataclass
class MomentumBasis:
    """Ordered momentum-sector basis with inversion classification."""

    n_sites: int
    k: int
    states: list[MomentumBasisState]
    index_of_rep: dict[int, int] = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.states)

    def nu_tot(self) -> np.ndarray:
        """Number of basis states per up-spin count n (length N+1)."""
        counts = np.zeros(self.n_sites + 1, dtype=np.int64)
        for st in self.states:
            counts[st.orbit.n_up] += 1
        return counts

    def nu_inv(self) -> np.ndarray:
        """Number of inversion-invariant basis states per up-spin count."""
        counts = np.zeros(self.n_sites + 1, dtype=np.int64)
        for st in self.states:
            if st.inversion_class == INVARIANT:
                counts[st.orbit.n_up] += 1
        return counts

    @property
    def n_invariant(self) -> int:
        return sum(1 for st in self.states if st.inversion_class == INVARIANT)

    @property
    def delta(self) -> float:
        """Fraction of invariant states, N_inv / N_tot."""
        return self.n_invariant / self.dim

    def up_counts(self) -> np.ndarray:
        return np.array([st.orbit.n_up for st in self.states], dtype=np.int64)

    def representatives(self) -> np.ndarray:
        return np.array([st.orbit.representative for st in self.states], dtype=np.int64)

    def config_lookup(self) -> tuple[np.ndarray, np.ndarray]:
        """Maps configuration -> (basis index of its representative, shift).

        Index is -1 for configurations whose orbit does not carry momentum k.
        """
        rep, shift, _ = orbit_tables(self.n_sites)
        index = np.full(1 << self.n_sites, -1, dtype=np.int32)
        index[self.representatives()] = np.arange(self.dim, dtype=np.int32)
        return index[rep], shift


def momentum_basis(n_sites: int, k: int, classify: bool = True) -> MomentumBasis:
    """Build the momentum-k basis from admissible orbits."""
    if not 0 <= k < n_sites:
        raise ValueError(f"momentum k={k} outside [0, {n_sites})")
    orbits = enumerate_orbits(n_sites)
    states = [
        MomentumBasisState(orbit=o, momentum=k)
        for o in orbits
        if momentum_admissible(o.period, k, n_sites)
    ]
    basis = MomentumBasis(
        n_sites=n_sites,
        k=k,
        states=states,
        index_of_rep={st.orbit.representative: i for i, st in enumerate(states)},
    )
    if classify:
        classify_inversion(basis)
    return basis


def inversion_conjugation_map(basis: MomentumBasis) -> tuple[np.ndarray, np.ndarray]:
    """The antiunitary A = (inversion) x (complex conjugation) on the sector.

    Returns ``(partner, angle)`` with A|k,a> = exp(i angle[a]) |k,partner[a]>.
    Inversion sends momentum k to -k and conjugation sends it back, so A keeps
    every sector in place; A^2 = 1 gives partner[partner] = identity and equal
    angles on both members of a pair.
    """
    n = basis.n_sites
    _, shift_of, _ = orbit_tables(n)
    reflected = reflect_table(n)[basis.representatives()]
    index_of_config, _ = basis.config_lookup()
    partner = index_of_config[reflected].astype(np.int64)
    steps = (basis.k * shift_of[reflected].astype(np.int64)) % n
    return partner, 2 * np.pi * steps / n


def classify_inversion(basis: MomentumBasis) -> MomentumBasis:
    """Mark each basis state invariant or paired under geometric inversion.

    A state is invariant iff the reflected orbit coincides with its own orbit
    (reflection is then equivalent to some translation); otherwise the state
    is paired with the distinct state built from the reflected orbit.
    """
    partner, _ = inversion_conjugation_map(basis)
    assert np.array_equal(partner[partner], np.arange(basis.dim))
    for i, (st, j) in enumerate(zip(basis.states, partner.tolist())):
        if j == i:
            st.inversion_class = INVARIANT
            st.partner_index = None
        else:
            st.inversion_class = PAIRED
            st.partner_index = j
    return basis


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
    n_of = np.array([int(r).bit_count() for r in reps.tolist()], dtype=np.int64)
    return InvariantCount(int(np.sum(invariant & (n_of == n_up))), False)


def dump_basis_jsonl(basis: MomentumBasis, path) -> None:
    """Write one JSON record per basis state (stable external format)."""
    with open(path, "w") as fh:
        for st in basis.states:
            fh.write(
                json.dumps(
                    {
                        "repr": st.orbit.representative,
                        "period": st.orbit.period,
                        "k": basis.k,
                        "n": st.orbit.n_up,
                        "inv_class": st.inversion_class,
                        "partner_index": st.partner_index,
                    }
                )
                + "\n"
            )


def load_basis_jsonl(path) -> list[dict]:
    """Read back records produced by ``dump_basis_jsonl``."""
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]
