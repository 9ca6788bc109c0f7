"""Translation orbits and momentum-sector bases for a periodic spin-1/2 chain.

Configurations are integer bitmasks: bit ``i`` holds the spin at site ``i + 1``
(1 = up).  The translation operator moves every spin one site to the right,
which is a left rotation of the bit string.  Orbits under translation are
grouped by their lexicographically smallest member (the representative), and
a momentum basis holds one normalized plane-wave state per admissible orbit,
stored as arrays together with the map of inversion x conjugation and the
real basis that map defines.  That map comes from mirroring the
representatives alone, so ``orbit_tables`` is the only 2^N table.
``sector_counts`` counts a sector's states per up-spin number, and the
inversion-invariant ones, in closed form, without enumerating the 2^N
configurations; its ``dim`` is the package's one sector size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, gcd

import numpy as np

MAX_ENUM_SITES = 24


class ChainSizeError(ValueError):
    """Requested chain length outside the supported range."""


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


def momentum_admissible(period: int, k: int, n_sites: int) -> bool:
    """An orbit of the given period carries momentum k iff k*t = 0 mod N."""
    return (k * period) % n_sites == 0


def is_real_sector(n_sites: int, k: int) -> bool:
    """Whether the momentum-k sector is real: k = 0 or 2k = N, the package's one such rule."""
    return k == 0 or 2 * k == n_sites


def _symmetric_necklaces(m: int, j: int) -> int:
    """Necklaces of length m and weight j equal to their mirror image.

    That is the mean, over the m reflections of the ring, of the weight-j
    strings each one fixes (Burnside).  For odd m every reflection fixes one
    site and pairs the rest; for even m half of them fix two sites and pair
    the rest, and the other half pair all m sites.
    """
    half = m // 2
    if m % 2:
        return comb(half, j // 2)
    through_sites = sum(comb(2, c) * comb(half - 1, (j - c) // 2) for c in range(j % 2, min(j, 2) + 1, 2))
    through_bonds = comb(half, j // 2) if j % 2 == 0 else 0
    return (through_sites + through_bonds) // 2


def _primitive(count, t: int, j: int) -> int:
    """Moebius inversion of ``count(t, j)`` over the common divisors of t and j: its primitive part."""
    return sum(_mobius(d) * count(t // d, j // d) for d in _divisors(gcd(t, j)))


@dataclass(frozen=True, eq=False)
class SectorCounts:
    """The momentum-k basis counted by up-spin number n, without enumerating it.

    ``nu_tot[n]`` is the number of basis states with n up spins and
    ``nu_inv[n]`` the number of those that are inversion-invariant (their
    orbit is its own mirror image); both have length N + 1.  They are what
    the statistical model reads of a sector.
    """

    k: int
    is_real: bool
    nu_tot: np.ndarray
    nu_inv: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.nu_tot.sum())

    @property
    def n_invariant(self) -> int:
        return int(self.nu_inv.sum())

    @property
    def delta(self) -> float:
        """Fraction of invariant states, N_inv / N_tot."""
        return self.n_invariant / self.dim


def sector_counts(n_sites: int, k: int) -> SectorCounts:
    """Exact per-n state counts of the momentum-k sector, in closed form.

    An orbit of primitive period t repeats a primitive necklace of length t
    N/t times, so it carries momentum k iff k t = 0 mod N, and a necklace of
    weight j gives n = j N / t up spins.  Primitive necklaces of length t and
    weight j number (1/t) sum_{d | gcd(t, j)} mu(d) C(t/d, j/d), and the
    mirror-symmetric ones sum_{d | gcd(t, j)} mu(d) F(t/d, j/d) with F the
    count of symmetric necklaces.  A sector whose counts do not fit int64
    raises ``ChainSizeError``.
    """
    if not 0 <= k < n_sites:
        raise ValueError(f"momentum k={k} outside [0, {n_sites})")
    nu_tot = [0] * (n_sites + 1)
    nu_inv = [0] * (n_sites + 1)
    for t in _divisors(n_sites):
        if not momentum_admissible(t, k, n_sites):
            continue
        for j in range(t + 1):
            n = j * (n_sites // t)
            nu_tot[n] += _primitive(comb, t, j) // t
            nu_inv[n] += _primitive(_symmetric_necklaces, t, j)
    dim = sum(nu_tot)
    if dim > np.iinfo(np.int64).max:
        raise ChainSizeError(f"sector k={k} at N={n_sites} has {dim} states, too many to count in int64")
    return SectorCounts(
        k=k,
        is_real=is_real_sector(n_sites, k),
        nu_tot=np.array(nu_tot, dtype=np.int64),
        nu_inv=np.array(nu_inv, dtype=np.int64),
    )


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

    Every sector matrix commutes with A, so it is real symmetric in an
    A-invariant basis U, which the basis owns (``real_entries``,
    ``column_parity``).  U keeps the plane-wave order: its column a belongs
    to state a, and U has at most two nonzeros per column.
    Where ``is_real`` (k = 0 and k = N/2) every phase exp(i angle) is +-1,
    A is the inversion P times conjugation, and U is the real parity basis:
    column a is e_a with parity exp(i angle_a) for each invariant state a,
    and for each pair (a, b = partner[a]) with a < b and p = exp(i angle_a)
    columns a and b are (e_a + p e_b)/sqrt2 and (e_a - p e_b)/sqrt2, of
    parity +1 and -1.  Elsewhere column a is exp(i angle_a / 2) e_a for each
    invariant state, and columns a and b are (e_a + p e_b)/sqrt2 and
    i (e_a - p e_b)/sqrt2 for each pair, all of parity 0.  Which columns
    form which block of U^dagger h U is decided by
    ``hamiltonian.element_blocks`` alone.
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

    @property
    def is_real(self) -> bool:
        """k = 0 and k = N/2: real phases, a real sector matrix and parity-split real basis."""
        return is_real_sector(self.n_sites, self.k)

    @property
    def column_parity(self) -> np.ndarray:
        """The inversion parity of each column of U, as int8: +-1 where ``is_real``, 0 elsewhere."""
        idx = np.arange(self.dim)
        parity = np.where(self.partner < idx, -1, 1)  # a pair's "-" column is its upper index
        parity[(self.partner == idx) & (self.angle != 0)] = -1  # an invariant state's is exp(i angle)
        return (parity * self.is_real).astype(np.int8)

    def real_entries(self) -> tuple[np.ndarray, np.ndarray]:
        """The nonzeros of U by plane-wave row: U[a, col[a, j]] = coef[a, j] for j = 0, 1.

        ``col[a]`` holds the "+" and the "-" column of the pair of state a,
        its lower and its upper index; an invariant state has one column, its
        own, so its ``coef[a, 1]`` is 0.
        """
        idx = np.arange(self.dim)
        col = np.stack([np.minimum(idx, self.partner), np.maximum(idx, self.partner)], axis=1)
        if self.is_real:  # angle is exactly 0 or pi here
            z, phase, own = 1.0, np.where(self.angle == 0, 1.0, -1.0), np.ones(self.dim)
        else:
            z, phase, own = 1j, np.exp(1j * self.angle), np.exp(0.5j * self.angle)
        coef = np.empty((self.dim, 2), dtype=phase.dtype)
        coef[:] = [np.sqrt(0.5), z * np.sqrt(0.5)]  # row a of a pair (a, b), a < b
        upper = self.partner < idx
        coef[upper] *= phase[upper, None] * [1, -1]  # row b: p and -z p
        invariant = self.partner == idx
        coef[invariant, 0] = own[invariant]
        coef[invariant, 1] = 0
        return col, coef

    @property
    def n_invariant(self) -> int:
        """Number of inversion-invariant states, those that are their own partner."""
        return int(np.count_nonzero(self.partner == np.arange(self.dim)))


def _rep_index(reps: np.ndarray, n_sites: int) -> np.ndarray:
    """Per configuration: the basis index of the representative it is, -1 where it is none of ``reps``."""
    index = np.full(1 << n_sites, -1, dtype=np.int32)
    index[reps] = np.arange(reps.size, dtype=np.int32)
    return index


def momentum_basis(n_sites: int, k: int) -> MomentumBasis:
    """Build the momentum-k basis from admissible orbits, with its inversion map."""
    if not 0 <= k < n_sites:
        raise ValueError(f"momentum k={k} outside [0, {n_sites})")
    rep_of, shift_of, period_of = orbit_tables(n_sites)
    states = np.arange(1 << n_sites, dtype=np.int64)
    reps = states[(rep_of == states) & momentum_admissible(period_of, k, n_sites)]
    n_up = np.bitwise_count(reps).astype(np.int64)
    order = np.lexsort((reps, n_up))
    reps, n_up = reps[order], n_up[order]
    reflected = np.zeros_like(reps)  # the geometric inversion (site order reversed) of each representative
    for i in range(n_sites):
        reflected |= ((reps >> i) & 1) << (n_sites - 1 - i)
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

