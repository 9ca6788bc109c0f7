"""Translation orbits and momentum-sector bases for a periodic spin-1/2 chain.

Configurations are integer bitmasks: bit ``i`` holds the spin at site ``i + 1``
(1 = up).  The translation operator moves every spin one site to the right,
which is a left rotation of the bit string.  Orbits under translation are
grouped by their lexicographically smallest member (the representative), and
a momentum basis holds one normalized plane-wave state per admissible orbit,
stored as arrays together with the map of inversion x conjugation and the
real basis that map defines.  ``sector_counts`` counts a sector's states per
up-spin number, and the inversion-invariant ones, in closed form, without
enumerating the 2^N configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb, gcd
from typing import NamedTuple

import numpy as np

MAX_ENUM_SITES = 24


class ChainSizeError(ValueError):
    """Requested chain length outside the supported range."""


@lru_cache(maxsize=4)
def reflect_table(n_sites: int) -> np.ndarray:
    """Geometric inversion (site order reversed) of all 2^N configurations."""
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
    A-invariant basis U, which the basis owns (``real_layout``, ``to_real``,
    ``from_real``).  U has at most two nonzeros per column.  Where ``is_real``
    (k = 0 and k = N/2) every phase exp(i angle) is +-1, A is the inversion P
    times conjugation, and U is the real parity basis: e_a with parity
    exp(i angle_a) for each invariant state, and for each pair (a, b =
    partner[a]) with p = exp(i angle_a) the columns (e_a +- p e_b)/sqrt2 with
    parity +-1.  Its columns are ordered even invariant states, "+"
    combinations, "-" combinations, odd invariant states, so the even and the
    odd block of U^T h U are contiguous.  Elsewhere U has the columns
    exp(i angle_a / 2) e_a for each invariant state, then (e_a + p e_b)/sqrt2
    and i (e_a - p e_b)/sqrt2 for each pair, all of parity 0.
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

    @cached_property
    def real_layout(self) -> "RealLayout":
        """The plane-wave rows and phases of U, grouped as the class docstring orders its columns."""
        idx = np.arange(self.dim)
        invariant = idx[self.partner == idx]
        first = idx[self.partner > idx]
        if self.is_real:
            sign = np.where(self.angle == 0, 1.0, -1.0)  # angle is exactly 0 or pi here
            odd = sign[invariant] < 0
            invariant, trailing = invariant[~odd], invariant[odd]
            lead_phase, pair_phase = np.ones(invariant.size), sign[first]
        else:
            trailing = idx[:0]
            lead_phase = np.exp(0.5j * self.angle[invariant])
            pair_phase = np.exp(1j * self.angle[first])
        n_even = invariant.size + first.size
        return RealLayout(
            rows=np.concatenate([invariant, first, self.partner[first], trailing]),
            phase=np.concatenate([lead_phase, np.ones(first.size), pair_phase, np.ones(trailing.size)]),
            lead=invariant.size,
            n_pair=first.size,
            parity=(np.where(idx < n_even, 1, -1) * self.is_real).astype(np.int8),
        )

    def real_entries(self) -> tuple[np.ndarray, np.ndarray]:
        """The nonzeros of U by plane-wave row: U[a, col[a, j]] = coef[a, j] for j = 0, 1.

        ``col[a]`` holds the "+" and the "-" column of the pair of state a; an
        invariant state has one column, so its ``coef[a, 1]`` is 0.
        """
        rows, phase, lead, n_pair, _ = self.real_layout
        z = 1.0 if self.is_real else 1j
        first = slice(lead, lead + n_pair)
        second = slice(lead + n_pair, lead + 2 * n_pair)
        position = np.arange(self.dim)
        col = np.stack([position, position], axis=1)
        col[first, 1] = position[second]
        col[second, 0] = position[first]
        coef = np.zeros((self.dim, 2), dtype=np.result_type(phase, z))
        coef[:, 0] = 1.0
        coef[first] = [np.sqrt(0.5), z * np.sqrt(0.5)]
        coef[second] = [np.sqrt(0.5), -z * np.sqrt(0.5)]
        coef *= phase[:, None]
        out_col, out_coef = np.empty_like(col), np.empty_like(coef)
        out_col[rows], out_coef[rows] = col, coef
        return out_col, out_coef

    def to_real(self, h: np.ndarray) -> np.ndarray:
        """U^dagger h U for a matrix ``h`` over this basis.

        Real for a real ``h`` where ``is_real``; complex elsewhere, with an
        imaginary part that vanishes when ``h`` commutes with A.
        """
        rows, phase, lead, n_pair, _ = self.real_layout
        g = h[np.ix_(rows, rows)].astype(np.result_type(h, phase), copy=False)
        g *= phase.conj()[:, None]
        g *= phase[None, :]
        z = 1.0 if self.is_real else 1j
        _mix_pairs(g, lead, n_pair, np.conj(z))  # rows: the conjugate of U's pair block
        _mix_pairs(g.T, lead, n_pair, z)  # columns
        return g

    def from_real(self, w: np.ndarray) -> np.ndarray:
        """U w: real-basis column vectors back to plane-wave coefficients.

        Where ``is_real`` the result is real and ``w`` is overwritten.
        """
        rows, phase, lead, n_pair, _ = self.real_layout
        y = w.astype(np.result_type(w, phase), copy=False)
        if not self.is_real:
            y[lead + n_pair :] *= 1j
        _mix_pairs(y, lead, n_pair, 1.0)
        y *= phase[:, None]
        out = np.empty_like(y)
        out[rows] = y
        return out

    @property
    def n_invariant(self) -> int:
        """Number of inversion-invariant states, those that are their own partner."""
        return int(np.count_nonzero(self.partner == np.arange(self.dim)))

    def config_lookup(self) -> tuple[np.ndarray, np.ndarray]:
        """Maps configuration -> (basis index of its representative, shift).

        Index is -1 for configurations whose orbit does not carry momentum k.
        """
        rep, shift, _ = orbit_tables(self.n_sites)
        return _rep_index(self.reps, self.n_sites)[rep], shift


class RealLayout(NamedTuple):
    """The real basis U of a ``MomentumBasis`` as U = P diag(phase) M.

    P sends position c to plane-wave row ``rows[c]``.  M keeps the ``lead``
    leading and any trailing positions and mixes positions lead + i and
    lead + n_pair + i of pair i into its "+" and its "-" column.
    ``parity`` is the inversion parity of each column: +-1 where the basis
    ``is_real``, 0 elsewhere.
    """

    rows: np.ndarray
    phase: np.ndarray
    lead: int
    n_pair: int
    parity: np.ndarray


def _mix_pairs(x: np.ndarray, start: int, n_pair: int, z: complex) -> None:
    """In place along axis 0: rows (a, b) of each pair become ((a + b), z (a - b))/sqrt2."""
    a = x[start : start + n_pair]
    b = x[start + n_pair : start + 2 * n_pair]
    diff = a - b
    a += b
    a *= np.sqrt(0.5)
    np.multiply(diff, z * np.sqrt(0.5), out=b)


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

