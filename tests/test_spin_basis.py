"""Orbit enumeration, momentum bases, and inversion classification.

Brute-force oracles (explicit rotation/reflection over all bit strings) back
every combinatorial claim before the closed-form counts are trusted.
"""

from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isingchaos.spin_basis import (
    ChainSizeError,
    momentum_admissible,
    momentum_basis,
    orbit_tables,
    sector_counts,
)
from oracles import (
    delta_by_enumeration,
    invariant_counts,
    nu_inv_by_enumeration,
    nu_tot_by_enumeration,
    reflect,
    rotate_left,
    zero_momentum_dimension_totient,
)


def brute_orbits(n_sites: int) -> dict[int, set[int]]:
    """Oracle: group all bit strings by explicit rotation."""
    seen: dict[int, set[int]] = {}
    done = set()
    for s in range(1 << n_sites):
        if s in done:
            continue
        members = {rotate_left(s, n_sites, j) for j in range(n_sites)}
        rep = min(members)
        seen[rep] = members
        done |= members
    return seen


@pytest.mark.parametrize("n_sites", [2, 3, 4, 5, 6, 7, 8, 10, 12])
def test_orbits_match_bruteforce_partition(n_sites):
    # every period admits k = 0, so the k = 0 basis holds one state per orbit
    oracle = brute_orbits(n_sites)
    basis = momentum_basis(n_sites, 0)
    assert basis.dim == len(oracle)
    covered = set()
    for rep, period, n_up in zip(basis.reps.tolist(), basis.periods.tolist(), basis.n_up.tolist()):
        members = {rotate_left(rep, n_sites, j) for j in range(period)}
        assert members == oracle[rep]
        assert len(members) == period
        assert not members & covered
        covered |= members
        assert all(m.bit_count() == n_up for m in members)
    assert len(covered) == 1 << n_sites


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=2, max_value=13))
def test_orbit_partition_property(n_sites):
    basis = momentum_basis(n_sites, 0)
    assert basis.periods.sum() == 1 << n_sites
    assert np.unique(basis.reps).size == basis.dim


def test_spec_orbit_examples():
    n4 = momentum_basis(4, 0)
    assert n4.dim == 6
    assert sorted(n4.periods.tolist()) == [1, 1, 2, 4, 4, 4]
    n2 = momentum_basis(2, 0)
    assert {
        frozenset(rotate_left(r, 2, j) for j in range(t))
        for r, t in zip(n2.reps.tolist(), n2.periods.tolist())
    } == {
        frozenset({0}),
        frozenset({3}),
        frozenset({1, 2}),
    }
    assert momentum_basis(17, 0).dim == 7712


def test_orbit_tables_shift_semantics():
    rep, shift, period = orbit_tables(6)
    for s in range(64):
        assert rotate_left(int(rep[s]), 6, int(shift[s])) == s
        assert rotate_left(s, 6, int(period[s])) == s
        assert all(rotate_left(s, 6, j) != s for j in range(1, int(period[s])))


def test_enumeration_range_error():
    with pytest.raises(ChainSizeError):
        momentum_basis(1, 0)
    with pytest.raises(ChainSizeError):
        orbit_tables(30)


def brute_primitive_count(t: int) -> int:
    """Oracle: count length-t strings of primitive period exactly t, / t."""
    count = 0
    for s in range(1 << t):
        if all(rotate_left(s, t, j) != s for j in range(1, t)):
            count += 1
    assert count % t == 0
    return count // t


def primitive_orbits(t: int) -> int:
    """Orbits of primitive period t, counted by ``sector_counts``.

    On a ring of t sites the momentum-1 sector admits only period t, since
    1 * t' = 0 mod t needs t' = t; a ring of one site has only k = 0.
    """
    return sector_counts(t, 1 % t).dim


@pytest.mark.parametrize("t,expected", [(1, 2), (2, 1), (4, 3)])
def test_primitive_orbit_examples(t, expected):
    assert primitive_orbits(t) == expected
    assert brute_primitive_count(t) == expected


@pytest.mark.parametrize("t", range(1, 13))
def test_primitive_counts_match_bruteforce(t):
    assert primitive_orbits(t) == brute_primitive_count(t)


@pytest.mark.parametrize("n_sites", range(2, 21))
def test_divisor_sum_identity(n_sites):
    total = sum(primitive_orbits(t) * t for t in range(1, n_sites + 1) if n_sites % t == 0)
    assert total == 1 << n_sites


def test_sector_dimension_examples():
    assert [sector_counts(4, k).dim for k in range(4)] == [6, 3, 4, 3]
    # prime-chain closed forms: at k = 0 the two uniform chains and the primitive
    # orbits, elsewhere the primitive orbits alone
    assert sector_counts(17, 0).dim == (2**17 + 2 * 16) // 17 == 7712
    assert sector_counts(17, 2).dim == (2**17 - 2) // 17 == 7710
    with pytest.raises(ValueError):
        sector_counts(5, 5)


@pytest.mark.parametrize("n_sites", range(2, 17))
def test_sector_dimensions_sum_to_hilbert_space(n_sites):
    dims = [sector_counts(n_sites, k).dim for k in range(n_sites)]
    assert sum(dims) == 1 << n_sites
    assert dims[0] == zero_momentum_dimension_totient(n_sites)
    for k in range(1, n_sites):
        assert dims[k] == dims[n_sites - k]


@pytest.mark.parametrize("n_sites", [4, 6, 8, 9, 10])
def test_sector_dimension_matches_enumeration(n_sites):
    for k in range(n_sites):
        basis = momentum_basis(n_sites, k)
        assert basis.dim == sector_counts(n_sites, k).dim
        for period in basis.periods.tolist():
            assert momentum_admissible(period, k, n_sites)


def test_reflect():
    assert reflect(0b00011, 5) == 0b11000
    assert reflect(0b10110, 5) == 0b01101
    assert all(reflect(reflect(s, 7), 7) == s for s in range(128))


def test_classify_inversion_examples():
    basis = momentum_basis(5, 0)
    i = basis.reps.tolist().index(0b00011)
    assert basis.partner[i] == i

    b17 = momentum_basis(17, 0)
    assert b17.n_invariant == 512
    assert b17.n_invariant == 2 ** (17 // 2 + 1)


def brute_invariant_orbits(n_sites: int) -> set[int]:
    """Oracle: orbits whose reflected member set equals the orbit itself."""
    out = set()
    for rep, members in brute_orbits(n_sites).items():
        if {reflect(m, n_sites) for m in members} == members:
            out.add(rep)
    return out


@pytest.mark.parametrize("n_sites", [5, 6, 7, 8, 10])
def test_classification_matches_bruteforce_reflection(n_sites):
    oracle = brute_invariant_orbits(n_sites)
    basis = momentum_basis(n_sites, 0)
    marked = set(basis.reps[basis.partner == np.arange(basis.dim)].tolist())
    assert marked == oracle


@pytest.mark.parametrize("n_sites,k", [(8, 1), (9, 0), (10, 5), (12, 3)])
def test_pairing_is_an_involution(n_sites, k):
    basis = momentum_basis(n_sites, k)
    for i, j in enumerate(basis.partner.tolist()):
        assert 0 <= j < basis.dim
        assert basis.partner[j] == i
        assert basis.angle[j] == basis.angle[i]


def test_invariant_count_examples():
    assert invariant_counts(17, 4) == (comb(8, 2), True)
    assert invariant_counts(17, 4).count == 28
    total = sum(invariant_counts(17, n).count for n in range(18))
    assert total == 512
    assert invariant_counts(5, 2) == (2, True)
    # odd-chain formula against enumeration
    for n_sites in (5, 7, 9, 11):
        basis = momentum_basis(n_sites, 0)
        nu = nu_inv_by_enumeration(basis)
        for n in range(n_sites + 1):
            assert invariant_counts(n_sites, n).count == nu[n]


def test_invariant_count_even_fallback():
    for n_sites in (6, 8):
        basis = momentum_basis(n_sites, 0)
        nu = nu_inv_by_enumeration(basis)
        for n in range(n_sites + 1):
            result = invariant_counts(n_sites, n)
            assert result.by_formula is False
            assert result.count == nu[n]


@pytest.mark.parametrize("n_sites,k", [(8, 0), (9, 3), (17, 0)])
def test_nu_count_sums(n_sites, k):
    basis = momentum_basis(n_sites, k)
    assert nu_tot_by_enumeration(basis).sum() == basis.dim
    assert nu_inv_by_enumeration(basis).sum() == basis.n_invariant


def test_basis_ordering_deterministic():
    basis = momentum_basis(9, 2)
    keys = list(zip(basis.n_up.tolist(), basis.reps.tolist()))
    assert keys == sorted(keys)


def test_config_lookup_roundtrip():
    basis = momentum_basis(8, 2)
    rep_idx, shift = basis.config_lookup()
    for s in range(256):
        i = rep_idx[s]
        if i < 0:
            continue
        rep = int(basis.reps[i])
        assert rotate_left(rep, 8, int(shift[s])) == s
    admissible = {rotate_left(r, 8, j) for r in basis.reps.tolist() for j in range(8)}
    assert {s for s in range(256) if rep_idx[s] >= 0} == admissible


def brute_basis(n_sites: int, k: int) -> dict[str, np.ndarray]:
    """Oracle: the basis arrays built state by state from rotations and reflections."""

    def orbit_rep(s: int) -> int:
        return min(rotate_left(s, n_sites, j) for j in range(n_sites))

    def period(s: int) -> int:
        return next(j for j in range(1, n_sites + 1) if rotate_left(s, n_sites, j) == s)

    reps = [s for s in range(1 << n_sites) if s == orbit_rep(s) and k * period(s) % n_sites == 0]
    reps.sort(key=lambda s: (s.bit_count(), s))
    index = {r: i for i, r in enumerate(reps)}
    partner, angle = [], []
    for r in reps:
        image = reflect(r, n_sites)
        image_rep = orbit_rep(image)
        shift = next(j for j in range(n_sites) if rotate_left(image_rep, n_sites, j) == image)
        partner.append(index[image_rep])
        angle.append(2 * np.pi * (k * shift % n_sites) / n_sites)
    return {
        "reps": np.array(reps),
        "periods": np.array([period(r) for r in reps]),
        "n_up": np.array([r.bit_count() for r in reps]),
        "partner": np.array(partner),
        "angle": np.array(angle),
    }


@pytest.mark.parametrize("n_sites,k", [(8, 4), (9, 0), (10, 5), (12, 3)])
def test_basis_arrays_match_bruteforce(n_sites, k):
    basis = momentum_basis(n_sites, k)
    oracle = brute_basis(n_sites, k)
    assert basis.dim == oracle["reps"].size
    for name, expected in oracle.items():
        np.testing.assert_array_equal(getattr(basis, name), expected, err_msg=name)


@pytest.mark.parametrize("n_sites", range(2, 21))
def test_sector_counts_match_enumeration(n_sites):
    for k in range(n_sites):
        counts = sector_counts(n_sites, k)
        basis = momentum_basis(n_sites, k)
        assert counts.k == k and counts.is_real == basis.is_real
        np.testing.assert_array_equal(counts.nu_tot, nu_tot_by_enumeration(basis))
        np.testing.assert_array_equal(counts.nu_inv, nu_inv_by_enumeration(basis))
        assert counts.dim == basis.dim
        assert counts.n_invariant == basis.n_invariant
        assert counts.delta == delta_by_enumeration(basis)


@pytest.mark.parametrize("n_sites", [*range(2, 21), *range(25, 33)])
def test_sector_counts_identities(n_sites):
    # beyond N = 24 nothing can be enumerated: the closed forms are held to each other
    dims = []
    for k in range(n_sites):
        counts = sector_counts(n_sites, k)
        assert counts.nu_tot.dtype == counts.nu_inv.dtype == np.int64
        assert counts.n_invariant == counts.nu_inv.sum() and counts.delta == counts.n_invariant / counts.dim
        assert np.all(counts.nu_inv >= 0) and np.all(counts.nu_inv <= counts.nu_tot)
        # spin flip maps n up spins to N - n and commutes with translation and inversion
        np.testing.assert_array_equal(counts.nu_tot, counts.nu_tot[::-1])
        np.testing.assert_array_equal(counts.nu_inv, counts.nu_inv[::-1])
        dims.append(counts.dim)
    assert sum(dims) == 1 << n_sites
    # every orbit carries k = 0, so the k = 0 counts are the necklaces of each weight
    zero = sector_counts(n_sites, 0)
    assert zero.dim == zero_momentum_dimension_totient(n_sites)
    if n_sites % 2:  # odd chains have closed forms for the invariant states too
        assert zero.nu_inv.tolist() == [invariant_counts(n_sites, n).count for n in range(n_sites + 1)]
        assert zero.n_invariant == 2 ** (n_sites // 2 + 1)


def test_sector_counts_refuse_what_int64_cannot_hold():
    # 2^69 / 69 states fit int64; 2^70 / 70 do not
    # 69 = 3 * 23: the totient sum at k = 0, and at k = 68 the primitive orbits of
    # period 69 alone, by Moebius inversion over its divisors 1, 3, 23 and 69
    assert sector_counts(69, 0).dim == zero_momentum_dimension_totient(69) < 2**63
    assert sector_counts(69, 68).dim == (2**69 - 2**23 - 2**3 + 2) // 69 < 2**63
    with pytest.raises(ChainSizeError, match="int64"):
        sector_counts(70, 0)
    with pytest.raises(ChainSizeError, match="int64"):
        sector_counts(70, 1)
