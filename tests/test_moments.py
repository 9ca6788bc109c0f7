"""Analytic moment formulas against the brute-force spectral oracle."""

from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isingchaos.eigensolve import block_spectra
from isingchaos.hamiltonian import FIELD_SCALE_MAX, ModelParams, sector_elements
from isingchaos.moments import (
    FormulaRangeError,
    analytic_moments,
    mean_domain_wall_count,
)
from isingchaos.spin_basis import ChainSizeError, momentum_basis
from oracles import (
    all_state_moments,
    bruteforce_state_moments,
    class_traces,
    cumulants_from_raw,
    domain_wall_count,
    moment_set_from_cumulants,
)


def count_up_blocks(config: int, n_sites: int) -> int:
    """Oracle: maximal blocks of consecutive up spins on the ring."""
    bits = [(config >> i) & 1 for i in range(n_sites)]
    if all(bits) or not any(bits):
        return 0
    return sum(1 for i in range(n_sites) if bits[i] == 1 and bits[i - 1] == 0)


def test_domain_wall_examples():
    assert domain_wall_count(0b00011, 5) == 1
    assert domain_wall_count(0b111111, 6) == 0
    assert domain_wall_count(0, 6) == 0
    assert domain_wall_count(0b0101, 4) == 2


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=14), st.data())
def test_domain_walls_equal_up_blocks(n_sites, data):
    config = data.draw(st.integers(min_value=0, max_value=(1 << n_sites) - 1))
    assert domain_wall_count(config, n_sites) == count_up_blocks(config, n_sites)


@pytest.mark.parametrize("n_sites", [5, 8, 11])
def test_mean_domain_wall_identity_exact(n_sites):
    for n_up in range(n_sites + 1):
        total = Fraction(0)
        count = 0
        for sites in combinations(range(n_sites), n_up):
            config = sum(1 << s for s in sites)
            total += domain_wall_count(config, n_sites)
            count += 1
        assert float(total / count) == mean_domain_wall_count(n_sites, n_up)  # correctly rounded


def test_spec_value_examples():
    params = ModelParams(17, 1.0, 1.0)
    m = analytic_moments(params, 8)
    assert m.e_n == 1.0
    assert m.sigma2 == 34.0
    assert m.k3 == -108.0
    assert m.k_walls == pytest.approx(4.5)
    assert m.k4 == pytest.approx(32 - 144 + 680)

    # alpha = 0 at the symmetric point kills the third cumulant
    m0 = analytic_moments(ModelParams(16, 1.0, 0.0), 8)
    assert m0.k3 == 0.0


def test_bruteforce_examples():
    params = ModelParams(5, 1.0, 1.0)
    mus = bruteforce_state_moments(0b00011, params, 4)
    assert mus == pytest.approx([1.0, 11.0, -5.0, 417.0])
    assert mus[0] == pytest.approx(params.lam * (5 - 2 * 2))
    m = analytic_moments(params, 2, k_walls=domain_wall_count(0b00011, 5))
    assert (m.mu1, m.mu2, m.mu3, m.mu4) == pytest.approx((1.0, 11.0, -5.0, 417.0))


def test_bruteforce_order_one_is_diagonal():
    params = ModelParams(6, 0.8, 0.6)
    for config in (0, 0b111111, 0b010110):
        mu1 = bruteforce_state_moments(config, params, 1)[0]
        assert mu1 == pytest.approx(params.lam * (6 - 2 * config.bit_count()))


@pytest.mark.parametrize("lam,alpha", [(0.5, 1.0), (1.0, 1.0), (2.0, 0.5)])
@pytest.mark.parametrize("n_sites", [5, 6, 7])
def test_analytic_matches_oracle(n_sites, lam, alpha):
    params = ModelParams(n_sites, lam, alpha)
    oracle = all_state_moments(params, 4)
    for config in range(1 << n_sites):
        m = analytic_moments(
            params, config.bit_count(), k_walls=domain_wall_count(config, n_sites)
        )
        got = np.array([m.mu1, m.mu2, m.mu3, m.mu4])
        ref = oracle[:, config]
        assert np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1.0)) < 1e-9


@pytest.mark.parametrize("n_sites,lam,alpha", [(5, 0.7, -1.3), (6, 1.0, 1.0), (7, -0.4, 0.9)])
def test_class_traces_are_the_sums_over_each_class(n_sites, lam, alpha):
    params = ModelParams(n_sites, lam, alpha)
    traces = class_traces(params, 6)
    oracle = all_state_moments(params, 6)
    n_up = np.bitwise_count(np.arange(1 << n_sites))
    want = np.array([np.bincount(n_up, weights=row, minlength=n_sites + 1) for row in oracle])
    assert np.array_equal(traces[0], [comb(n_sites, n) for n in range(n_sites + 1)])
    assert np.max(np.abs(traces[1:] - want)) < 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("lam,alpha", [(1.0, 1.0), (-0.7, -0.3), (2.5, -0.4)])
def test_analytic_moments_are_the_class_means_at_every_length(lam, alpha):
    # mu_1..mu_4 at the mean wall count are tr_n H^j / C(N, n), up to N = 69, where
    # C(69, 34) ~ 1e20 configurations lie beyond any enumeration
    for n_sites in range(5, 70):
        params = ModelParams(n_sites, lam, alpha)
        traces = class_traces(params, 4)
        means = traces[1:] / traces[0]
        for n_up in range(n_sites + 1):
            m = analytic_moments(params, n_up)
            size = means[1, n_up] ** (np.arange(1, 5) / 2)  # sqrt(mu2)^j, the scale of mu_j
            got = np.array([m.mu1, m.mu2, m.mu3, m.mu4])
            assert np.all(np.abs(got - means[:, n_up]) <= 1e-13 * size), (n_sites, n_up)


@pytest.mark.parametrize("n_sites,lam,alpha", [(12, 0.9, 1.1), (13, -0.7, -0.3)])
def test_power_sums_of_every_sector_spectrum_are_the_traces_of_h(n_sites, lam, alpha):
    params = ModelParams(n_sites, lam, alpha)
    sums = np.zeros(7)
    for k in range(n_sites):
        basis = momentum_basis(n_sites, k)
        for energies in block_spectra(basis, sector_elements(basis, params)).values():
            sums += [np.sum(energies**j) for j in range(7)]
    traces = class_traces(params, 6).sum(axis=1)
    assert sums[0] == traces[0] == 2**n_sites
    size = (traces[2] / traces[0]) ** (np.arange(7) / 2) * traces[0]
    assert np.all(np.abs(sums[2:] - traces[2:]) <= 1e-12 * size[2:])


def test_third_moment_is_wall_independent():
    params = ModelParams(8, 1.3, 0.7)
    base = analytic_moments(params, 3, k_walls=1).mu3
    for k_walls in (2, 3):
        assert analytic_moments(params, 3, k_walls=k_walls).mu3 == pytest.approx(base)


def test_pure_flip_third_moment():
    # with lam = 0 only the flip part contributes: mu3 = -6 N alpha^2
    for n_sites, alpha in ((6, 1.0), (8, 0.7)):
        params = ModelParams(n_sites, 0.0, alpha)
        m = analytic_moments(params, 3)
        assert m.mu3 == pytest.approx(-6 * n_sites * alpha**2)
        ref = bruteforce_state_moments(0b000111, params, 3)[2]
        assert ref == pytest.approx(-6 * n_sites * alpha**2)


def test_cumulant_identities():
    params = ModelParams(9, 1.1, 0.9)
    m = analytic_moments(params, 4, k_walls=2)
    k3, k4 = cumulants_from_raw(m.mu1, m.mu2, m.mu3, m.mu4)
    assert k3 == pytest.approx(m.k3)
    assert k4 == pytest.approx(m.k4)
    rebuilt = moment_set_from_cumulants(4, m.e_n, m.sigma2, m.k3, m.k4, m.k_walls)
    assert rebuilt.mu3 == pytest.approx(m.mu3)
    assert rebuilt.mu4 == pytest.approx(m.mu4)


def test_validity_guards():
    with pytest.raises(FormulaRangeError):
        analytic_moments(ModelParams(4, 1.0, 1.0), 2)
    with pytest.raises(ChainSizeError):
        bruteforce_state_moments(0, ModelParams(13, 1.0, 1.0), 2)
    with pytest.raises(ValueError):
        bruteforce_state_moments(0, ModelParams(8, 1.0, 1.0), 7)
    with pytest.raises(ValueError):
        analytic_moments(ModelParams(8, 1.0, 1.0), 9)


def test_bruteforce_supports_order_six():
    params = ModelParams(5, 0.9, 0.4)
    mus = bruteforce_state_moments(0b00101, params, 6)
    assert mus.shape == (6,)
    # even moments of a Hermitian operator are positive
    assert mus[1] > 0 and mus[3] > 0 and mus[5] > 0


@pytest.mark.parametrize("n_sites", [5, 8, 20])
def test_every_moment_is_finite_up_to_the_largest_field(n_sites):
    # at the bound, with both fields at it and of either sign, mu1..mu4 stay finite;
    # one step past it the parameters are refused, naming the larger field
    top = FIELD_SCALE_MAX / n_sites
    for lam, alpha in ((top, top), (-top, top), (top, -top)):
        params = ModelParams(n_sites, lam, alpha)
        for n_up in range(n_sites + 1):
            m = analytic_moments(params, n_up)
            assert np.all(np.isfinite([m.mu1, m.mu2, m.mu3, m.mu4])), (lam, alpha, n_up)
    past = np.nextafter(top, np.inf)
    with pytest.raises(ValueError, match=r"field alpha = .* too large"):
        ModelParams(n_sites, 0.5, -past)
    with pytest.raises(ValueError, match=r"field lam = .* too large"):
        ModelParams(n_sites, past, 0.5)
