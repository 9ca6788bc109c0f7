"""Moments and cumulants of the chain Hamiltonian in product states.

Closed forms for the mean, the variance and the third and fourth cumulants
of H in a configuration with n spins up, parameterized by the number k of
domain-wall pairs (anti-aligned neighbour pairs / 2); the raw third and
fourth moments follow from them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hamiltonian import ModelParams
from .spin_basis import ChainSizeError


class FormulaRangeError(ChainSizeError):
    """Chain too short for the analytic moment formulas: an out-of-range length."""


@dataclass(frozen=True)
class LocalMomentSet:
    """First four moments/cumulants of H in configurations with n spins up.

    The raw moments ``mu3`` and ``mu4`` follow from the cumulants ``k3`` and
    ``k4``, the variance ``sigma2`` and the mean ``e_n``.
    """

    n_up: int
    e_n: float
    sigma2: float
    k3: float
    k4: float
    k_walls: float

    @property
    def mu1(self) -> float:
        return self.e_n

    @property
    def mu2(self) -> float:
        return self.sigma2 + self.e_n**2

    @property
    def mu3(self) -> float:
        return self.k3 + 3 * self.sigma2 * self.e_n + self.e_n**3

    @property
    def mu4(self) -> float:
        e = self.e_n
        return self.k4 + 4 * self.k3 * e + 3 * self.sigma2**2 + 6 * self.sigma2 * e**2 + e**4


def mean_domain_wall_count(n_sites: int, n_up: int) -> float:
    """Mean number of domain-wall pairs over all C(N, n) configurations with n up spins, correctly rounded."""
    return n_up * (n_sites - n_up) / (n_sites - 1)  # integer true division rounds once


def analytic_moments(
    params: ModelParams, n_up: int, k_walls: float | None = None
) -> LocalMomentSet:
    """Closed-form moment set; ``k_walls=None`` substitutes the mean value.

    The third-moment formula needs N >= 4 and the fourth N >= 5, so shorter
    chains are rejected.
    """
    n, lam, alpha = params.n_sites, params.lam, params.alpha
    if n < 5:
        raise FormulaRangeError("fourth-moment formula requires N >= 5 (third: N >= 4)")
    if not 0 <= n_up <= n:
        raise ValueError("up-spin count outside [0, N]")
    if k_walls is None:
        k_walls = mean_domain_wall_count(n, n_up)
    a2 = alpha**2
    e = lam * (n - 2 * n_up)
    sigma2 = n * (1 + a2)
    k3 = -6 * n * a2 - 2 * e * (a2 + 2)
    k4 = 32 * a2 * e - 32 * k_walls * lam**2 + n * (24 * a2 - 2 - 2 * a2**2 + 16 * lam**2 + 4 * lam**2 * a2)
    return LocalMomentSet(n_up=n_up, e_n=e, sigma2=sigma2, k3=k3, k4=k4, k_walls=k_walls)

