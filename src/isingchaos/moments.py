"""Moments and cumulants of the chain Hamiltonian in product states.

Closed forms for the first four moments of H in a configuration with n spins
up, parameterized by the number k of domain-wall pairs (anti-aligned
neighbour pairs / 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .hamiltonian import ModelParams
from .spin_basis import ChainSizeError


class FormulaRangeError(ChainSizeError):
    """Chain too short for the analytic moment formulas: an out-of-range length."""


@dataclass(frozen=True)
class LocalMomentSet:
    """First four moments/cumulants of H in configurations with n spins up."""

    n_up: int
    e_n: float
    sigma2: float
    mu3: float
    mu4: float
    k3: float
    k4: float
    k_walls: float

    @property
    def mu1(self) -> float:
        return self.e_n

    @property
    def mu2(self) -> float:
        return self.sigma2 + self.e_n**2

    @classmethod
    def from_cumulants(
        cls, n_up: int, e_n: float, sigma2: float, k3: float, k4: float, k_walls: float = 0.0
    ) -> "LocalMomentSet":
        mu1 = e_n
        mu2 = sigma2 + mu1**2
        mu3 = k3 + 3 * mu2 * mu1 - 2 * mu1**3
        mu4 = k4 + 4 * mu3 * mu1 + 3 * mu2**2 - 12 * mu2 * mu1**2 + 6 * mu1**4
        return cls(
            n_up=n_up, e_n=e_n, sigma2=sigma2, mu3=mu3, mu4=mu4, k3=k3, k4=k4, k_walls=k_walls
        )


def mean_domain_wall_count(n_sites: int, n_up: int) -> Fraction:
    """Mean number of domain-wall pairs over all C(N, n) configurations with n up spins."""
    return Fraction(n_up * (n_sites - n_up), n_sites - 1)


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
        k_walls = float(mean_domain_wall_count(n, n_up))
    a2 = alpha**2
    e = lam * (n - 2 * n_up)
    sigma2 = n * (1 + a2)
    mu3 = e**3 + (3 * (1 + a2) * n - 4 - 2 * a2) * e - 6 * n * a2
    k3 = -6 * n * a2 - 2 * e * (a2 + 2)
    tail = n * (24 * a2 - 2 - 2 * a2**2 + 16 * lam**2 + 4 * lam**2 * a2)
    mu4 = (
        e**4
        + e**2 * (6 * n * (1 + a2) - 16 - 8 * a2)
        + 8 * e * (4 - 3 * n) * a2
        + 3 * n**2 * (1 + a2) ** 2
        - 32 * k_walls * lam**2
        + tail
    )
    k4 = 32 * a2 * e - 32 * k_walls * lam**2 + tail
    return LocalMomentSet(
        n_up=n_up, e_n=e, sigma2=sigma2, mu3=mu3, mu4=mu4, k3=k3, k4=k4, k_walls=k_walls
    )

