"""Statistical models of chaotic eigenfunctions for the two-field Ising chain.

Per up-spin count n the strength function P_n(E) is modelled three ways:
a plain Gaussian from the first two moments, a Gram-Charlier series adding
the third and fourth cumulants through Hermite polynomials, and a
moment-matched maximum-entropy density exp(-sum_j mu_j E^j)/Z.  Each Gibbs
density is one damped Newton solve, checked once on a finer grid; where that
check fails, or no such density has the n's moments, Gram-Charlier stands in
for that n alone.  On top of the P_n the module evaluates the model spectral
density, symmetry-corrected wave-function moments M_q(E), and the predicted
participation ratio, including the corrections from inversion-invariant
basis states (real vs complex coefficient ensembles).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .hamiltonian import ModelParams
from .moments import LocalMomentSet, analytic_moments
from .spin_basis import SectorCounts

log = logging.getLogger(__name__)

VARIANTS = ("gaussian", "gram_charlier", "gibbs")

GIBBS_HALF_WIDTH = 12.0  # integration half-width in units of sigma
GIBBS_TOL = 1e-8  # relative moment residual a fit must reach
GIBBS_MAX_ITER = 100  # Newton steps per solve
GIBBS_NODES = 2000  # quadrature nodes of the fit; its check uses twice as many
GAUSSIAN_START = (0.0, 0.5, 0.0, 0.0)  # standardized coefficients of exp(-x^2 / 2)


def fmt_float(x: float) -> str:
    """Locale-independent 17-significant-digit float formatting."""
    return format(float(x), ".17g")


def _format_column(column) -> list[str]:
    """The cells of one column, formatted once by its dtype."""
    column = np.asarray(column)
    if column.dtype.kind == "f":
        return [fmt_float(x) for x in column.tolist()]
    if column.dtype.kind in "biu":
        return [str(x) for x in column.astype(int).tolist()]
    return column.tolist()  # strings


def write_csv(path, header: list[str], columns) -> None:
    """One CSV file from equal-length columns, each formatted once by its dtype.

    Floats go through ``fmt_float``, integers and bools as ``str(int)``, and
    strings unchanged.  Columns of unequal length raise ``ValueError``.
    """
    lines = [",".join(header), *map(",".join, zip(*map(_format_column, columns), strict=True))]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def r_q_complex(q: float) -> float:
    """Moments <|C|^2q> / <|C|^2>^q of a complex Gaussian coefficient."""
    return math.gamma(q + 1.0)


def r_q_real(q: float) -> float:
    """Moments <C^2q> / <C^2>^q of a real Gaussian coefficient."""
    return 2.0**q * math.gamma(q + 0.5) / math.sqrt(math.pi)


def _hermite3(x):
    return x**3 - 3 * x


def _hermite4(x):
    return x**4 - 6 * x**2 + 3


class GibbsFitError(RuntimeError):
    """The Newton solve missed the target moments; Gram-Charlier stands in."""


class GibbsInfeasibleError(RuntimeError):
    """No smooth density on the integration interval has the target moments; Gram-Charlier stands in."""


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Newton iteration on P_n from the asymptotic guesses cos(pi (i - 1/4) / (n + 1/2)),
    with P_n and P_n' from the three-term recurrence; w = 2 / ((1 - x^2) P_n'(x)^2).
    """

    def legendre(x):
        p_prev, p = np.ones_like(x), x
        for m in range(2, n + 1):
            p_prev, p = p, ((2 * m - 1) * x * p - (m - 1) * p_prev) / m
        return p, n * (p_prev - x * p) / ((1.0 - x) * (1.0 + x))

    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(100):
        p, dp = legendre(x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= 1e-16:
            break
    _, dp = legendre(x)
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    # the rule is symmetric about 0: average out the rounding of the two halves
    return 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])


def _panel_quadrature(n_nodes: int):
    """Composite Gauss-Legendre rule on [-GIBBS_HALF_WIDTH, GIBBS_HALF_WIDTH]."""
    per_panel = 40
    n_panels = max(2, int(np.ceil(n_nodes / per_panel)))
    x, w = _gauss_legendre(per_panel)
    edges = np.linspace(-GIBBS_HALF_WIDTH, GIBBS_HALF_WIDTH, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return (mid + half * x[None, :]).ravel(), (half * w[None, :]).ravel()


def _power_table(nodes: np.ndarray, n_max: int = 8) -> np.ndarray:
    """Columns x^0 .. x^n_max of the quadrature nodes."""
    return np.vander(nodes, n_max + 1, increasing=True)


@lru_cache(maxsize=2)
def _gibbs_grid(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Weights and power table of one composite grid, built once per node count.

    Every fit shares the two it uses, so they are read-only.
    """
    nodes, weights = _panel_quadrature(n_nodes)
    powers = _power_table(nodes)
    weights.flags.writeable = False
    powers.flags.writeable = False
    return weights, powers


def _std_moments(coeffs, powers: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Raw moments 0..n_max of exp(-sum_j c_j x^j) on a quadrature grid.

    ``powers`` is ``_power_table(nodes, n_max)``; log p and the moments are
    one matrix-vector product each.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    logp = -(powers[:, 1 : coeffs.size + 1] @ coeffs)
    logp -= logp.max()
    density = weights * np.exp(logp)
    return (density @ powers) / density.sum()


@dataclass(frozen=True)
class GibbsFit:
    """Max-entropy fit in the standardized variable x = (E - E_n) / sigma."""

    e_center: float
    sigma: float
    std_coeffs: tuple[float, float, float, float]
    log_z_std: float
    residual: float
    boundary_ratio: float

    def density(self, energy) -> np.ndarray:
        x = (np.asarray(energy, dtype=float) - self.e_center) / self.sigma
        logp = -sum(c * x**j for j, c in enumerate(self.std_coeffs, start=1))
        return np.exp(logp - self.log_z_std) / self.sigma


def _newton_solve(targets, n_orders, powers, weights, tol, start):
    """Damped Newton on the standardized moment equations; returns the best coefficients found.

    It stops when the residual falls below ``tol`` or no halved step lowers
    it; ``fit_gibbs`` then checks the result.  A singular step raises
    ``GibbsFitError``.
    """
    coeffs = np.array(start, dtype=float)
    m = _std_moments(coeffs, powers, weights)
    g = m[1 : n_orders + 1] - targets
    scale = np.maximum(np.abs(targets), 1.0)
    residual = float(np.max(np.abs(g) / scale))
    orders = np.arange(1, n_orders + 1)
    for _ in range(GIBBS_MAX_ITER):
        if residual < tol:
            break
        jac = np.outer(m[orders], m[orders]) - m[orders[:, None] + orders]
        try:
            delta = np.linalg.solve(jac, -g)
        except np.linalg.LinAlgError as exc:
            raise GibbsFitError("singular moment covariance") from exc
        step = 1.0
        improved = False
        for _ in range(40):
            trial = coeffs.copy()
            trial[:n_orders] += step * delta
            m_trial = _std_moments(trial, powers, weights)
            g_trial = m_trial[1 : n_orders + 1] - targets
            trial_res = float(np.max(np.abs(g_trial) / scale))
            if trial_res < residual:
                coeffs, m, g, residual = trial, m_trial, g_trial, trial_res
                improved = True
                break
            step *= 0.5
        if not improved:
            break  # stalled at the quadrature noise floor
    return coeffs


def _std_to_energy_moments(m_std: np.ndarray, e: float, sigma: float) -> np.ndarray:
    """Raw moments of E = e + sigma * x from standardized raw moments."""
    out = np.empty(4)
    for j in range(1, 5):
        out[j - 1] = sum(
            comb(j, i) * e ** (j - i) * sigma**i * m_std[i] for i in range(j + 1)
        )
    return out


def fit_gibbs(moments: LocalMomentSet, n_orders: int = 4, start=None) -> GibbsFit:
    """Fit exp(-sum_{j<=n_orders} mu_j E^j)/Z to the first n_orders moments.

    Works in the standardized variable on [-12, 12] sigma with composite
    Gauss-Legendre quadrature: one damped Newton solve on ``GIBBS_NODES``
    nodes, started from ``start`` when it is given (the ``std_coeffs`` of a
    fit of the same order) and from the Gaussian otherwise.  The max-entropy
    problem is convex, so a start changes the fit only in the last digits.
    The fitted energy moments are checked once, on twice as many nodes:
    a residual not below ``GIBBS_TOL``, or a singular Newton step, raises
    ``GibbsFitError``.  Targets no smooth density on the interval can have,
    and a density that peaks at its edge, raise ``GibbsInfeasibleError``.
    """
    if n_orders not in (2, 4):
        raise ValueError("n_orders must be 2 or 4")
    sigma = float(np.sqrt(moments.sigma2))
    if n_orders == 2:
        targets = np.array([0.0, 1.0])
    else:
        m3 = moments.k3 / sigma**3
        m4 = 3.0 + moments.k4 / sigma**4
        # feasibility on the truncated support: E[x^4] <= L^2 E[x^2] with
        # equality only for boundary atoms, and the Hamburger bound below
        if m4 >= GIBBS_HALF_WIDTH**2 or m4 <= 1.0 + m3**2:
            raise GibbsInfeasibleError(
                f"standardized kurtosis {m4:.3g} not representable by a smooth "
                f"density on +-{GIBBS_HALF_WIDTH:.0f} sigma"
            )
        targets = np.array([0.0, 1.0, m3, m4])
    mu_target = np.array([moments.mu1, moments.mu2, moments.mu3, moments.mu4])
    # relative scale per energy moment; sigma^j is the fallback when a target
    # vanishes (symmetric configurations)
    mu_scale = np.where(
        np.abs(mu_target) > 1e-12 * sigma ** np.arange(1, 5),
        np.abs(mu_target),
        sigma ** np.arange(1, 5),
    )
    tol_std = max(5e-14, GIBBS_TOL * 1e-5)

    weights, powers = _gibbs_grid(GIBBS_NODES)
    fine_weights, fine_powers = _gibbs_grid(2 * GIBBS_NODES)
    coeffs = _newton_solve(
        targets, n_orders, powers, weights, tol_std, GAUSSIAN_START if start is None else start
    )
    m_fine = _std_moments(coeffs, fine_powers, fine_weights)
    mu_fit = _std_to_energy_moments(m_fine, moments.e_n, sigma)
    residual = float(np.max(np.abs(mu_fit - mu_target)[:n_orders] / mu_scale[:n_orders]))
    if not residual < GIBBS_TOL:  # NaN included
        raise GibbsFitError(
            f"moment residual {residual:.2e} not below {GIBBS_TOL:.0e} on {2 * GIBBS_NODES} nodes"
        )

    logp = -(powers[:, 1:5] @ coeffs)
    peak = logp.max()
    log_z_std = peak + np.log(np.sum(weights * np.exp(logp - peak)))
    boundary = max(logp[0], logp[-1])
    boundary_ratio = float(np.exp(boundary - peak))
    if boundary_ratio > 1.0:
        raise GibbsInfeasibleError(
            "max-entropy density peaks at the integration boundary; "
            "target moments are not representable on the truncated support"
        )

    return GibbsFit(
        e_center=moments.e_n,
        sigma=float(sigma),
        std_coeffs=tuple(coeffs),
        log_z_std=float(log_z_std),
        residual=residual,
        boundary_ratio=boundary_ratio,
    )


@dataclass(frozen=True)
class StrengthModel:
    """Per-n strength-function model for one parameter set."""

    params: ModelParams
    variant: str
    moments: tuple[LocalMomentSet, ...]
    gibbs_fits: tuple[GibbsFit | None, ...] = ()

    @property
    def n_sites(self) -> int:
        return self.params.n_sites


def _gibbs_fits(params: ModelParams, moments: tuple[LocalMomentSet, ...]) -> tuple[GibbsFit | None, ...]:
    """One four-moment fit per n, None where it failed or is infeasible (Gram-Charlier stands in).

    The first fit is of the n whose standardized skewness and excess
    kurtosis are smallest, from the Gaussian.  The fits then walk outward
    from it to both ends, each warm-started from the last fit on its way.
    One DEBUG line sums the model up: the fitted count, the n that fell
    back, the largest residual and boundary ratio, and the fits with a
    negative quartic coefficient c4 (they grow beyond the fit interval).
    """

    def non_gaussianity(mom: LocalMomentSet) -> float:
        return abs(mom.k3) / mom.sigma2**1.5 + abs(mom.k4) / mom.sigma2**2

    first = min(range(len(moments)), key=lambda n: non_gaussianity(moments[n]))
    fits: dict[int, GibbsFit | None] = {}
    for walk in (range(first, len(moments)), range(first, -1, -1)):
        start = None
        for n in walk:
            if n not in fits:
                try:
                    fits[n] = fit_gibbs(moments[n], 4, start)
                except (GibbsFitError, GibbsInfeasibleError) as exc:
                    log.warning("Gibbs fit failed for n=%d (%s); falling back to Gram-Charlier", n, exc)
                    fits[n] = None
            if fits[n] is not None:
                start = fits[n].std_coeffs
    result = tuple(fits[n] for n in range(len(moments)))
    fitted = [fit for fit in result if fit is not None]
    log.debug(
        "gibbs fits: fitted %d of %d (N=%d, lam=%g, alpha=%g), fell back at n=%s, largest residual %.3g "
        "(GIBBS_TOL %.0e), largest boundary ratio %.3g, %d with c4 < 0",
        len(fitted), len(result), params.n_sites, params.lam, params.alpha,
        [n for n, fit in enumerate(result) if fit is None],
        max((fit.residual for fit in fitted), default=math.nan), GIBBS_TOL,
        max((fit.boundary_ratio for fit in fitted), default=math.nan),
        sum(fit.std_coeffs[3] < 0 for fit in fitted),
    )
    return result


def build_strength_model(params: ModelParams, variant: str = "gaussian") -> StrengthModel:
    """Assemble the model for all n, using mean domain-wall counts."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    moments = tuple(analytic_moments(params, n) for n in range(params.n_sites + 1))
    fits = _gibbs_fits(params, moments) if variant == "gibbs" else ()
    return StrengthModel(params=params, variant=variant, moments=moments, gibbs_fits=fits)


def strength_density(model: StrengthModel, n_up: int, energy) -> np.ndarray:
    """Model density P_n(E), vectorized over E: the plain series, negative Gram-Charlier lobes included."""
    mom = model.moments[n_up]
    e = np.asarray(energy, dtype=float)
    sigma2 = mom.sigma2
    sigma = np.sqrt(sigma2)
    x = (e - mom.e_n) / sigma
    gauss = np.exp(-0.5 * x**2) / np.sqrt(2 * np.pi * sigma2)
    if model.variant == "gaussian":
        return gauss
    if model.variant == "gibbs":
        fit = model.gibbs_fits[n_up] if model.gibbs_fits else None
        if fit is not None:
            return fit.density(e)
    # Gram-Charlier path (also the per-n fallback for failed Gibbs fits).  The
    # bracket is formed only where the Gaussian is nonzero: far in its tails,
    # at large fields, He4(x) overflows and inf * 0 would be NaN
    live = gauss > 0
    x = x[live]
    bracket = (
        1.0
        + mom.k3 / (6.0 * sigma**3) * _hermite3(x)
        + mom.k4 / (24.0 * sigma2**2) * _hermite4(x)
    )
    density = np.zeros_like(gauss)
    density[live] = gauss[live] * bracket
    return density


def density_stack(model: StrengthModel, energy) -> np.ndarray:
    """The (N+1) x G stack of max(P_n(E), 0): the one input of every prediction, the same for every sector.

    It is the one place that clips negative densities (the Gram-Charlier lobes), which carry no weight,
    and it logs their count at DEBUG.
    """
    e = np.atleast_1d(np.asarray(energy, dtype=float))
    stack = np.stack([strength_density(model, n, e) for n in range(model.n_sites + 1)])
    log.debug(
        "density_stack: clipped %d of %d values P_n(E) < 0 (%s, N=%d, lam=%g, alpha=%g)",
        np.count_nonzero(stack < 0), stack.size, model.variant,
        model.params.n_sites, model.params.lam, model.params.alpha,
    )
    return np.maximum(stack, 0.0, out=stack)


def prediction_span(params: ModelParams) -> float:
    """Half-width |lam| N + 6 sigma of the energy range that predictions cover."""
    sigma = np.sqrt(params.n_sites * (1 + params.alpha**2))
    return abs(params.lam) * params.n_sites + 6 * sigma


def _delta(counts: SectorCounts, mode: str) -> float:
    if mode == "uniform":
        return counts.delta
    if mode == "none":
        return 0.0
    raise ValueError("mode must be 'uniform' or 'none'")


def _moment(counts: SectorCounts, stack: np.ndarray, q: float, delta_mode: str) -> np.ndarray:
    """M_q on the grid of ``stack`` (``density_stack``); NaN where no n has states.

    Each P_n is divided by sum_n nu_n P_n before the power, so that a tiny
    but nonzero density does not underflow to 0 / 0.  An n without states
    (nu_n = 0) takes share 0: its P_n is not part of that sum.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    nu = counts.nu_tot.astype(float)
    s1 = nu @ stack
    share = np.divide(stack, s1, out=np.zeros(stack.shape), where=(nu[:, None] > 0) & (s1 > 0))
    powered = share**q
    delta = _delta(counts, delta_mode)
    if counts.is_real:
        factor = r_q_real(q) * (1.0 + (2.0 ** (q - 1) - 1.0) * delta)
    else:
        factor = r_q_complex(q) + (r_q_real(q) - r_q_complex(q)) * delta
    return np.where(s1 > 0, factor * (nu @ powered), np.nan)


@dataclass
class PredictionCurve:
    """Model predictions sampled on an energy grid, ready for export."""

    energies: np.ndarray
    rho: np.ndarray
    moments: dict[float, np.ndarray]
    pr: np.ndarray
    variant: str
    sector: str
    corrections: str


def prediction_curve(
    counts: SectorCounts,
    model: StrengthModel,
    energies: np.ndarray,
    q_values: tuple[float, ...] = (1.5, 2.0, 3.0),
    delta_mode: str = "uniform",
    stack: np.ndarray | None = None,
) -> PredictionCurve:
    """Evaluate density, M_q, and Pr = 1 / M_2 predictions on a grid.

    Every column comes from the strength-density stack ``stack``, which is
    ``density_stack(model, energies)`` and is read as given, so rho and every
    M_q agree on where the model has states.  A caller that predicts many
    sectors (``compare``, ``predict``) evaluates the model once and passes it.
    A library call for one sector may leave it out, and it is built here.
    The sector enters through its state counts ``counts`` (``sector_counts``).
    Real sectors (``counts.is_real``: k = 0 and k = N/2) use the real-ensemble
    factor with the parity correction 1 + (2^(q-1) - 1) delta, so the
    effective R_2 is 3 (1 + delta); complex sectors interpolate between the
    complex and the real ensemble factor with weight delta, so R_2 = 2 + delta.
    ``delta_mode`` is "uniform" (delta = N_inv / N_tot) or "none" (delta = 0,
    the plain Gaussian-ensemble baseline).
    """
    energies = np.asarray(energies, dtype=float)
    if stack is None:
        stack = density_stack(model, energies)
    elif stack.shape != (model.n_sites + 1, energies.size):
        raise ValueError(f"density stack of shape {stack.shape} does not match the model and grid")
    nu = counts.nu_tot.astype(float)
    rho = (nu / nu.sum()) @ stack
    moments = {q: _moment(counts, stack, q, delta_mode) for q in q_values}
    m2 = moments[2.0] if 2.0 in moments else _moment(counts, stack, 2.0, delta_mode)
    pr = 1.0 / m2
    corrections = []
    if model.variant != "gaussian":
        corrections.append(model.variant)
    if delta_mode != "none":
        corrections.append(f"delta[{delta_mode}]")
    return PredictionCurve(
        energies=energies,
        rho=rho,
        moments=moments,
        pr=pr,
        variant=model.variant,
        sector=f"k={counts.k}",
        corrections="+".join(corrections) if corrections else "none",
    )


def write_prediction_csv(curve: PredictionCurve, path) -> None:
    """CSV export with fixed column order and 17-digit floats."""
    qs = sorted(curve.moments)
    header = ["E", "rho"] + [f"M_{fmt_float(q)}" for q in qs] + [
        "Pr",
        "variant",
        "sector",
        "corrections",
    ]
    columns = [curve.energies, curve.rho, *(curve.moments[q] for q in qs), curve.pr]
    labels = [curve.variant, curve.sector, curve.corrections]
    write_csv(path, header, [*columns, *([label] * curve.energies.size for label in labels)])
