"""Empirical eigenvector statistics and model-vs-data comparison tools.

Everything here works on full sector eigen-decompositions: windowed
coefficient distributions with Gaussian-fit quality, strength-function
histograms, participation ratios, eigenvector moments, nearest-neighbour
spacing ratios (with GOE / Poisson surrogates), and a deviation report that
interpolates a model prediction at empirical window centers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .eigensolve import EigenDecomposition

POISSON_MEAN_R = 2 * np.log(2) - 1  # 0.3863
GOE_MEAN_R = 0.5307  # accepted numerical value for the 3x3-surmise ensemble

# eigenvector rows per block of the moment sums sum_n |C_n|^2q
MOMENT_CHUNK_ROWS = 64

_erfc = np.frompyfunc(math.erfc, 1, 1)


def normal_cdf(x) -> np.ndarray | float:
    """Standard normal CDF 0.5 erfc(-x / sqrt 2) elementwise (the arguments are bin edges)."""
    return 0.5 * np.asarray(_erfc(-np.asarray(x, dtype=float) / np.sqrt(2.0)), dtype=float)[()]


@dataclass(frozen=True)
class EnergyWindow:
    """A contiguous block of eigenstates, sorted by energy."""

    lo: float
    hi: float
    indices: np.ndarray
    short: bool = False

    @property
    def center(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def size(self) -> int:
        return self.indices.size


def windows_fixed_count(energies: np.ndarray, levels_per_window: int) -> list[EnergyWindow]:
    """Consecutive windows of a fixed level count (last one may be short)."""
    if levels_per_window < 2:
        raise ValueError("windows need at least 2 levels")
    order = np.argsort(energies)
    out = []
    for start in range(0, order.size, levels_per_window):
        idx = order[start : start + levels_per_window]
        if idx.size < 2:
            break
        out.append(
            EnergyWindow(
                lo=float(energies[idx[0]]),
                hi=float(energies[idx[-1]]),
                indices=idx,
                short=idx.size < levels_per_window,
            )
        )
    return out


def windows_fixed_width(energies: np.ndarray, width: float) -> list[EnergyWindow]:
    """Fixed-width energy bins; bins with fewer than 2 states are dropped.

    Bin i holds edges[i] <= E < edges[i + 1], and the last bin also holds
    every level at or above its upper edge, as ``np.histogram`` closes it.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    order = np.argsort(energies)
    sorted_e = energies[order]
    edges = np.arange(sorted_e[0], sorted_e[-1] + width, width)
    bins = np.minimum(np.searchsorted(edges, sorted_e, side="right") - 1, edges.size - 2)
    out = []
    for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        indices = order[bins == i]
        if indices.size >= 2:
            out.append(EnergyWindow(lo=float(lo), hi=float(hi), indices=indices))
    return out


def coefficient_samples(decomp: EigenDecomposition, symbol_index: int, indices) -> np.ndarray:
    """Real coefficient samples for one symbol over selected eigenstates.

    Real sectors give the coefficients themselves; complex sectors contribute
    real and imaginary parts as separate Gaussian samples.
    """
    c = decomp.vectors[symbol_index, indices]
    if np.max(np.abs(c.imag), initial=0.0) < 1e-12:
        return c.real.copy()
    return np.concatenate([c.real, c.imag])


@dataclass(frozen=True)
class WindowCoefficientStats:
    window: EnergyWindow
    n_samples: int
    mean: float
    variance: float
    chi2_reduced: float
    insufficient: bool
    bin_edges: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)

    @property
    def density(self) -> np.ndarray:
        """Histogram normalized to unit area."""
        widths = np.diff(self.bin_edges)
        return self.counts / (self.n_samples * widths)


def _gaussian_fit_chi2(samples: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Reduced chi^2 of the moment-fitted Gaussian against a histogram."""
    n = samples.size
    mu = samples.mean()
    s = samples.std()
    if s == 0:
        return np.inf, np.array([mu, mu]), np.array([n])
    n_bins = max(8, int(round(np.sqrt(n))))
    edges = np.linspace(mu - 4 * s, mu + 4 * s, n_bins + 1)
    counts, _ = np.histogram(samples, bins=edges)
    cdf = normal_cdf((edges - mu) / s)
    expected = n * np.diff(cdf)
    keep = expected >= 5.0
    dof = int(keep.sum()) - 3
    if dof < 1:
        return np.inf, edges, counts
    chi2 = float(np.sum((counts[keep] - expected[keep]) ** 2 / expected[keep]))
    return chi2 / dof, edges, counts


def windowed_coefficient_stats(
    decomp: EigenDecomposition,
    symbol_index: int,
    windows: list[EnergyWindow],
    min_samples: int = 30,
) -> list[WindowCoefficientStats]:
    """Per-window sample statistics of one coefficient with Gaussian fits."""
    if not 0 <= symbol_index < decomp.dim:
        raise IndexError("symbol index outside the basis")
    out = []
    for win in windows:
        samples = coefficient_samples(decomp, symbol_index, win.indices)
        insufficient = samples.size < min_samples
        if insufficient:
            chi2, edges, counts = np.inf, np.array([]), np.array([])
        else:
            chi2, edges, counts = _gaussian_fit_chi2(samples)
        out.append(
            WindowCoefficientStats(
                window=win,
                n_samples=samples.size,
                mean=float(samples.mean()),
                variance=float(samples.var()),
                chi2_reduced=chi2,
                insufficient=insufficient,
                bin_edges=edges,
                counts=counts,
            )
        )
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


def empirical_participation_ratio(decomp: EigenDecomposition) -> tuple[np.ndarray, np.ndarray]:
    """Per-eigenstate (E_a, Pr_a) with Pr = 1 / sum |C|^4 in the sector basis."""
    return decomp.energies.copy(), 1.0 / state_moment_sums(decomp, 2.0)


def state_moment_sums(decomp: EigenDecomposition, q: float) -> np.ndarray:
    """Per-eigenstate sum_n |C_n|^2q, with |C|^2 = Re^2 + Im^2 and, at q = 2, no pow().

    The rows go through in blocks of ``MOMENT_CHUNK_ROWS`` into one small
    (rows + 1) x D buffer whose first row carries the running sums, so no
    D x D temporary is made and each column adds its rows in the same order
    as ``np.sum(..., axis=0)`` of the whole C-ordered array.
    """
    vectors = decomp.vectors
    n_rows, n_cols = vectors.shape
    buf = np.zeros((MOMENT_CHUNK_ROWS + 1, n_cols))
    imag_sq = np.empty((MOMENT_CHUNK_ROWS, n_cols))
    sums = np.zeros(n_cols)
    for start in range(0, n_rows, MOMENT_CHUNK_ROWS):
        block = vectors[start : start + MOMENT_CHUNK_ROWS]
        rows = block.shape[0]
        p = buf[1 : rows + 1]
        np.multiply(block.real, block.real, out=p)
        if np.iscomplexobj(block):
            np.multiply(block.imag, block.imag, out=imag_sq[:rows])
            p += imag_sq[:rows]
        if q == 2:
            p *= p
        elif q != 1:
            np.power(p, q, out=p)
        buf[0] = sums
        np.sum(buf[: rows + 1], axis=0, out=sums)
    return sums


def empirical_moments(
    decomp: EigenDecomposition, q: float, windows: list[EnergyWindow]
) -> np.ndarray:
    """Window averages of the eigenvector moment sums."""
    if q < 1:
        raise ValueError("q must be >= 1")
    per_state = state_moment_sums(decomp, q)
    return np.array([per_state[w.indices].mean() for w in windows])


@dataclass(frozen=True)
class SpacingRatioResult:
    mean_r: float
    r_values: np.ndarray
    n_excluded: int


def spacing_ratio(
    energies: np.ndarray,
    degeneracy_tol: float = 1e-12,
    bulk_fraction: float = 0.6,
) -> SpacingRatioResult:
    """Mean consecutive-spacing ratio r = min(s_i, s_i+1)/max(s_i, s_i+1).

    Restricted to the central ``bulk_fraction`` of levels; spacings below
    ``degeneracy_tol`` are excluded and counted.
    """
    e = np.sort(np.asarray(energies, dtype=float))
    n = e.size
    skip = int(round(0.5 * (1 - bulk_fraction) * n))
    e = e[skip : n - skip] if skip > 0 else e
    s = np.diff(e)
    keep = s > degeneracy_tol
    n_excluded = int(np.sum(~keep))
    s = s[keep]
    if s.size < 2:
        raise ValueError("not enough non-degenerate spacings")
    r = np.minimum(s[:-1], s[1:]) / np.maximum(s[:-1], s[1:])
    return SpacingRatioResult(mean_r=float(r.mean()), r_values=r, n_excluded=n_excluded)


def goe_surrogate_levels(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Spectrum of one GOE random matrix."""
    a = rng.standard_normal((dim, dim))
    return np.linalg.eigvalsh((a + a.T) / np.sqrt(2 * dim))


def poisson_surrogate_levels(n: int, rng: np.random.Generator) -> np.ndarray:
    """Levels of an uncorrelated (Poisson) spectrum."""
    return np.sort(rng.uniform(0.0, 1.0, size=n))


@dataclass(frozen=True)
class WindowComparison:
    e_center: float
    empirical: float
    predicted: float
    rel_deviation: float
    in_bulk: bool


@dataclass(frozen=True)
class ComparisonReport:
    rows: list[WindowComparison]
    bulk_median: float
    bulk_p90: float
    bulk_fraction: float

    def to_dict(self) -> dict:
        return {
            "bulk_fraction": self.bulk_fraction,
            "bulk_median": self.bulk_median,
            "bulk_p90": self.bulk_p90,
            "rows": [
                {
                    "E": r.e_center,
                    "empirical": r.empirical,
                    "predicted": r.predicted,
                    "rel_deviation": r.rel_deviation,
                    "in_bulk": r.in_bulk,
                }
                for r in self.rows
            ],
        }


def compare(
    pred_energies: np.ndarray,
    pred_values: np.ndarray,
    windows: list[EnergyWindow],
    empirical_values: np.ndarray,
    total_levels: int,
    bulk_fraction: float = 0.6,
) -> ComparisonReport:
    """Interpolate a prediction at window centers and report deviations.

    Bulk windows are those whose mean level index falls in the central
    ``bulk_fraction`` of the spectrum; the others are flagged, not dropped.
    """
    pred_energies = np.asarray(pred_energies, dtype=float)
    centers = np.array([w.center for w in windows])
    if centers.min() > pred_energies.max() or centers.max() < pred_energies.min():
        raise ValueError("prediction grid and empirical windows do not overlap")
    level_rank = {}
    rank = 0
    for w in windows:
        level_rank[id(w)] = (rank + 0.5 * w.size) / total_levels
        rank += w.size
    rows = []
    for w, emp in zip(windows, empirical_values):
        pred = float(np.interp(w.center, pred_energies, pred_values))
        rel = abs(emp - pred) / abs(pred) if pred != 0 else np.inf
        frac = level_rank[id(w)]
        rows.append(
            WindowComparison(
                e_center=w.center,
                empirical=float(emp),
                predicted=pred,
                rel_deviation=float(rel),
                in_bulk=abs(frac - 0.5) <= bulk_fraction / 2,
            )
        )
    bulk = [r.rel_deviation for r in rows if r.in_bulk and np.isfinite(r.rel_deviation)]
    if not bulk:
        raise ValueError("no finite deviations inside the bulk")
    return ComparisonReport(
        rows=rows,
        bulk_median=float(np.median(bulk)),
        bulk_p90=float(np.percentile(bulk, 90)),
        bulk_fraction=bulk_fraction,
    )
