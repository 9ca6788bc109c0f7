"""Empirical eigenvector statistics and model-vs-data comparison tools.

Everything here works on sector eigen-decompositions: windowed
coefficient distributions with Gaussian-fit quality (from the rows of W
one symbol's coefficient reads), participation ratios (from the moment
sums the decomposition carries), nearest-neighbour spacing ratios (beside
their GOE and Poisson reference values), and a deviation report that
interpolates a model prediction at empirical window centers.  A window is
a contiguous range of level ranks in the ascending spectrum, and one
integer array of edges carries them all, so every windowed statistic is a
reduction over slices of per-level values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .eigensolve import EigenDecomposition

POISSON_MEAN_R = 2 * np.log(2) - 1  # 0.3863
GOE_MEAN_R = 0.5307  # accepted numerical value for the 3x3-surmise ensemble

# spacing_ratio reads the central fraction of the levels, and spacings below
# the tolerance count as degenerate
SPACING_BULK_FRACTION = 0.6
DEGENERACY_TOL = 1e-12

_erfc = np.frompyfunc(math.erfc, 1, 1)


def normal_cdf(x) -> np.ndarray | float:
    """Standard normal CDF 0.5 erfc(-x / sqrt 2) elementwise (the arguments are bin edges)."""
    return 0.5 * np.asarray(_erfc(-np.asarray(x, dtype=float) / np.sqrt(2.0)), dtype=float)[()]


def windows_fixed_count(energies: np.ndarray, levels_per_window: int) -> np.ndarray:
    """Rank edges ``[0, L, 2L, ..., stop]`` of consecutive windows of an ascending spectrum.

    Window ``i`` holds the levels ``edges[i]:edges[i + 1]``; the last one may
    be short, and a trailing one-level window is dropped.
    """
    if levels_per_window < 2:
        raise ValueError("windows need at least 2 levels")
    energies = np.asarray(energies)
    if np.any(np.diff(energies) < 0):
        raise ValueError("windows need an ascending spectrum")
    n = energies.size
    stop = n - 1 if n % levels_per_window == 1 else n
    return np.append(np.arange(0, stop, levels_per_window), stop)


def window_means(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Mean of the per-level ``values`` over each window of ``edges``."""
    return np.array([values[a:b].mean() for a, b in zip(edges[:-1], edges[1:])])


def coefficient_samples(decomp: EigenDecomposition, symbol_index: int, levels) -> np.ndarray:
    """Real coefficient samples for one symbol over the eigenstates ``levels`` (indices or a slice).

    ``decomp.basis`` says what kind of coefficient it is.  A real one (k = 0
    and N/2) gives itself; at a complex k a paired state's gives its real
    and imaginary parts, joined along the last axis, and an invariant
    state's, exp(i angle / 2) W_a, its one real Gaussian W_a.  A 2-D index
    array of windows gives one row per window.
    """
    c = decomp.coefficients(symbol_index)[levels]
    if decomp.basis.is_real:
        return c
    if decomp.basis.partner[symbol_index] == symbol_index:
        return decomp.row(symbol_index)[levels]
    return np.concatenate([c.real, c.imag], axis=-1)


@dataclass(frozen=True)
class WindowCoefficientStats:
    n_samples: int
    mean: float
    variance: float
    chi2_reduced: float
    bin_edges: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)

    @property
    def insufficient(self) -> bool:
        """The Gaussian fit has no degree of freedom, so ``chi2_reduced`` is inf."""
        return self.chi2_reduced == np.inf

    @property
    def density(self) -> np.ndarray:
        """Histogram normalized to unit area."""
        widths = np.diff(self.bin_edges)
        return self.counts / (self.n_samples * widths)


def _gaussian_fits(samples: np.ndarray) -> list[WindowCoefficientStats]:
    """Moment-fitted Gaussian against a histogram for each row of ``samples``, one window per row.

    The histogram has max(8, round(sqrt n)) bins over mean +- 4 std, counted
    by ``np.histogram``'s rule for array bins (left-inclusive, the last edge
    inclusive), and only bins that expect 5 or more counts enter chi^2.  It
    is inf when the fit has no degree of freedom: no spread, or fewer than
    four such bins, as for every window of 36 or fewer samples.
    """
    n_rows, n = samples.shape
    mean, var = samples.mean(axis=1), samples.var(axis=1)
    std = np.sqrt(var)
    spread = np.flatnonzero(std > 0)
    mu, s, x = mean[spread], std[spread], samples[spread]
    n_bins = max(8, int(round(np.sqrt(n))))
    edges = np.linspace(mu - 4 * s, mu + 4 * s, n_bins + 1, axis=1)
    below = np.count_nonzero(x[:, :, None] < edges[:, None, :-1], axis=1)
    within = np.count_nonzero(x <= edges[:, -1:], axis=1)
    counts = np.diff(np.column_stack([below, within]), axis=1)
    expected = n * np.diff(normal_cdf((edges - mu[:, None]) / s[:, None]), axis=1)
    keep = expected >= 5.0
    kept = keep.sum(axis=1)
    terms = (counts - expected) ** 2 / expected
    chi2 = np.full(spread.size, np.inf)
    # the rows with m kept bins are summed as one (rows, m) array, so that each sum adds
    # its m terms as a 1-D sum of them does; bins not kept must not enter, even as zeros
    for m in set(kept[kept > 3].tolist()):
        rows = kept == m
        chi2[rows] = terms[rows][keep[rows]].reshape(-1, m).sum(axis=1) / (m - 3)
    fits = dict(zip(spread.tolist(), zip(chi2.tolist(), edges, counts)))
    return [
        WindowCoefficientStats(
            n,
            float(mean[row]),
            float(var[row]),
            *(fits.get(row) or (np.inf, np.array([mean[row], mean[row]]), np.array([n]))),
        )
        for row in range(n_rows)
    ]


def windowed_coefficient_stats(
    decomp: EigenDecomposition, symbol_index: int, edges: np.ndarray
) -> list[WindowCoefficientStats]:
    """Per-window sample statistics of one coefficient, as ``coefficient_samples`` takes it, with Gaussian fits.

    Windows of one size are fitted together as the rows of one 2-D array of
    samples: the full windows in one group, a short last one in another.
    """
    if not 0 <= symbol_index < decomp.dim:
        raise IndexError("symbol index outside the basis")
    starts, sizes = edges[:-1], np.diff(edges)
    out = [None] * sizes.size
    for size in set(sizes.tolist()):
        windows = np.flatnonzero(sizes == size)
        samples = coefficient_samples(decomp, symbol_index, starts[windows, None] + np.arange(size))
        for window, stats in zip(windows.tolist(), _gaussian_fits(samples)):
            out[window] = stats
    return out


def empirical_participation_ratio(decomp: EigenDecomposition) -> np.ndarray:
    """Per-eigenstate Pr = 1 / sum |C|^4 in the sector basis, from the decomposition's moment sums."""
    return 1.0 / decomp.sum_c4


@dataclass(frozen=True)
class SpacingRatioResult:
    mean_r: float
    r_values: np.ndarray
    n_excluded: int


def spacing_ratio(energies: np.ndarray) -> SpacingRatioResult:
    """Mean consecutive-spacing ratio r = min(s_i, s_i+1)/max(s_i, s_i+1).

    Restricted to the central ``SPACING_BULK_FRACTION`` of levels; spacings
    below ``DEGENERACY_TOL`` are excluded and counted.
    """
    e = np.sort(np.asarray(energies, dtype=float))
    n = e.size
    skip = int(round(0.5 * (1 - SPACING_BULK_FRACTION) * n))
    e = e[skip : n - skip] if skip > 0 else e
    s = np.diff(e)
    keep = s > DEGENERACY_TOL
    n_excluded = int(np.sum(~keep))
    s = s[keep]
    if s.size < 2:
        raise ValueError("not enough non-degenerate spacings")
    r = np.minimum(s[:-1], s[1:]) / np.maximum(s[:-1], s[1:])
    return SpacingRatioResult(mean_r=float(r.mean()), r_values=r, n_excluded=n_excluded)


@dataclass(frozen=True)
class ComparisonReport:
    """One row per window: its energy center, empirical mean, prediction and deviation."""

    e_center: np.ndarray
    empirical: np.ndarray
    predicted: np.ndarray
    rel_deviation: np.ndarray
    in_bulk: np.ndarray
    bulk_median: float
    bulk_p90: float
    bulk_fraction: float

    def to_dict(self) -> dict:
        keys = ("E", "empirical", "predicted", "rel_deviation", "in_bulk")
        columns = (self.e_center, self.empirical, self.predicted, self.rel_deviation, self.in_bulk)
        return {
            "bulk_fraction": self.bulk_fraction,
            "bulk_median": self.bulk_median,
            "bulk_p90": self.bulk_p90,
            "rows": [dict(zip(keys, row)) for row in zip(*(c.tolist() for c in columns))],
        }


def _median_p90(values: np.ndarray) -> tuple[float, float]:
    """``np.median`` and ``np.percentile(values, 90)`` of a non-empty array, bit for bit, from one sort.

    The percentile follows numpy's "linear" rule: the virtual index
    (n - 1) 0.9 splits into its floor i and fraction t, and the value is
    interpolated between ranks i and i + 1 as numpy's ``_lerp`` does it,
    from the upper rank where t >= 0.5.
    """
    s = np.sort(values).tolist()
    n = len(s)
    half = n // 2
    median = s[half] if n % 2 else (s[half - 1] + s[half]) / 2
    index = (n - 1) * 0.9
    i = int(index)
    t = index - i
    a, b = s[i], s[min(i + 1, n - 1)]
    p90 = b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t
    return median, p90


def compare(
    pred_energies: np.ndarray,
    pred_values: np.ndarray,
    energies: np.ndarray,
    values: np.ndarray,
    edges: np.ndarray,
    bulk_fraction: float = 0.6,
) -> ComparisonReport:
    """Window means of the per-level ``values`` against a prediction at the window centers.

    ``energies`` is the ascending spectrum that ``edges`` cuts into windows.
    Bulk windows are those whose mean level rank falls in the central
    ``bulk_fraction`` of the spectrum; the others are flagged, not dropped.
    """
    pred_energies = np.asarray(pred_energies, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    centers = 0.5 * (energies[lo] + energies[hi - 1])
    if centers.min() > pred_energies.max() or centers.max() < pred_energies.min():
        raise ValueError("prediction grid and empirical windows do not overlap")
    empirical = window_means(values, edges)
    predicted = np.interp(centers, pred_energies, pred_values)
    rel = np.divide(
        np.abs(empirical - predicted),
        np.abs(predicted),
        out=np.full(centers.size, np.inf),
        where=predicted != 0,
    )
    # mean level rank of each window as a fraction of the spectrum (exact half-integers)
    in_bulk = np.abs(0.5 * (lo + hi) / energies.size - 0.5) <= bulk_fraction / 2
    bulk = rel[in_bulk & np.isfinite(rel)]
    if not bulk.size:
        raise ValueError("no finite deviations inside the bulk")
    bulk_median, bulk_p90 = _median_p90(bulk)
    return ComparisonReport(
        e_center=centers,
        empirical=empirical,
        predicted=predicted,
        rel_deviation=rel,
        in_bulk=in_bulk,
        bulk_median=bulk_median,
        bulk_p90=bulk_p90,
        bulk_fraction=bulk_fraction,
    )
