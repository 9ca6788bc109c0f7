"""Empirical eigenvector statistics and model-vs-data comparison tools.

Everything here works on full sector eigen-decompositions: windowed
coefficient distributions with Gaussian-fit quality, participation ratios,
eigenvector moments, nearest-neighbour spacing ratios (with GOE / Poisson
surrogates), and a deviation report that interpolates a model prediction at
empirical window centers.  A window is a contiguous range of level ranks in
the ascending spectrum, and one integer array of edges carries them all, so
every windowed statistic is a reduction over slices of per-level values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .eigensolve import EigenDecomposition
from .spin_basis import is_real_sector

POISSON_MEAN_R = 2 * np.log(2) - 1  # 0.3863
GOE_MEAN_R = 0.5307  # accepted numerical value for the 3x3-surmise ensemble

# eigenvector rows per block of the moment sums sum_n |C_n|^2q
MOMENT_CHUNK_ROWS = 64

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

    Real sectors (``is_real_sector``) give the coefficients themselves;
    complex sectors contribute real and imaginary parts as separate Gaussian
    samples.
    """
    c = decomp.vectors[symbol_index, levels]
    if is_real_sector(decomp.params.n_sites, decomp.k):
        return c.real.copy()
    return np.concatenate([c.real, c.imag])


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


def _gaussian_fit_chi2(samples: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Reduced chi^2 of the moment-fitted Gaussian against a histogram.

    inf when the fit has no degree of freedom: no spread, or fewer than four
    bins expecting 5 or more counts, as for every sample of 36 or fewer.
    """
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
    decomp: EigenDecomposition, symbol_index: int, edges: np.ndarray
) -> list[WindowCoefficientStats]:
    """Per-window sample statistics of one coefficient with Gaussian fits."""
    if not 0 <= symbol_index < decomp.dim:
        raise IndexError("symbol index outside the basis")
    out = []
    for a, b in zip(edges[:-1], edges[1:]):
        samples = coefficient_samples(decomp, symbol_index, slice(a, b))
        chi2, bin_edges, counts = _gaussian_fit_chi2(samples)
        out.append(
            WindowCoefficientStats(
                n_samples=samples.size,
                mean=float(samples.mean()),
                variance=float(samples.var()),
                chi2_reduced=chi2,
                bin_edges=bin_edges,
                counts=counts,
            )
        )
    return out


def empirical_participation_ratio(decomp: EigenDecomposition) -> np.ndarray:
    """Per-eigenstate Pr = 1 / sum |C|^4 in the sector basis."""
    return 1.0 / state_moment_sums(decomp, 2.0)


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


def empirical_moments(decomp: EigenDecomposition, q: float, edges: np.ndarray) -> np.ndarray:
    """Window averages of the eigenvector moment sums."""
    if q < 1:
        raise ValueError("q must be >= 1")
    return window_means(state_moment_sums(decomp, q), edges)


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


def goe_surrogate_levels(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Spectrum of one GOE random matrix."""
    a = rng.standard_normal((dim, dim))
    return np.linalg.eigvalsh((a + a.T) / np.sqrt(2 * dim))


def poisson_surrogate_levels(n: int, rng: np.random.Generator) -> np.ndarray:
    """Levels of an uncorrelated (Poisson) spectrum."""
    return np.sort(rng.uniform(0.0, 1.0, size=n))


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
    return ComparisonReport(
        e_center=centers,
        empirical=empirical,
        predicted=predicted,
        rel_deviation=rel,
        in_bulk=in_bulk,
        bulk_median=float(np.median(bulk)),
        bulk_p90=float(np.percentile(bulk, 90)),
        bulk_fraction=bulk_fraction,
    )
