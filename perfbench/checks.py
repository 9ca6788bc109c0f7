"""Output checks for the benchmark workloads, run outside the timed region.

Every check uses gauge-invariant quantities only (spectra, traces, block
sizes, participation ratios, model curves and per-window sums of |C|^2), so
a change of eigenvector phase convention or of storage dtype does not trip
it.  Each check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

# relative tolerance of the recorded-reference comparisons (model curves,
# participation ratios, window sums); the checks on spectra use TRACE_RTOL
REF_RTOL = 1e-6
TRACE_RTOL = 1e-9


def _close(got: float, ref: float, rtol: float, atol: float = 0.0) -> bool:
    if math.isnan(got) or math.isnan(ref):
        return math.isnan(got) and math.isnan(ref)
    return abs(got - ref) <= rtol * max(abs(got), abs(ref)) + atol


def check_diag(cache_dir, n_sites: int, lam: float, alpha: float) -> list[str]:
    """Spectra of all momentum sectors, summed over k, against tr H^j (j<=4).

    The sector spectra are read back through the program's ``cache_load``;
    the traces come from the sparse full-basis Hamiltonian.
    """
    import numpy as np

    from isingchaos import ModelParams, build_full_hamiltonian, cache_load

    params = ModelParams(n_sites=n_sites, lam=lam, alpha=alpha)
    power_sums = np.zeros(4)
    abs_sums = np.zeros(4)
    levels = 0
    problems = []
    for k in range(n_sites):
        decomp = cache_load(params, k, cache_dir)
        if decomp is None:
            problems.append(f"k={k}: no cached decomposition")
            continue
        e = np.asarray(decomp.energies, dtype=float)
        levels += e.size
        for j in range(4):
            power_sums[j] += np.sum(e ** (j + 1))
            abs_sums[j] += np.sum(np.abs(e) ** (j + 1))
    if problems:
        return problems
    if levels != 1 << n_sites:
        return [f"{levels} levels over all sectors, expected {1 << n_sites}"]
    h = build_full_hamiltonian(params)
    h2 = h @ h
    traces = [
        float(h.diagonal().sum()),
        float(h2.diagonal().sum()),
        float(h2.multiply(h).sum()),
        float(h2.multiply(h2).sum()),
    ]
    for j in range(4):
        got = float(power_sums[j])
        if abs(got - traces[j]) > TRACE_RTOL * abs_sums[j]:
            problems.append(f"sum_k sum E^{j + 1} = {got!r} but tr H^{j + 1} = {traces[j]!r}")
    return problems


def check_spacing(spectra: list[dict], n_sites: int, k: int, lam: float, alpha: float) -> list[str]:
    """Parity blocks of the k=0 sector: sizes (D +- N_inv)/2, sum E, sum E^2.

    ``spectra`` holds size, sum and sum of squares of each spectrum the CLI
    passed to ``spacing_ratio``, parity +1 first.
    """
    import numpy as np

    from isingchaos import ModelParams, build_sector_hamiltonian, momentum_basis

    if len(spectra) != 2:
        return [f"expected 2 parity-block spectra, captured {len(spectra)}"]
    basis = momentum_basis(n_sites, k)
    dim, n_inv = basis.dim, basis.n_invariant
    problems = []
    sizes = [s["size"] for s in spectra]
    expected = [(dim + n_inv) // 2, (dim - n_inv) // 2]
    if sizes != expected:
        problems.append(f"parity-block sizes {sizes}, expected {expected}")
    h = build_sector_hamiltonian(basis, ModelParams(n_sites=n_sites, lam=lam, alpha=alpha)).entries
    trace = float(np.real(np.trace(h)))
    frob2 = float(np.sum(np.abs(h) ** 2))
    sum_e = sum(s["sum"] for s in spectra)
    sum_e2 = sum(s["sum_sq"] for s in spectra)
    if abs(sum_e - trace) > TRACE_RTOL * math.sqrt(dim * frob2):
        problems.append(f"sum E = {sum_e!r} but tr H = {trace!r}")
    if abs(sum_e2 - frob2) > TRACE_RTOL * frob2:
        problems.append(f"sum E^2 = {sum_e2!r} but |H|_F^2 = {frob2!r}")
    return problems


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _column_print(values: list[float]) -> list[float]:
    """Order-sensitive fingerprint of a numeric column.

    Sum, index-weighted mean, min and max; the last number is the scale
    (mean |x|) that sets the absolute part of the tolerance.
    """
    n = len(values)
    return [
        math.fsum(values),
        math.fsum(i * v for i, v in enumerate(values)) / n,
        min(values),
        max(values),
        math.fsum(abs(v) for v in values) / n,
    ]


def _table_print(path: Path) -> dict:
    header, rows = _read_csv(path)
    out = {"rows": len(rows), "numeric": {}, "text": {}}
    for c, name in enumerate(header):
        column = [r[c] for r in rows]
        try:
            out["numeric"][name] = _column_print([float(v) for v in column])
        except ValueError:
            out["text"][name] = sorted(set(column))
    return out


def _k_of(path: Path) -> int:
    return int(re.search(r"_k(\d+)", path.name).group(1))


def summarize_compare(out_dir) -> dict:
    """Fingerprints of ``compare`` output: per-sector CSVs and bulk figures."""
    out_dir = Path(out_dir)
    report = json.loads((out_dir / "comparison_report.json").read_text())
    return {
        "files": {
            str(_k_of(p)): _table_print(p) for p in sorted(out_dir.glob("compare_k*.csv"))
        },
        "bulk": {
            key: [v[side][stat] for side in ("corrected", "uncorrected") for stat in ("bulk_median", "bulk_p90")]
            for key, v in report.items()
        },
    }


def summarize_predict(out_dir) -> dict:
    """Fingerprints of ``predict`` output, one per sector CSV."""
    return {
        "files": {
            str(_k_of(p)): _table_print(p) for p in sorted(Path(out_dir).glob("predict_k*.csv"))
        }
    }


def summarize_coeff_hist(out_dir) -> dict:
    """Per window, the sum of |C|^2 over the window's eigenstates.

    A window's samples are its coefficients (real sectors) or their real and
    imaginary parts (complex sectors); either way the sum of squared samples
    is sum |C|^2 = n (s^2 + mu^2), with mu and s read off the histogram range
    [mu - 4s, mu + 4s].  Neither the phase gauge nor the dtype changes it.
    """
    files = {}
    for path in sorted(Path(out_dir).glob("coeff_hist_k*_s*.csv")):
        header, rows = _read_csv(path)
        col = {name: i for i, name in enumerate(header)}
        lo, hi, n = {}, {}, {}
        for r in rows:
            w = r[col["window"]]
            lo.setdefault(w, float(r[col["bin_lo"]]))
            hi[w] = float(r[col["bin_hi"]])
            n[w] = int(r[col["n_samples"]])
        sums = {}
        for w in lo:
            mu, s = 0.5 * (lo[w] + hi[w]), (hi[w] - lo[w]) / 8.0
            sums[w] = n[w] * (s * s + mu * mu)
        files[f"{_k_of(path)}:{path.name.split('_s')[-1].split('.')[0]}"] = sums
    return {"files": files}


def _compare_tables(got: dict, ref: dict, where: str) -> list[str]:
    problems = []
    if got["rows"] != ref["rows"]:
        return [f"{where}: {got['rows']} rows, reference {ref['rows']}"]
    if got["text"] != ref["text"]:
        problems.append(f"{where}: text columns {got['text']} != {ref['text']}")
    for name, ref_print in ref["numeric"].items():
        got_print = got["numeric"].get(name)
        if got_print is None:
            problems.append(f"{where}: column {name} missing")
            continue
        atol = REF_RTOL * ref_print[-1]
        if not all(_close(g, r, REF_RTOL, atol) for g, r in zip(got_print, ref_print)):
            problems.append(f"{where}: column {name} {got_print} != reference {ref_print}")
    return problems


def check_against_reference(kind: str, out_dir, ref: dict) -> list[str]:
    """Compare one command's outputs with the reference recorded for them."""
    problems = []
    if kind == "coeff-hist":
        got = summarize_coeff_hist(out_dir)["files"]
        if sorted(got) != sorted(ref["files"]):
            return [f"coeff-hist files {sorted(got)} != reference {sorted(ref['files'])}"]
        for key, ref_sums in ref["files"].items():
            windows = sorted(set(got[key]) | set(ref_sums), key=int)
            # only the short last window may appear or vanish (its sample
            # count depends on whether the sector is stored real or complex)
            for w in windows[:-1]:
                if w not in got[key] or w not in ref_sums:
                    problems.append(f"coeff-hist {key}: window {w} missing")
                elif not _close(got[key][w], ref_sums[w], REF_RTOL):
                    problems.append(
                        f"coeff-hist {key} window {w}: sum|C|^2 {got[key][w]!r} != {ref_sums[w]!r}"
                    )
        return problems
    got = summarize_compare(out_dir) if kind == "compare" else summarize_predict(out_dir)
    if sorted(got["files"]) != sorted(ref["files"]):
        return [f"{kind} sectors {sorted(got['files'])} != reference {sorted(ref['files'])}"]
    for k, ref_table in ref["files"].items():
        problems += _compare_tables(got["files"][k], ref_table, f"{kind} k={k}")
    for key, ref_vals in ref.get("bulk", {}).items():
        got_vals = got["bulk"].get(key)
        if got_vals is None or not all(_close(g, r, REF_RTOL) for g, r in zip(got_vals, ref_vals)):
            problems.append(f"{kind} {key}: bulk deviations {got_vals} != {ref_vals}")
    return problems


SUMMARIZERS = {
    "compare": summarize_compare,
    "coeff-hist": summarize_coeff_hist,
    "predict": summarize_predict,
}
