"""Record the reference outputs that the benchmark's checks compare against.

    python3 perfbench/record_refs.py

Run from the root of a checkout.  For every field point of ``run.POINTS`` it
runs the ``compare``, ``coeff-hist`` and ``predict`` operations of the
benchmark workloads through the CLI, fingerprints their outputs with
``checks.SUMMARIZERS`` and writes ``perfbench/refs.json``, tagged with the
source digest it was recorded from.  The diag and spacing checks need no
reference: they compare against traces of the Hamiltonian.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run
from checks import SUMMARIZERS


def _round(value, digits=12):
    """Floats to ``digits`` significant digits: far below the check tolerance."""
    if isinstance(value, float):
        return float(f"{value:.{digits}g}")
    if isinstance(value, dict):
        return {k: _round(v, digits) for k, v in value.items()}
    if isinstance(value, list):
        return [_round(v, digits) for v in value]
    return value


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    points = {}
    for lam, alpha in run.POINTS:
        work = root / ".perfbench_work" / "record_refs"
        shutil.rmtree(work, ignore_errors=True)
        (work / "ops").mkdir(parents=True)
        runner = run.Runner(root, work, lam, alpha)
        ops = [("fill", run.WORKLOADS["compare_n14_warm"]["fill"])]
        for name in ("compare_n14_warm", "predict_n20"):
            ops += [(kind, template) for template, kind in run.WORKLOADS[name]["ops"]]
        refs = {}
        for kind, template in ops:
            op = runner.run(template)
            if op["code"] != 0:
                print(f"{kind} at ({lam}, {alpha}) failed: {op['stderr'].read_text()}", file=sys.stderr)
                return 1
            if kind in SUMMARIZERS:
                refs[kind] = SUMMARIZERS[kind](run._flag(runner.cli_args(template), "--out"))
        points[f"{lam!r},{alpha!r}"] = _round(refs)
        print(f"recorded ({lam}, {alpha})", flush=True)
        shutil.rmtree(work)
    payload = {"source": run.source_identity(root), "rtol": run.checks.REF_RTOL, "points": points}
    (run.HERE / "refs.json").write_text(json.dumps(payload, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
