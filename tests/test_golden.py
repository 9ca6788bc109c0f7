"""Golden outputs: every CLI command at N=10 reproduces the files under ``tests/golden``.

Each case runs one command in-process into its own directory and compares
stdout and every written file with the recorded copy: numbers at a relative
tolerance of 1e-9, all other text exactly, with the run directory masked.

To record the files afresh (only when an output change is intended and
documented), run ``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from isingchaos.cli import EXIT_OK, main

GOLDEN = Path(__file__).resolve().parent / "golden"
MASK = "<run>"
RTOL = 1e-9

SECTOR = ["--spins", "10", "--momentum", "0", "--momentum", "1", "--momentum", "5"]
MODEL = ["--lambda", "0.9", "--alpha", "1.1"]
CORRECTIONS = ("none", "gram-charlier", "gibbs")

# case name -> argv; "{out}" is the case's output directory
CASES = {
    "basis-info-csv": ["basis-info", *SECTOR, "--out", "{out}"],
    "basis-info-json": ["basis-info", *SECTOR, "--format", "json", "--out", "{out}"],
    "diag": ["diag", *SECTOR, *MODEL],
    **{
        f"predict-{c}": ["predict", *SECTOR, *MODEL, "--corrections", c, "--grid", "64", "--out", "{out}"]
        for c in CORRECTIONS
    },
    **{
        f"compare-{c}": ["compare", *SECTOR, *MODEL, "--corrections", c, "--out", "{out}"]
        for c in CORRECTIONS
    },
    "coeff-hist": ["coeff-hist", *SECTOR, *MODEL, "--out", "{out}"],
    "coeff-hist-symbol-3": ["coeff-hist", *SECTOR, *MODEL, "--symbol", "3", "--out", "{out}"],
    "spacing": ["spacing", *SECTOR, *MODEL],
}

NUMBER = re.compile(r"(-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)")


def run_case(name: str, root: Path) -> dict[str, str]:
    """Run one case under ``root``; return stdout and each written file, masked."""
    out = root / name
    argv = [arg.replace("{out}", str(out)) for arg in CASES[name]]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    assert code == EXIT_OK
    texts = {"stdout.txt": stdout.getvalue()}
    if out.exists():
        texts.update((p.name, p.read_text()) for p in sorted(out.iterdir()))
    return {key: text.replace(str(root), MASK) for key, text in texts.items()}


def assert_matches(got: str, want: str, where: str) -> None:
    """Equal text with numbers compared at ``RTOL``."""
    got_parts, want_parts = NUMBER.split(got), NUMBER.split(want)
    assert len(got_parts) == len(want_parts), f"{where}: token structure differs"
    for i, (g, w) in enumerate(zip(got_parts, want_parts)):
        if i % 2 == 0:
            assert g == w, f"{where}: text {g!r} != {w!r}"
        else:
            assert math.isclose(float(g), float(w), rel_tol=RTOL), f"{where}: {g} != {w}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path, monkeypatch):
    monkeypatch.delenv("ISINGCHAOS_CACHE_DIR", raising=False)
    got = run_case(name, tmp_path)
    want_dir = GOLDEN / name
    want = {p.name: p.read_text() for p in sorted(want_dir.iterdir())}
    assert sorted(got) == sorted(want)
    for key in want:
        assert_matches(got[key], want[key], f"{name}/{key}")


def record() -> None:
    os.environ.pop("ISINGCHAOS_CACHE_DIR", None)
    shutil.rmtree(GOLDEN, ignore_errors=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in CASES:
            target = GOLDEN / name
            target.mkdir(parents=True)
            for key, text in run_case(name, Path(tmp)).items():
                (target / key).write_text(text)


if __name__ == "__main__":
    record()
    sys.exit(0)
