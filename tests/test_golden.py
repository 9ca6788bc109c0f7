"""Golden outputs: every CLI command at N=10 reproduces the files under ``tests/golden``.

Each case runs one command in-process into its own directory and compares
stdout and every written file with the recorded copy: numbers at a relative
tolerance of 1e-9, all other text exactly, with the run directory masked.
The cases that read the cache run once more against entries that ``diag``
stored, and must match the same recorded copy.

To record the files afresh (only when an output change is intended and
documented), run ``PYTHONPATH=src python tests/test_golden.py [CASE ...]``;
with case names only those cases are recorded, otherwise all of them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from isingchaos import eigensolve
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
    # the integrable line: z-parity labels every block as well
    "spacing-alpha-0": ["spacing", *SECTOR, "--lambda", "0.9", "--alpha", "0"],
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


def assert_golden(name: str, got: dict[str, str]) -> None:
    want = {p.name: p.read_text() for p in sorted((GOLDEN / name).iterdir())}
    assert sorted(got) == sorted(want)
    for key in want:
        assert_matches(got[key], want[key], f"{name}/{key}")


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path, monkeypatch):
    monkeypatch.delenv("ISINGCHAOS_CACHE_DIR", raising=False)
    assert_golden(name, run_case(name, tmp_path))


@pytest.fixture(scope="module")
def filled_cache(tmp_path_factory) -> Path:
    cache = tmp_path_factory.mktemp("cache")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["diag", *SECTOR, *MODEL, "--cache-dir", str(cache)]) == EXIT_OK
    return cache


@pytest.mark.parametrize("name", ["coeff-hist", "coeff-hist-symbol-3", *(f"compare-{c}" for c in CORRECTIONS)])
def test_golden_output_from_a_filled_cache(name, filled_cache, tmp_path, monkeypatch):
    # the cases recorded without a cache, run again on the entries diag stored:
    # every sector must be a hit, and the hit path must write the same files
    def no_solve(matrix):
        raise AssertionError(f"k={matrix.k} was solved, not read from the cache")

    monkeypatch.setenv("ISINGCHAOS_CACHE_DIR", str(filled_cache))
    monkeypatch.setattr(eigensolve, "diagonalize", no_solve)
    got = run_case(name, tmp_path)
    # the cache directory is the one recorded setting that differs
    got["run_config.json"] = got["run_config.json"].replace(json.dumps(str(filled_cache)), "null")
    assert_golden(name, got)


def record(names: list[str]) -> None:
    os.environ.pop("ISINGCHAOS_CACHE_DIR", None)
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        raise SystemExit(f"unknown cases: {', '.join(unknown)}")
    with tempfile.TemporaryDirectory() as tmp:
        for name in names or CASES:
            target = GOLDEN / name
            shutil.rmtree(target, ignore_errors=True)
            target.mkdir(parents=True)
            for key, text in run_case(name, Path(tmp)).items():
                (target / key).write_text(text)


if __name__ == "__main__":
    record(sys.argv[1:])
    sys.exit(0)
