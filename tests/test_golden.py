"""Golden outputs: every CLI command at N=10 reproduces the files under ``tests/golden``.

Each case runs one command in-process into its own directory and compares
stdout and every written file with the recorded copy: numbers at a relative
tolerance of 1e-9, all other text exactly, with the run directory masked.
The cases that read the cache run once more against entries that ``diag``
stored, and must match the same recorded copy.

To record the files afresh (only when an output change is intended and
documented), run ``PYTHONPATH=src python tests/test_golden.py [CASE ...]``;
with case names only those cases are recorded, otherwise all of them.  The
recorder keeps every recorded number that the new run still matches at
``RTOL`` and writes only the number tokens that moved, so a run on another
machine rewrites nothing; a file whose text or token structure changed is
written whole.  It prints, per file, what it did.
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
    def no_solve(basis, elements, params):
        raise AssertionError(f"k={basis.k} was solved, not read from the cache")

    monkeypatch.setenv("ISINGCHAOS_CACHE_DIR", str(filled_cache))
    monkeypatch.setattr(eigensolve, "diagonalize", no_solve)
    got = run_case(name, tmp_path)
    # the cache directory is the one recorded setting that differs
    got["run_config.json"] = got["run_config.json"].replace(json.dumps(str(filled_cache)), "null")
    assert_golden(name, got)


def merge_numbers(got: str, want: str) -> tuple[str, list[float]] | None:
    """``want`` with each number token that ``got`` no longer matches at ``RTOL`` replaced by ``got``'s.

    Returns the merged text and the relative change of each replaced number,
    or None when the two differ in their text or their token structure.
    """
    got_parts, want_parts = NUMBER.split(got), NUMBER.split(want)
    if len(got_parts) != len(want_parts):
        return None
    moved = []
    for i, (g, w) in enumerate(zip(got_parts, want_parts)):
        if i % 2 == 0:
            if g != w:
                return None
        elif not math.isclose(float(g), float(w), rel_tol=RTOL):
            want_parts[i] = g
            moved.append(abs(float(g) - float(w)) / abs(float(w)) if float(w) else math.inf)
    return "".join(want_parts), moved


def test_merge_numbers_writes_only_the_numbers_that_moved():
    recorded = "E,rho\n1.0000000000000002,0.25\n-3,7e-05\n"
    got = "E,rho\n1.0000000000000004,0.5\n-3.0000000000001,7.0000001e-05\n"
    merged, moved = merge_numbers(got, recorded)
    assert merged == "E,rho\n1.0000000000000002,0.5\n-3,7.0000001e-05\n"
    assert moved == pytest.approx([1.0, 1e-7 / 7])
    assert merge_numbers(got, got) == (got, [])
    assert merge_numbers("E,rho\n1,2,3\n", recorded) is None  # another token structure
    assert merge_numbers(got.replace("rho", "Pr"), recorded) is None  # other text


def test_recording_every_case_again_rewrites_no_byte(tmp_path, monkeypatch, capsys):
    golden = tmp_path / "golden"
    shutil.copytree(GOLDEN, golden)
    files = sorted(p for p in golden.rglob("*") if p.is_file())
    before = {p: (p.read_bytes(), p.stat().st_mtime_ns) for p in files}
    monkeypatch.delenv("ISINGCHAOS_CACHE_DIR", raising=False)
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN", golden)
    record([])
    assert sorted(p for p in golden.rglob("*") if p.is_file()) == files
    assert {p: (p.read_bytes(), p.stat().st_mtime_ns) for p in files} == before
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(files)
    assert all(line.endswith(": unchanged") for line in lines)


def record(names: list[str]) -> None:
    os.environ.pop("ISINGCHAOS_CACHE_DIR", None)
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        raise SystemExit(f"unknown cases: {', '.join(unknown)}")
    with tempfile.TemporaryDirectory() as tmp:
        for name in names or CASES:
            target = GOLDEN / name
            target.mkdir(parents=True, exist_ok=True)
            got = run_case(name, Path(tmp))
            for stale in sorted({p.name for p in target.iterdir()} - set(got)):
                (target / stale).unlink()
                print(f"{name}/{stale}: removed, the command no longer writes it")
            for key, text in got.items():
                path = target / key
                recorded = path.read_text() if path.exists() else None
                merged = None if recorded is None else merge_numbers(text, recorded)
                if merged is None:
                    path.write_text(text)
                    why = "a new file" if recorded is None else "its text or token structure changed"
                    print(f"{name}/{key}: written whole, {why}")
                    continue
                text, moved = merged
                if moved:
                    path.write_text(text)
                    print(f"{name}/{key}: {len(moved)} numbers moved, largest relative change {max(moved):.3e}")
                else:
                    print(f"{name}/{key}: unchanged")


if __name__ == "__main__":
    record(sys.argv[1:])
    sys.exit(0)
