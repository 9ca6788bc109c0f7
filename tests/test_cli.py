"""CLI pipelines: argument handling, caching, determinism, exports."""

import dataclasses
import importlib
import json
import logging
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from isingchaos import cli
from isingchaos.cli import (
    EXIT_BAD_ARGS,
    EXIT_NUMERICAL,
    EXIT_OK,
    RunConfig,
    _config_from_args,
    build_parser,
    main,
)
from isingchaos.eigensolve import EigenDecomposition, cache_load
from isingchaos.hamiltonian import ModelParams
from isingchaos.moments import analytic_moments
from isingchaos.spin_basis import momentum_basis, sector_counts
from isingchaos.statmodel import GibbsInfeasibleError, fit_gibbs


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def load_config(text: str) -> RunConfig:
    """A ``run_config.json`` record reloaded."""
    return RunConfig(**json.loads(text))


def test_config_roundtrip():
    config = RunConfig(
        n_sites=10,
        lam=1.0,
        alpha=0.5,
        momenta=[0, 3],
        corrections="gibbs",
        window_levels=80,
        bulk_fraction=0.5,
        grid=128,
        cache_dir="/tmp/cache",
        out_dir="/tmp/out",
    )
    assert load_config(config.to_json()) == config


def test_basis_info(capsys):
    code, out, _ = run(capsys, "basis-info", "--spins", "8", "--momentum", "all")
    assert code == EXIT_OK
    assert "k" in out
    # N=8, k=0 necklace count
    assert " 36 " in out


def test_repeated_momentum_runs_its_sector_once(tmp_path, capsys):
    code, out, _ = run(capsys, "basis-info", "--spins", "8", "--momentum", "1", "--momentum", "1")
    assert code == EXIT_OK
    assert [line.split()[0] for line in out.splitlines()[1:]] == ["1"]
    momenta = ["--momentum", "2", "--momentum", "0", "--momentum", "2"]
    code, out, _ = run(
        capsys, "compare", "--spins", "8", *momenta, "--cache-dir", str(tmp_path / "cache"),
        "--out", str(tmp_path / "out"),
    )
    assert code == EXIT_OK
    assert [line.split(":")[0] for line in out.splitlines()] == ["k=2", "k=0"]  # first-seen order
    assert load_config((tmp_path / "out" / "run_config.json").read_text()).momenta == [2, 0]
    # a repeated --symbol is fitted once, in the order first named: at k=1 both are
    # invariant states, whose 30 samples, one per level, leave no window a degree of freedom
    symbols = ["--symbol", "3", "--symbol", "1", "--symbol", "3"]
    code, out, _ = run(
        capsys, "coeff-hist", "--spins", "8", "--momentum", "1", *symbols,
        "--cache-dir", str(tmp_path / "cache"), "--out", str(tmp_path / "hist"),
    )
    assert code == EXIT_OK
    assert out.splitlines() == [f"k=1 symbol={s}: skipped (no window has a degree of freedom)" for s in (3, 1)]
    assert load_config((tmp_path / "hist" / "run_config.json").read_text()).symbols == [3, 1]


def test_basis_info_momentum_parsing_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["basis-info", "--spins", "8", "--momentum", "9"])
    assert exc.value.code == EXIT_BAD_ARGS


@pytest.mark.parametrize(
    "command,momenta,message",
    [
        ("basis-info", ["all", "99"], "momentum 99 outside [0, 8)"),
        ("basis-info", ["99", "all"], "momentum 99 outside [0, 8)"),
        ("diag", ["all", "x"], "momentum 'x' is neither an integer nor 'all'"),
        ("diag", ["x"], "momentum 'x' is neither an integer nor 'all'"),
        ("predict", ["1", "all", "-1"], "momentum -1 outside [0, 8)"),
    ],
)
def test_every_momentum_token_is_checked_beside_all(tmp_path, capsys, command, momenta, message):
    argv = [command, "--spins", "8", *(a for k in momenta for a in ("--momentum", k))]
    with pytest.raises(SystemExit) as exc:
        main([*argv, *(["--out", str(tmp_path)] if command == "predict" else [])])
    assert exc.value.code == EXIT_BAD_ARGS
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_diag_uses_cache(tmp_path, capsys):
    from isingchaos import eigensolve

    argv = [
        "diag",
        "--spins",
        "8",
        "--momentum",
        "all",
        "--cache-dir",
        str(tmp_path),
    ]
    # k = 0..4 are solved and stored; k = 5..7 load as k = 3..1, stored the moment before
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert out.count("computed") == 5 and out.count("cache hit") == 3
    assert ["computed" in line for line in out.splitlines()] == [True] * 5 + [False] * 3
    params = ModelParams(8, 1.0, 1.0)
    assert sorted(tmp_path.iterdir()) == sorted(eigensolve._entry_path(params, k, tmp_path) for k in range(5))
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert out.count("cache hit") == 8


def test_cache_dir_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ISINGCHAOS_CACHE_DIR", str(tmp_path))
    run(capsys, "diag", "--spins", "6", "--momentum", "0")
    assert [p.suffix for p in tmp_path.iterdir()] == [".bin"]  # one file per entry


def test_predict_outputs_and_determinism(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out_dir in (out_a, out_b):
        code, _, _ = run(
            capsys,
            "predict",
            "--spins",
            "10",
            "--momentum",
            "1",
            "--corrections",
            "gram-charlier",
            "--grid",
            "64",
            "--out",
            str(out_dir),
        )
        assert code == EXIT_OK
    f_a = out_a / "predict_k1_gram-charlier.csv"
    f_b = out_b / "predict_k1_gram-charlier.csv"
    assert f_a.read_bytes() == f_b.read_bytes()
    provenance = load_config((out_a / "run_config.json").read_text())
    assert provenance.n_sites == 10 and provenance.momenta == [1]


def test_predict_flat_chain_pr(tmp_path, capsys):
    code, _, _ = run(
        capsys,
        "predict",
        "--spins",
        "9",
        "--lambda",
        "0",
        "--momentum",
        "2",
        "--corrections",
        "none",
        "--grid",
        "32",
        "--out",
        str(tmp_path),
    )
    assert code == EXIT_OK
    rows = (tmp_path / "predict_k2_none.csv").read_text().splitlines()
    header = rows[0].split(",")
    pr_col = header.index("Pr")
    pr = np.array([float(r.split(",")[pr_col]) for r in rows[1:]])
    assert np.allclose(pr, pr[0])  # flat participation-ratio curve


def test_predict_three_correction_variants(tmp_path, capsys):
    for corr in ("none", "gram-charlier", "gibbs"):
        code, _, _ = run(
            capsys,
            "predict",
            "--spins",
            "8",
            "--momentum",
            "0",
            "--corrections",
            corr,
            "--grid",
            "16",
            "--out",
            str(tmp_path),
        )
        assert code == EXIT_OK
        path = tmp_path / f"predict_k0_{corr}.csv"
        body = path.read_text()
        variant = {"none": "gaussian", "gram-charlier": "gram_charlier", "gibbs": "gibbs"}
        assert variant[corr] in body


def test_predict_with_an_infeasible_gibbs_n_uses_gram_charlier_there(tmp_path):
    # at lam = 10 the end classes n = 0 and 6 have standardized kurtosis near 190, beyond the
    # 144 a density on +-12 sigma can have: Gram-Charlier stands in for those two n only.
    # Run as a user runs it, in its own interpreter: the fitted P_1..P_5 have c4 < 0, so they
    # overflow beyond their +-12 sigma support inside the prediction span, and the suite
    # turns those RuntimeWarnings into errors.
    params = ModelParams(6, 10.0, 0.5)
    infeasible = []
    for n in range(7):
        try:
            fit_gibbs(analytic_moments(params, n))
        except GibbsInfeasibleError:
            infeasible.append(n)
    assert infeasible == [0, 6]
    argv = ["predict", "--spins", "6", "--lambda", "10", "--alpha", "0.5", "--momentum", "0",
            "--corrections", "gibbs", "--out", str(tmp_path)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-m", "isingchaos.cli", *argv], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == EXIT_OK, done.stderr
    fallbacks = re.findall(r"^Gibbs fit failed for n=(\d+) \(standardized kurtosis .*\); falling back to "
                           r"Gram-Charlier$", done.stderr, flags=re.M)
    assert sorted(map(int, fallbacks)) == infeasible
    assert done.stderr.count("Gibbs fit failed") == len(infeasible)
    assert (tmp_path / "predict_k0_gibbs.csv").exists()


def test_gram_charlier_prediction_writes_nothing_to_stderr(tmp_path):
    # negative Gram-Charlier lobes are clipped in density_stack without a log line
    argv = ["predict", "--spins", "20", "--lambda", "0.9", "--alpha", "1.1", "--momentum", "0",
            "--corrections", "gram-charlier", "--out", str(tmp_path)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-m", "isingchaos.cli", *argv], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stderr == ""
    assert (tmp_path / "predict_k0_gram-charlier.csv").exists()


def test_compare_pipeline(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "compare",
        "--spins",
        "12",
        "--momentum",
        "0",
        "--momentum",
        "2",
        "--window-levels",
        "30",
        "--cache-dir",
        str(tmp_path / "cache"),
        "--out",
        str(tmp_path / "out"),
    )
    assert code == EXIT_OK
    report = json.loads((tmp_path / "out" / "comparison_report.json").read_text())
    assert set(report) == {"k=0", "k=2"}
    for sector in report.values():
        assert "corrected" in sector and "uncorrected" in sector
        assert sector["corrected"]["bulk_median"] < sector["uncorrected"]["bulk_median"]
    csv_rows = (tmp_path / "out" / "compare_k0.csv").read_text().splitlines()
    assert csv_rows[0] == "E,empirical_Pr,predicted_corrected,predicted_uncorrected,in_bulk"
    assert len(csv_rows) > 3


def test_compare_gibbs_twice_in_one_process_is_byte_identical(tmp_path, capsys):
    from isingchaos import statmodel

    cache = str(tmp_path / "cache")
    assert run(capsys, "diag", "--spins", "10", "--momentum", "all", "--cache-dir", cache)[0] == EXIT_OK
    statmodel._gibbs_grid.cache_clear()  # the first run builds the quadrature, the second reuses it
    argv = ["compare", "--spins", "10", "--momentum", "all", "--corrections", "gibbs", "--cache-dir", cache]
    for name in ("cold", "warm"):
        assert run(capsys, *argv, "--out", str(tmp_path / name))[0] == EXIT_OK
    outputs = sorted(p.name for p in (tmp_path / "cold").iterdir() if p.name != "run_config.json")
    assert len(outputs) == 11 and "comparison_report.json" in outputs
    for name in outputs:
        assert (tmp_path / "cold" / name).read_bytes() == (tmp_path / "warm" / name).read_bytes()


def test_run_config_records_only_what_the_command_reads(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("ISINGCHAOS_CACHE_DIR", str(cache))
    cases = [
        (
            ["basis-info", "--spins", "6", "--momentum", "0"],
            {"out_dir", "format"},
            RunConfig(n_sites=6, momenta=[0], command="basis-info"),
        ),
        (
            ["compare", "--spins", "10", "--momentum", "1", "--corrections", "gibbs",
             "--window-levels", "10"],
            {"lam", "alpha", "corrections", "window_levels", "bulk_fraction", "grid",
             "cache_dir", "out_dir"},
            RunConfig(n_sites=10, momenta=[1], command="compare", corrections="gibbs",
                      window_levels=10, cache_dir=str(cache)),
        ),
        (
            ["predict", "--spins", "6", "--momentum", "0", "--grid", "16"],
            {"lam", "alpha", "corrections", "grid", "out_dir"},
            RunConfig(n_sites=6, momenta=[0], command="predict", grid=16),
        ),
    ]
    for argv, read, expected in cases:
        out = tmp_path / argv[0]
        assert run(capsys, *argv, "--out", str(out))[0] == EXIT_OK
        text = (out / "run_config.json").read_text()
        assert set(json.loads(text)) == {"command", "n_sites", "momenta"} | read
        config = load_config(text)
        assert config == dataclasses.replace(expected, out_dir=str(out))
        assert config.to_json() == text
        # basis-info takes no --cache-dir and leaves the variable unread; compare fills it
        assert cache.exists() == (argv[0] != "basis-info")
    for command, takes_cache in (("basis-info", False), ("spacing", False), ("compare", True)):
        config = _config_from_args(build_parser().parse_args([command, "--spins", "6"]))
        assert config.cache_dir == (str(cache) if takes_cache else None)


def test_compare_evaluates_each_model_on_the_grid_once(tmp_path, capsys, monkeypatch):
    from isingchaos import statmodel

    calls = []
    inner = statmodel.strength_density

    def counting(model, n_up, energy):
        calls.append(model.variant)
        return inner(model, n_up, energy)

    monkeypatch.setattr(statmodel, "strength_density", counting)
    momenta = ["--momentum", "0", "--momentum", "1", "--momentum", "5"]
    code, _, _ = run(
        capsys, "compare", "--spins", "10", *momenta, "--corrections", "gibbs",
        "--cache-dir", str(tmp_path / "cache"), "--out", str(tmp_path / "out"),
    )
    assert code == EXIT_OK
    # N + 1 densities per model for the three sectors, not N + 1 per prediction curve
    assert sorted(calls) == ["gaussian"] * 11 + ["gibbs"] * 11


def test_compare_cuts_the_windows_of_a_sector_once_for_both_models(tmp_path, capsys, monkeypatch):
    from isingchaos import empirics

    calls = []
    inner = empirics.compare

    def counting(pred_energies, predictions, *args, **kwargs):
        calls.append(sorted(predictions))
        return inner(pred_energies, predictions, *args, **kwargs)

    monkeypatch.setattr(empirics, "compare", counting)
    code, _, _ = run(capsys, "compare", "--spins", "10", "--momentum", "all",
                     "--cache-dir", str(tmp_path / "cache"), "--out", str(tmp_path / "out"))
    assert code == EXIT_OK
    assert calls == [["corrected", "uncorrected"]] * 10
    report = json.loads((tmp_path / "out" / "comparison_report.json").read_text())
    assert len(report) == 10
    for sector in report.values():
        # the window columns, row for row, are the same under both models
        corrected, uncorrected = (
            [(row["E"], row["empirical"], row["in_bulk"]) for row in sector[name]["rows"]]
            for name in ("corrected", "uncorrected")
        )
        assert corrected == uncorrected and len(corrected) > 1


@pytest.mark.parametrize(
    "command",
    [
        ["compare", "--corrections", "gibbs", "--cache-dir", "{cache}"],
        ["coeff-hist", "--cache-dir", "{cache}"],
        ["predict", "--corrections", "gibbs"],
    ],
)
def test_warm_analysis_leaves_numpy_ma_and_scipy_unloaded(tmp_path, capsys, command):
    # nor numpy.polynomial: the Gibbs quadrature computes its own Gauss-Legendre rule;
    # nor fractions and decimal: the mean domain-wall count is one float division
    cache = str(tmp_path / "cache")
    assert run(capsys, "diag", "--spins", "8", "--momentum", "all", "--cache-dir", cache)[0] == EXIT_OK
    argv = [command[0], "--spins", "8", "--momentum", "all", *(a.format(cache=cache) for a in command[1:]),
            "--out", str(tmp_path / "out")]
    script = (
        "import sys\n"
        "from isingchaos import cli, eigensolve\n"
        "def no_solve(basis, elements, params):\n"
        "    raise AssertionError('cache miss')\n"
        "eigensolve.diagonalize = no_solve\n"
        f"assert cli.main({argv!r}) == 0\n"
        "loaded = [m for m in sys.modules if m in ('numpy.ma', 'numpy.polynomial', 'fractions', 'decimal')\n"
        "          or m.startswith(('numpy.ma.', 'numpy.polynomial.', 'scipy'))]\n"
        "assert not loaded, loaded\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_coeff_hist(tmp_path, capsys):
    code, _, _ = run(
        capsys,
        "coeff-hist",
        "--spins",
        "10",
        "--momentum",
        "0",
        "--symbol",
        "12",
        "--window-levels",
        "50",
        "--out",
        str(tmp_path),
    )
    assert code == EXIT_OK
    rows = (tmp_path / "coeff_hist_k0_s12.csv").read_text().splitlines()
    assert rows[0] == "window,bin_lo,bin_hi,count,density,chi2_reduced,n_samples"
    assert len(rows) > 5


def _chi2_column(path):
    header, *rows = path.read_text().splitlines()
    col = header.split(",").index("chi2_reduced")
    return [float(row.split(",")[col]) for row in rows]


def test_coeff_hist_hashes_the_head_and_the_blocks_of_its_rows(tmp_path, capsys, monkeypatch):
    from isingchaos import eigensolve

    # a filled N=14 cache of random entries, k = 0..7, that every k loads from as
    # k~ = min(k, 14 - k): which bytes a load reads does not depend on them
    params = ModelParams(14, 1.0, 1.0)
    rng = np.random.default_rng(0)
    bases = {k: momentum_basis(14, k) for k in range(8)}
    for k, basis in bases.items():
        dim = basis.dim
        w = rng.standard_normal((dim, dim))
        energies = np.sort(rng.standard_normal(dim))
        decomp = EigenDecomposition(
            params, k, k, energies, w, np.zeros(dim, np.int8), eigensolve.state_moment_sums(w, basis.partner, 2.0)
        )
        eigensolve.cache_store(decomp, tmp_path / "cache")
    hashed = {k: [] for k in bases}
    inner = eigensolve._read_verified

    def recording(fh, parts, sha256, bin_path):
        k = int(bin_path.name.split("_")[1].removeprefix("k"))  # entries are named N14_k<k>_<key digest>
        hashed[k].append(sum(part.nbytes for part in parts))
        return inner(fh, parts, sha256, bin_path)

    def no_solve(basis, elements, params):
        raise AssertionError(f"k={basis.k} was solved, not read from the cache")

    monkeypatch.setattr(eigensolve, "_read_verified", recording)
    monkeypatch.setattr(eigensolve, "diagonalize", no_solve)
    argv = ["coeff-hist", "--spins", "14", "--momentum", "all", "--cache-dir", str(tmp_path / "cache")]
    code, _, _ = run(capsys, *argv, "--out", str(tmp_path / "out"))
    assert code == EXIT_OK
    block = eigensolve.CACHE_BLOCK_ROWS
    assert block == 8
    for k, basis in bases.items():
        dim, symbol = basis.dim, basis.dim // 2
        # the default symbol D/2 is a paired state whose partner's row lies in another block
        rows = sorted([symbol, int(basis.partner[symbol])])
        assert rows[0] // block != rows[1] // block, k
        # the head (energies, parity labels, moment sums), then the block of each of the two
        # rows of W, once for k and once more for 14 - k where that is another sector
        blocks = [8 * dim * min(block, dim - row // block * block) for row in rows]
        loads = 1 if k in (0, 7) else 2
        assert hashed[k] == [17 * dim, *blocks] * loads, k


def test_coeff_hist_skips_windows_without_a_degree_of_freedom(tmp_path, capsys):
    # k=0 is real: 30 levels give 30 samples, too few for a chi^2 with a degree of
    # freedom, so no window is written and, with none left, no file; 37 levels give finite fits
    argv = ["coeff-hist", "--spins", "12", "--momentum", "0", "--symbol", "3"]
    code, out, _ = run(capsys, *argv, "--window-levels", "30", "--out", str(tmp_path / "w30"))
    assert code == EXIT_OK
    assert out == "k=0 symbol=3: skipped (no window has a degree of freedom)\n"
    assert sorted(p.name for p in (tmp_path / "w30").iterdir()) == ["run_config.json"]
    assert run(capsys, *argv, "--window-levels", "37", "--out", str(tmp_path / "w37"))[0] == EXIT_OK
    chi2 = _chi2_column(tmp_path / "w37" / "coeff_hist_k0_s3.csv")
    assert chi2 and all(np.isfinite(chi2))


def test_predict_where_the_model_has_no_states(tmp_path, capsys):
    # the Gram-Charlier tails are negative at the grid edge and density_stack clips
    # them to zero: M_q and Pr are NaN there, without a floating-point warning (the
    # suite turns those into errors)
    code, _, _ = run(
        capsys, "predict", "--spins", "10", "--lambda", "0.8", "--alpha", "1.2", "--momentum", "1",
        "--corrections", "gram-charlier", "--out", str(tmp_path),
    )
    assert code == EXIT_OK
    header, *rows = (tmp_path / "predict_k1_gram-charlier.csv").read_text().splitlines()
    cells = [dict(zip(header.split(","), row.split(","))) for row in rows]
    empty = [c for c in cells if c["Pr"] == "nan"]
    assert len(empty) == 45 and all(float(c["rho"]) == 0.0 for c in empty)
    assert all(np.isfinite(float(c["Pr"])) for c in cells if float(c["rho"]) > 0.0)


def test_model_commands_enumerate_nothing(tmp_path, capsys, monkeypatch):
    from isingchaos import spin_basis

    cache = str(tmp_path / "cache")
    assert run(capsys, "diag", "--spins", "10", "--momentum", "all", "--cache-dir", cache)[0] == EXIT_OK

    def refuse(*args, **kwargs):
        raise AssertionError("a model command enumerated configurations")

    for namespace, name in ((spin_basis, "orbit_tables"), (spin_basis, "momentum_basis"), (cli, "momentum_basis")):
        monkeypatch.setattr(namespace, name, refuse)
    # a filled cache is read with the sector sizes in closed form: diag builds no basis on a hit
    code, out, _ = run(capsys, "diag", "--spins", "10", "--momentum", "all", "--cache-dir", cache)
    assert code == EXIT_OK and out.count("cache hit") == 10
    code, out, _ = run(capsys, "predict", "--spins", "20", "--momentum", "all", "--out", str(tmp_path / "p"))
    assert code == EXIT_OK and out.count("wrote") == 20
    code, out, _ = run(capsys, "compare", "--spins", "10", "--cache-dir", cache, "--out", str(tmp_path / "c"))
    assert code == EXIT_OK and out.count("corrected median dev") == 10
    # basis-info prints and writes the counts in closed form
    for fmt in ("csv", "json"):
        out_dir = tmp_path / f"b-{fmt}"
        code, out, _ = run(capsys, "basis-info", "--spins", "10", "--format", fmt, "--out", str(out_dir))
        assert code == EXIT_OK and len(out.splitlines()) == 11
        assert (out_dir / f"basis_info.{fmt}").exists()


def test_predict_beyond_the_enumerable_chains(tmp_path, capsys):
    code, _, _ = run(
        capsys, "predict", "--spins", "26", "--momentum", "0", "--momentum", "1", "--out", str(tmp_path),
    )
    assert code == EXIT_OK
    for k in (0, 1):
        header, *rows = (tmp_path / f"predict_k{k}_gram-charlier.csv").read_text().splitlines()
        cells = np.array([row.split(",")[:6] for row in rows], dtype=float)
        assert header.split(",")[:6] == ["E", "rho", "M_1.5", "M_2", "M_3", "Pr"]
        assert len(rows) == 512 and np.isfinite(cells).all()
        # rho and Pr agree on where the model has states, though negative
        # Gram-Charlier lobes outweigh the positive P_n in the tails
        np.testing.assert_array_equal(cells[:, 1] > 0, np.isfinite(cells[:, 5]))


def test_basis_info_beyond_the_enumerable_chains(tmp_path, capsys):
    # the counts are in closed form, so basis-info runs wherever int64 holds them
    for n_sites in (30, 69):
        out_dir = tmp_path / str(n_sites)
        code, out, _ = run(
            capsys, "basis-info", "--spins", str(n_sites), "--momentum", "0", "--momentum", "1",
            "--format", "json", "--out", str(out_dir),
        )
        assert code == EXIT_OK
        rows = json.loads((out_dir / "basis_info.json").read_text())
        assert [row["k"] for row in rows] == [0, 1]
        for k, row in enumerate(rows):
            counts = sector_counts(n_sites, k)
            assert row["dim_formula"] == counts.dim and "dim_exact" not in row
            assert sum(row["nu_tot"]) == counts.dim
            assert f"{counts.dim:>10}" in out.splitlines()[1 + k]


def test_predict_refuses_counts_beyond_int64(tmp_path, capsys):
    # the k = 0 sector of N = 69 holds about 2^69 / 69 states, that of N = 70 more than int64 holds
    code, _, _ = run(capsys, "predict", "--spins", "69", "--momentum", "0", "--grid", "8", "--out", str(tmp_path))
    assert code == EXIT_OK
    code, _, err = run(capsys, "predict", "--spins", "70", "--momentum", "0", "--grid", "8", "--out", str(tmp_path))
    assert code == EXIT_BAD_ARGS
    assert "bad arguments: sector k=0 at N=70" in err and "int64" in err


def test_spacing_command(capsys):
    code, out, _ = run(capsys, "spacing", "--spins", "10", "--momentum", "0")
    assert code == EXIT_OK
    assert "parity" in out


def test_spacing_integrable_path(capsys):
    code, out, _ = run(
        capsys,
        "spacing",
        "--spins",
        "10",
        "--alpha",
        "0",
        "--momentum",
        "0",
        "--momentum",
        "3",
    )
    assert code == EXIT_OK
    assert "z+1" in out and "z-1" in out


def _refuse(what):
    def call(*args, **kwargs):
        raise AssertionError(f"the command ran {what}")

    return call


def _refuse_the_dense_path(monkeypatch):
    """Make every part of the dense plane-wave path raise: the commands build their blocks from element lists."""
    import isingchaos
    import oracles
    from isingchaos import hamiltonian

    # cli binds no copy of it today; setting one anyway refuses a binding cli gains later
    for module in (isingchaos, cli, hamiltonian):
        monkeypatch.setattr(module, "build_sector_hamiltonian", _refuse("the dense assembly"), raising=False)
    monkeypatch.setattr(oracles, "hermiticity_defect", _refuse("the dense hermiticity check"))
    monkeypatch.setattr(oracles, "real_basis_matrix", _refuse("the dense real basis"))
    monkeypatch.setattr(oracles, "to_real", _refuse("the dense real-basis product"))
    monkeypatch.setattr(oracles, "symmetry_blocks", _refuse("the dense symmetry split"))


@pytest.mark.parametrize(
    "command",
    [["diag"], ["compare", "--out", "{out}"], ["coeff-hist", "--out", "{out}"]],
    ids=["diag", "compare", "coeff-hist"],
)
def test_a_cache_miss_solves_without_the_dense_path(tmp_path, capsys, monkeypatch, command):
    from isingchaos import eigensolve

    _refuse_the_dense_path(monkeypatch)
    solved = []
    inner = eigensolve.diagonalize

    def recording(basis, elements, params):
        solved.append(basis.k)
        return inner(basis, elements, params)

    monkeypatch.setattr(eigensolve, "diagonalize", recording)
    cache = tmp_path / "cache"
    argv = [command[0], "--spins", "8", "--momentum", "0", "--momentum", "1", "--cache-dir", str(cache)]
    code, _, _ = run(capsys, *argv, *(a.format(out=tmp_path / "out") for a in command[1:]))
    assert code == EXIT_OK
    assert solved == [0, 1]  # both sectors were misses, solved and stored
    assert sorted(p.suffix for p in cache.iterdir()) == [".bin"] * 2


def test_spacing_solves_values_only(capsys, monkeypatch):
    from isingchaos import eigensolve

    monkeypatch.delenv("ISINGCHAOS_CACHE_DIR", raising=False)
    monkeypatch.setattr(eigensolve, "diagonalize", _refuse("the eigenvector solve"))
    monkeypatch.setattr(np.linalg, "eigh", _refuse("an eigenvector driver"))
    # nor any part of the dense plane-wave path: spacing builds its blocks from the element list
    _refuse_the_dense_path(monkeypatch)
    code, out, _ = run(capsys, "spacing", "--spins", "10", "--momentum", "0", "--momentum", "1", "--momentum", "5")
    assert code == EXIT_OK
    labels = [line.split(":")[0] for line in out.splitlines()[1:]]
    assert labels == ["k=0 parity +1", "k=0 parity -1", "k=1 ", "k=5 parity +1", "k=5 parity -1"]
    code, out, _ = run(capsys, "spacing", "--spins", "10", "--alpha", "0", "--momentum", "0", "--momentum", "1")
    assert code == EXIT_OK
    labels = [line.split(":")[0] for line in out.splitlines()[1:]]
    assert labels == ["k=0 z+1 S+", "k=0 z+1 S-", "k=0 z-1 S+", "k=0 z-1 S-", "k=1 z+1", "k=1 z-1"]


def test_spacing_neither_reads_nor_fills_the_cache(tmp_path, capsys, monkeypatch):
    from isingchaos import eigensolve

    argv = ["spacing", "--spins", "10", "--momentum", "0", "--momentum", "1"]
    monkeypatch.delenv("ISINGCHAOS_CACHE_DIR", raising=False)
    code, uncached, _ = run(capsys, *argv)
    assert code == EXIT_OK

    def no_full_solve(*args, **kwargs):
        raise AssertionError("spacing ran the eigenvector solve")

    # spacing takes no --cache-dir, and a cache given by environment changes nothing: diag fills it
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--cache-dir", str(tmp_path / "flag")])
    assert exc.value.code == EXIT_BAD_ARGS
    monkeypatch.setattr(eigensolve, "diagonalize", no_full_solve)
    monkeypatch.setenv("ISINGCHAOS_CACHE_DIR", str(tmp_path / "env"))
    code, from_env, _ = run(capsys, *argv)
    assert code == EXIT_OK and from_env == uncached
    assert list(tmp_path.iterdir()) == []


def test_spacing_imports_no_numpy_random():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    argv = ["spacing", "--spins", "8", "--momentum", "0"]
    script = (
        "import sys\n"
        "from isingchaos.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "assert 'numpy.random' not in sys.modules, 'numpy.random imported'\n"
    )
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_spacing_solves_each_pair_of_sectors_once(capsys, monkeypatch):
    solved = []
    inner = cli.block_spectra

    def counting(basis, *args, **kwargs):
        solved.append(basis.k)
        return inner(basis, *args, **kwargs)

    monkeypatch.setattr(cli, "block_spectra", counting)
    code, _, _ = run(capsys, "spacing", "--spins", "10", "--momentum", "all")
    assert code == EXIT_OK
    assert solved == [0, 1, 2, 3, 4, 5]  # k = 6..9 print the spectra of k = 4..1


@pytest.mark.parametrize("alpha", ["1", "0"])
@pytest.mark.parametrize("spins", [9, 10])
def test_spacing_prints_sector_n_minus_k_as_sector_k(capsys, spins, alpha):
    code, out, _ = run(capsys, "spacing", "--spins", str(spins), "--alpha", alpha, "--momentum", "all")
    assert code == EXIT_OK
    lines = {}
    for line in out.splitlines()[1:]:
        k, rest = re.fullmatch(r"k=(\d+)(.*)", line).groups()
        lines.setdefault(int(k), []).append(rest)
    assert sorted(lines) == list(range(spins))
    for k in range(spins // 2 + 1, spins):
        assert lines[k] == lines[spins - k]


@pytest.mark.parametrize("alpha", ["1", "0"])
@pytest.mark.parametrize("spins", ["3", "4", "5"])
def test_spacing_skips_small_blocks(capsys, spins, alpha):
    code, out, _ = run(capsys, "spacing", "--spins", spins, "--alpha", alpha, "--momentum", "0")
    assert code == EXIT_OK
    lines = out.splitlines()[1:]
    assert lines and all(line.endswith(": skipped (n < 20 levels)") for line in lines)


def test_import_leaves_scipy_unloaded():
    # the CLI's start-up, through its help text, loads none of the modules
    # that only some commands or the tests need
    script = (
        "import sys\n"
        "import isingchaos.cli\n"
        "try:\n"
        "    isingchaos.cli.main(['--help'])\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "unwanted = ('scipy', 'numpy.ma', 'numpy.polynomial', 'numpy.random', 'fractions', 'decimal')\n"
        "loaded = [m for m in sys.modules if m in unwanted or m.startswith(tuple(u + '.' for u in unwanted))]\n"
        "assert not loaded, f'{loaded} imported'\n"
        "from isingchaos import ModelParams, build_full_hamiltonian\n"
        "h = build_full_hamiltonian(ModelParams(4, 1.0, 1.0))\n"
        "assert h.shape == (16, 16) and abs(h - h.T).max() == 0\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def _diag_n6(tmp_path):
    return ["diag", "--spins", "6", "--momentum", "0", "--cache-dir", str(tmp_path)]


def test_every_public_name_resolves():
    import isingchaos

    assert [name for name in isingchaos.__all__ if not hasattr(isingchaos, name)] == []


def test_truncated_header_recomputes(tmp_path, capsys):
    code, out, _ = run(capsys, *_diag_n6(tmp_path))
    assert code == EXIT_OK and "computed" in out
    (entry,) = tmp_path.iterdir()
    whole = entry.read_bytes()
    entry.write_bytes(whole[: 8 + 20])  # cut inside the header
    code, out, _ = run(capsys, *_diag_n6(tmp_path))
    assert code == EXIT_OK and "computed" in out
    assert entry.read_bytes() == whole  # rewritten whole
    code, out, _ = run(capsys, *_diag_n6(tmp_path))
    assert code == EXIT_OK and "cache hit" in out


def test_corrupted_payload_is_a_numerical_failure(tmp_path, capsys):
    code, _, _ = run(capsys, *_diag_n6(tmp_path))
    assert code == EXIT_OK
    (entry,) = tmp_path.iterdir()
    data = bytearray(entry.read_bytes())
    data[8 + int.from_bytes(data[:8], "little") + 40] ^= 0xFF  # an energy, past the header length and the header
    entry.write_bytes(bytes(data))
    code, _, err = run(capsys, *_diag_n6(tmp_path))
    assert code == EXIT_NUMERICAL
    assert "checksum mismatch" in err


@pytest.mark.parametrize(
    "flag,value",
    [
        ("--bulk-fraction", "0"),
        ("--bulk-fraction", "1.5"),
        ("--bulk-fraction", "nan"),
        ("--grid", "1"),
        ("--window-levels", "1"),
        ("--lambda", "inf"),
    ],
)
def test_out_of_range_arguments_exit_at_parse_time(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--spins", "8", "--momentum", "0", flag, value])
    assert exc.value.code == EXIT_BAD_ARGS
    err = capsys.readouterr().err
    assert (flag if flag != "--lambda" else "must be finite") in err


@pytest.mark.parametrize(
    "command,flag,value",
    [
        ("basis-info", "--lambda", "0.5"),
        ("diag", "--out", "out"),
        ("predict", "--cache-dir", "cache"),
        ("compare", "--seed", "1"),
        ("coeff-hist", "--corrections", "gibbs"),
        ("spacing", "--bulk-fraction", "0.8"),
        ("spacing", "--seed", "1"),
        ("spacing", "--surrogate", "goe"),
    ],
)
def test_flag_a_command_does_not_read_exits_at_parse_time(capsys, command, flag, value):
    with pytest.raises(SystemExit) as exc:
        main([command, "--spins", "6", "--momentum", "0", flag, value])
    assert exc.value.code == EXIT_BAD_ARGS
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "symbol,momenta",
    [("999", ["0"]), ("-1", ["0"]), ("12", ["0", "1"])],  # dims at N = 6: 14 (k=0), 9 (k=1)
)
def test_coeff_hist_symbol_out_of_range_exits_at_parse_time(tmp_path, capsys, symbol, momenta):
    argv = ["coeff-hist", "--spins", "6", "--symbol", symbol, "--out", str(tmp_path / "out")]
    for k in momenta:
        argv += ["--momentum", k]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_BAD_ARGS
    assert f"--symbol {symbol} outside" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # refused before any work


def test_chain_size_error_is_a_bad_argument(capsys):
    # more states than int64 counts
    code, _, err = run(capsys, "basis-info", "--spins", "70", "--momentum", "0")
    assert code == EXIT_BAD_ARGS
    assert "bad arguments" in err


def test_sector_too_large_for_the_available_memory_is_refused(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "cache"
    code, _, _ = run(capsys, "diag", "--spins", "10", "--cache-dir", str(cache))
    assert code == EXIT_OK
    filled = sorted(cache.iterdir())
    hist_argv = ["coeff-hist", "--spins", "10", "--momentum", "1", "--momentum", "7", "--symbol", "4",
                 "--cache-dir", str(cache), "--out"]
    code, _, _ = run(capsys, *hist_argv, str(tmp_path / "hist"))
    assert code == EXIT_OK
    monkeypatch.setattr(cli, "_mem_available", lambda: 1 << 16)  # 64 KiB
    # a cache hit is never refused
    out = str(tmp_path / "out")
    code, _, _ = run(capsys, "compare", "--spins", "10", "--cache-dir", str(cache), "--out", out)
    assert code == EXIT_OK
    # a miss is refused before it enumerates a configuration, and stores nothing
    from isingchaos import spin_basis

    def refuse(*args, **kwargs):
        raise AssertionError("a refused sector enumerated configurations")

    empty = tmp_path / "empty"
    with monkeypatch.context() as patch:
        patch.setattr(spin_basis, "orbit_tables", refuse)
        patch.setattr(cli, "momentum_basis", refuse)
        code, _, err = run(capsys, "diag", "--spins", "10", "--momentum", "1", "--cache-dir", str(empty))
    assert code == EXIT_BAD_ARGS
    assert "bad arguments: sector k=1 at N=10 needs about 0.6 MiB, more than the 0.1 MiB" in err
    assert not empty.exists() or not any(empty.iterdir())
    # coeff-hist names symbols; only a hit maps them to rows of W, so a miss builds no basis either
    with monkeypatch.context() as patch:
        patch.setattr(spin_basis, "orbit_tables", refuse)
        code, _, err = run(capsys, "coeff-hist", "--spins", "10", "--momentum", "1", "--cache-dir", str(empty),
                           "--out", str(tmp_path / "refused"))
    assert code == EXIT_BAD_ARGS
    assert "bad arguments: sector k=1 at N=10 needs about 0.6 MiB, more than the 0.1 MiB" in err
    assert not empty.exists() or not any(empty.iterdir())
    # a coeff-hist hit builds its basis and writes what a run with the real memory reading writes
    code, _, _ = run(capsys, *hist_argv, str(tmp_path / "hist_refusing"))
    assert code == EXIT_OK
    written = [{path.name: path.read_bytes() for path in (tmp_path / name).glob("*.csv")}
               for name in ("hist", "hist_refusing")]
    assert sorted(written[0]) == ["coeff_hist_k1_s4.csv", "coeff_hist_k7_s4.csv"]
    assert written[1] == written[0]
    assert sorted(cache.iterdir()) == filled
    code, _, err = run(capsys, "spacing", "--spins", "10", "--momentum", "0")
    assert code == EXIT_BAD_ARGS
    assert "bad arguments: sector k=0 at N=10" in err
    # spacing refuses the sector it solves: k=7 is printed from the spectra of k=3
    code, _, err = run(capsys, "spacing", "--spins", "10", "--momentum", "7")
    assert code == EXIT_BAD_ARGS
    assert "bad arguments: sector k=3 at N=10" in err


def test_the_real_memory_reading_admits_every_sector_at_n14():
    available = cli._mem_available()
    assert available is None or available > 0
    config = RunConfig(n_sites=14, momenta=list(range(14)))
    for k in config.momenta:
        cli._check_memory(config, k, cli.SOLVE_UNITS)
        cli._check_memory(config, k, cli.SPECTRA_UNITS)


@pytest.mark.parametrize("command", ["predict", "compare"])
def test_chain_too_short_for_moment_formulas_is_a_bad_argument(tmp_path, capsys, command):
    argv = [command, "--spins", "4", "--out", str(tmp_path / "out")]
    if command == "compare":
        argv += ["--cache-dir", str(tmp_path / "cache")]
    code, _, err = run(capsys, *argv)
    assert code == EXIT_BAD_ARGS
    assert "bad arguments: fourth-moment formula requires N >= 5" in err


def test_internal_value_error_is_a_numerical_failure(tmp_path, capsys, monkeypatch):
    from isingchaos import empirics

    def no_bulk(*args, **kwargs):
        raise ValueError("no finite deviations inside the bulk")

    monkeypatch.setattr(empirics, "compare", no_bulk)
    code, _, err = run(capsys, "compare", "--spins", "8", "--momentum", "1", "--out", str(tmp_path))
    assert code == EXIT_NUMERICAL
    assert "numerical failure: no finite deviations" in err


@pytest.mark.parametrize("command,field,name", [("compare", "--lambda", "lam"), ("predict", "--alpha", "alpha")])
def test_a_field_too_large_for_the_moment_formulas_is_a_bad_argument(tmp_path, capsys, command, field, name):
    # the analytic moments raise max(|lam|, |alpha|) N to the fourth power, which
    # overflows a float past about 1.2e77; 1e200 once failed in them with exit 3
    from isingchaos.hamiltonian import FIELD_SCALE_MAX

    argv = [command, "--spins", "8", "--momentum", "1", field, "1e200", "--out", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_BAD_ARGS
    err = capsys.readouterr().err
    assert f"error: field {name} = 1e+200 is too large" in err and f"{FIELD_SCALE_MAX:.4g}" in err
    assert "Traceback" not in err and not (tmp_path / "out").exists()


NO_BULK_DEVIATION = "numerical failure: no finite deviations inside the bulk\n"


@pytest.mark.parametrize("command,momentum,code,stderr", [
    # the id is the one pytest derives from the values (command, code, stderr)
    pytest.param("compare", "1", EXIT_NUMERICAL, NO_BULK_DEVIATION, id=f"compare-3-{NO_BULK_DEVIATION}"),
    pytest.param("predict", "1", EXIT_NUMERICAL, "numerical failure: sector k=1: rho is 0 at every grid point; "
                 "the grid spacing 2.25e+74 is far wider than the largest class sigma 4\n", id="predict-3-no-weight"),
    pytest.param("predict", "0", EXIT_NUMERICAL, "numerical failure: sector k=0: rho is 0 at every grid point "
                 "between the end points; the grid spacing 2.25e+74 is far wider than the largest class sigma 4\n",
                 id="predict-k0-3-no-weight"),
])
def test_a_large_allowed_field_overflows_no_density(tmp_path, capsys, command, momentum, code, stderr):
    # lam N = 5.76e76 is inside FIELD_SCALE_MAX, and far in the Gaussian's tails the
    # Gram-Charlier term He4(x) overflows; the suite turns any NumPy warning into an error.
    # The grid spacing dwarfs every class's sigma, so no grid point of k=1 holds model
    # weight: neither command writes a curve for it. At k=0 the grid's end points round
    # onto the energies -+lam N of the classes n = 0 and N and hold weight, but no point
    # between them does, so predict writes no curve for k=0 either
    got, _, err = run(capsys, command, "--spins", "8", "--momentum", momentum, "--lambda", "7.2e75",
                      "--out", str(tmp_path))
    assert (got, err) == (code, stderr)
    assert sorted(path.name for path in tmp_path.iterdir()) == ["run_config.json"]


ONE_BULK_WINDOW = ("k={k}: the bulk holds 1 window (D={dim} levels in windows of 50), so each bulk median "
                   "is that one window's deviation")


def test_compare_warns_of_a_bulk_of_one_window(tmp_path, capsys, caplog):
    # every N = 8 sector has fewer levels than one 50-level window; at N = 10 every
    # sector has two windows in the bulk
    with caplog.at_level(logging.WARNING, logger="isingchaos.cli"):
        code, out, _ = run(capsys, "compare", "--spins", "8", "--momentum", "0", "--out", str(tmp_path / "8"))
    assert code == EXIT_OK
    assert [r.getMessage() for r in caplog.records] == [ONE_BULK_WINDOW.format(k=0, dim=36)]
    assert caplog.records[0].levelno == logging.WARNING
    assert out == "k=0: corrected median dev 0.8934, uncorrected 0.0049\n"
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="isingchaos.cli"):
        code, _, _ = run(capsys, "compare", "--spins", "10", "--out", str(tmp_path / "10"))
    assert code == EXIT_OK
    assert caplog.records == []


def test_no_window_in_the_bulk_is_named_as_the_cause(tmp_path, capsys):
    # 167 two-level windows have mean ranks 1, 3, ..., 333 of D = 335 levels, and none
    # of them is within 0.1675 of the middle rank 167.5
    code, _, err = run(capsys, "compare", "--spins", "12", "--momentum", "1", "--window-levels", "2",
                       "--bulk-fraction", "0.001", "--out", str(tmp_path))
    assert code == EXIT_NUMERICAL
    assert err == ("numerical failure: no window lies in the bulk: none of the 167 windows has its mean "
                   "level rank in the central fraction 0.001 of the spectrum\n")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["run_config.json"]


@pytest.mark.parametrize("command,flag", [("diag", "--cache-dir"), ("predict", "--out")])
def test_a_file_in_place_of_a_directory_is_an_io_failure(tmp_path, capsys, command, flag):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, _, err = run(capsys, command, "--spins", "6", "--momentum", "0", flag, str(blocker))
    assert code == EXIT_NUMERICAL
    assert err.splitlines() == [f"I/O failure: [Errno 17] File exists: '{blocker}'"]


@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_closed_stdout_stops_without_a_traceback(tmp_path, unbuffered):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [sys.executable, "-m", "isingchaos.cli", "compare", "--spins", "8", "--momentum", "1",
            "--out", str(tmp_path)]
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first line is written
    try:
        done = subprocess.run(argv, env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert done.returncode == EXIT_NUMERICAL
    # the sector's one bulk window is logged before its line is written
    assert done.stderr.splitlines() == [ONE_BULK_WINDOW.format(k=1, dim=30), "I/O failure: [Errno 32] Broken pipe"]


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize(
    "argv,code",
    [(["--help"], EXIT_OK), (["diag", "--help"], EXIT_OK), (["diag", "--spins", "x"], EXIT_BAD_ARGS),
     (["basis-info", "--spins", "8", "--momentum", "9"], EXIT_BAD_ARGS)],
)
def test_help_and_usage_errors_keep_their_exit_codes_on_a_closed_stdout(unbuffered, argv, code):
    # argparse prints and exits before any command runs; with a buffered
    # stdout the help text used to fail only at exit, with status 120
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "isingchaos.cli", *argv], env=env, stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert done.returncode == code
    assert "Exception ignored" not in done.stderr and "Traceback" not in done.stderr
    if code == EXIT_OK:
        assert done.stderr == ""
    else:
        assert done.stderr.splitlines()[-1].startswith("isingchaos")
        assert ": error: " in done.stderr


def test_the_console_script_runs_basis_info(capsys, monkeypatch):
    # the [project.scripts] entry, resolved and called with no arguments as
    # an installed wrapper calls it, without installing
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    section = re.search(r"^\[project\.scripts\]$(.*?)(?=^\[|\Z)", text, re.MULTILINE | re.DOTALL).group(1)
    entries = dict(re.findall(r'^([\w-]+)\s*=\s*"([\w.:]+)"\s*$', section, re.MULTILINE))
    module, function = entries["isingchaos"].split(":")
    script = getattr(importlib.import_module(module), function)
    monkeypatch.setattr(sys, "argv", ["isingchaos", "basis-info", "--spins", "8", "--momentum", "0"])
    assert script() == EXIT_OK
    assert capsys.readouterr().out.splitlines()[1].split()[:2] == ["0", "36"]


# runs the CLI on argv[2:] after a hook that, the first time it fires, touches
# <argv[1]>/paused and waits there until <argv[1]>/go exists
_PAUSING_CLI = (
    "import json, os, sys, time\n"
    "from pathlib import Path\n"
    "from isingchaos.cli import main\n"
    "signals = Path(sys.argv[1])\n"
    "def pause():\n"
    "    (signals / 'paused').touch()\n"
    "    for _ in range(12000):  # two minutes at most, should the test stop before it says go\n"
    "        if (signals / 'go').exists():\n"
    "            break\n"
    "        time.sleep(0.01)\n"
    "{hook}"
    "sys.exit(main(sys.argv[2:]))\n"
)


def _python(threads, *argv):
    """A Python process at ``threads`` BLAS threads, its output piped."""
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(sys.path),
        "OPENBLAS_NUM_THREADS": threads,
        "OMP_NUM_THREADS": threads,
    }
    return subprocess.Popen([sys.executable, *map(str, argv)], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def _finish(process):
    out, err = process.communicate(timeout=120)
    return process.returncode, out, err


def _until_paused(process, signals):
    deadline = time.monotonic() + 120
    while not (signals / "paused").exists():
        assert process.poll() is None, _finish(process)
        assert time.monotonic() < deadline, "the paused process never reached its pause"
        time.sleep(0.01)


def test_two_concurrent_cache_writers(tmp_path):
    # two diag runs store every k of one key into one directory at once: each
    # entry lands whole, with no temp file left, and holds the bytes that one
    # run alone writes. Every run takes one BLAS thread: the bits of a solve
    # depend on the thread count, and two runs of two threads each at once
    # oversubscribe a two-core machine many times over
    argv = ["-m", "isingchaos.cli", "diag", "--spins", "12", "--momentum", "all", "--cache-dir"]
    shared, alone = tmp_path / "shared", tmp_path / "alone"
    writers = [_python("1", *argv, shared), _python("1", *argv, shared)]  # both run at once
    for writer in writers:
        code, _, err = _finish(writer)
        assert code == EXIT_OK, err
    assert _finish(_python("1", *argv, alone))[0] == EXIT_OK
    names = sorted(p.name for p in alone.iterdir())
    assert sorted(Path(name).suffix for name in names) == [".bin"] * 7  # k = 0..6; 7..11 load from 5..1
    assert sorted(p.name for p in shared.iterdir()) == names  # no temp file left
    for name in names:
        assert (shared / name).read_bytes() == (alone / name).read_bytes(), name


def test_a_store_paused_after_its_rename_leaves_one_whole_entry(tmp_path):
    # writer A, at one BLAS thread, pauses right after its first rename until
    # writer B, at two, has stored the same key and exited. The bits of a
    # solve depend on the thread count, so a second rename of A's that lands
    # after B's would mix the two runs' bytes under one key
    argv = ["diag", "--spins", "12", "--momentum", "1", "--cache-dir"]
    hook = (
        "real_replace = os.replace\n"
        "def replace(src, dst):\n"
        "    real_replace(src, dst)\n"
        "    os.replace = real_replace\n"
        "    pause()\n"
        "os.replace = replace\n"
    )
    shared, signals = tmp_path / "shared", tmp_path / "signals"
    signals.mkdir()
    writer_a = _python("1", "-c", _PAUSING_CLI.format(hook=hook), signals, *argv, shared)
    _until_paused(writer_a, signals)
    assert _finish(_python("2", "-m", "isingchaos.cli", *argv, shared))[0] == EXIT_OK
    (signals / "go").touch()
    assert _finish(writer_a)[0] == EXIT_OK
    assert cache_load(ModelParams(12, 1.0, 1.0), 1, shared, symbols=None) is not None
    # the entry is, byte for byte, the one that a lone run at one of the two thread counts writes
    lone = {}
    for threads in ("1", "2"):
        assert _finish(_python(threads, "-m", "isingchaos.cli", *argv, tmp_path / threads))[0] == EXIT_OK
        lone[threads] = {p.name: p.read_bytes() for p in (tmp_path / threads).iterdir()}
    assert {p.name: p.read_bytes() for p in shared.iterdir()} in lone.values()


def test_a_load_paused_after_the_header_reads_one_entry(tmp_path):
    # a compare reads the header of an entry solved at one BLAS thread, then
    # pauses while another process, at two threads, stores the same key over
    # it: the rest of the load still reads the entry whose header it read
    cache, signals = tmp_path / "cache", tmp_path / "signals"
    signals.mkdir()
    diag = ["-m", "isingchaos.cli", "diag", "--spins", "12", "--momentum", "1", "--cache-dir", cache]
    assert _finish(_python("1", *diag))[0] == EXIT_OK
    hook = (
        "real_loads = json.loads\n"
        "def loads(text, **kwargs):\n"
        "    value = real_loads(text, **kwargs)\n"
        "    if isinstance(value, dict) and 'head_sha256' in value:  # a cache entry's header\n"
        "        json.loads = real_loads\n"
        "        pause()\n"
        "    return value\n"
        "json.loads = loads\n"
    )
    compare = ["compare", "--spins", "12", "--momentum", "1", "--cache-dir", cache, "--out", tmp_path / "out"]
    reader = _python("1", "-c", _PAUSING_CLI.format(hook=hook), signals, *compare)
    _until_paused(reader, signals)
    store = (
        "import sys\n"
        "from isingchaos import ModelParams, diagonalize, momentum_basis, sector_elements\n"
        "from isingchaos.eigensolve import cache_store\n"
        "params, basis = ModelParams(12, 1.0, 1.0), momentum_basis(12, 1)\n"
        "cache_store(diagonalize(basis, sector_elements(basis, params), params), sys.argv[1])\n"
    )
    assert _finish(_python("2", "-c", store, cache))[0] == 0
    (signals / "go").touch()
    code, _, err = _finish(reader)
    assert code == EXIT_OK, err
