"""CLI pipelines: argument handling, caching, determinism, exports."""

import json

import numpy as np
import pytest

from isingchaos.cli import EXIT_BAD_ARGS, EXIT_NUMERICAL, EXIT_OK, RunConfig, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
        seed=9,
    )
    assert RunConfig.from_json(config.to_json()) == config


def test_basis_info(capsys):
    code, out, _ = run(capsys, "basis-info", "--spins", "8", "--momentum", "all")
    assert code == EXIT_OK
    assert "k" in out
    # N=8, k=0 necklace count
    assert " 36 " in out


def test_basis_info_momentum_parsing_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["basis-info", "--spins", "8", "--momentum", "9"])
    assert exc.value.code == EXIT_BAD_ARGS


def test_diag_uses_cache(tmp_path, capsys):
    argv = [
        "diag",
        "--spins",
        "8",
        "--momentum",
        "all",
        "--cache-dir",
        str(tmp_path),
    ]
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert out.count("computed") == 8
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert out.count("cache hit") == 8


def test_cache_dir_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ISINGCHAOS_CACHE_DIR", str(tmp_path))
    run(capsys, "diag", "--spins", "6", "--momentum", "0")
    assert list(tmp_path.glob("*.json"))


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
    provenance = RunConfig.from_json((out_a / "run_config.json").read_text())
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


def test_spacing_command(capsys):
    code, out, _ = run(
        capsys,
        "spacing",
        "--spins",
        "10",
        "--momentum",
        "0",
        "--seed",
        "5",
        "--surrogate",
        "poisson",
    )
    assert code == EXIT_OK
    assert "Poisson surrogate" in out
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


def _diag_n6(tmp_path):
    return ["diag", "--spins", "6", "--momentum", "0", "--cache-dir", str(tmp_path)]


def test_truncated_sidecar_recomputes(tmp_path, capsys):
    code, out, _ = run(capsys, *_diag_n6(tmp_path))
    assert code == EXIT_OK and "computed" in out
    (sidecar,) = tmp_path.glob("*.json")
    sidecar.write_text(sidecar.read_text()[:20])
    code, out, _ = run(capsys, *_diag_n6(tmp_path))
    assert code == EXIT_OK and "computed" in out
    json.loads(sidecar.read_text())  # rewritten whole
    code, out, _ = run(capsys, *_diag_n6(tmp_path))
    assert code == EXIT_OK and "cache hit" in out


def test_corrupted_payload_is_a_numerical_failure(tmp_path, capsys):
    code, _, _ = run(capsys, *_diag_n6(tmp_path))
    assert code == EXIT_OK
    (payload,) = tmp_path.glob("*.bin")
    data = bytearray(payload.read_bytes())
    data[40] ^= 0xFF
    payload.write_bytes(bytes(data))
    code, _, err = run(capsys, *_diag_n6(tmp_path))
    assert code == EXIT_NUMERICAL
    assert "checksum mismatch" in err
