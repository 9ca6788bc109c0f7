"""The benchmark's output checks hold on what the CLI writes.

``perfbench/checks.py`` reads the program through ``build_full_hamiltonian``,
``cache_load``, ``build_sector_hamiltonian(...).entries`` and
``momentum_basis(...).n_invariant``; these tests run its checks on a small
chain, so that a change which breaks any of those names fails here too.
Its ``coeff-hist`` check rests on the window sums of ``summarize_coeff_hist``
being sum |C|^2, which a test holds against the oracle's V.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from isingchaos import ModelParams, diagonalize, empirics, momentum_basis, sector_elements
from isingchaos.cli import EXIT_OK, main
from oracles import from_real

LAM, ALPHA = 1.001, 0.944  # a field point of the benchmark's seeds


@pytest.fixture(scope="module")
def checks():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_check_diag_passes_on_a_filled_cache(tmp_path, checks):
    argv = ["diag", "--spins", "10", "--momentum", "all", "--lambda", str(LAM), "--alpha", str(ALPHA)]
    assert main([*argv, "--cache-dir", str(tmp_path)]) == EXIT_OK
    assert checks.check_diag(tmp_path, 10, LAM, ALPHA) == []


def test_check_spacing_passes_on_the_spectra_of_spacing(monkeypatch, checks):
    spectra = []
    inner = empirics.spacing_ratio

    def recording(energies, *args, **kwargs):
        spectra.append({"size": int(energies.size), "sum": float(energies.sum()), "sum_sq": float(energies @ energies)})
        return inner(energies, *args, **kwargs)

    monkeypatch.setattr(empirics, "spacing_ratio", recording)
    argv = ["spacing", "--spins", "10", "--momentum", "0", "--lambda", str(LAM), "--alpha", str(ALPHA)]
    assert main(argv) == EXIT_OK
    assert checks.check_spacing(spectra, 10, 0, LAM, ALPHA) == []


def test_coeff_hist_window_sums_are_the_sums_of_the_squared_coefficients(tmp_path, checks):
    # per window, the sum of squared samples that summarize_coeff_hist reads off each CSV
    # is sum |V[symbol]|^2 over the window's levels, with V = U W of the oracle: for the
    # coefficients of a real sector, the real and imaginary parts of a paired state's and
    # the one real W_a of an invariant state's.  Sampling a paired state as W_a alone fails
    n_sites, momenta, symbols = 10, (0, 1, 5, 7), (0, 49)
    params = ModelParams(n_sites, LAM, ALPHA)
    argv = ["coeff-hist", "--spins", str(n_sites), "--lambda", str(LAM), "--alpha", str(ALPHA)]
    for k in momenta:
        argv += ["--momentum", str(k)]
    for symbol in symbols:
        argv += ["--symbol", str(symbol)]
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
    got = checks.summarize_coeff_hist(tmp_path)["files"]
    assert sorted(got) == sorted(f"{k}:{symbol}" for k in momenta for symbol in symbols)
    kinds = set()
    for k in momenta:
        solved = min(k, n_sites - k)
        basis = momentum_basis(n_sites, solved)
        decomp = diagonalize(basis, sector_elements(basis, params), params)
        weights = np.abs(from_real(basis, decomp.vectors)) ** 2  # |conj(V)|^2 = |V|^2 for k > N/2
        edges = empirics.windows_fixed_count(decomp.energies, max(50, decomp.dim // 40))
        for symbol in symbols:
            kinds.add((basis.is_real, bool(basis.partner[symbol] == symbol)))
            sums = got[f"{k}:{symbol}"]
            assert sums, (k, symbol)
            for window, total in sums.items():
                lo, hi = edges[int(window)], edges[int(window) + 1]
                np.testing.assert_allclose(total, weights[symbol, lo:hi].sum(), rtol=1e-9, err_msg=f"{k}:{symbol}")
    assert {(False, True), (False, False), (True, False)} <= kinds  # invariant and paired at complex k
