"""The benchmark's output checks hold on what the CLI writes.

``perfbench/checks.py`` reads the program through ``build_full_hamiltonian``,
``cache_load``, ``build_sector_hamiltonian(...).entries`` and
``momentum_basis(...).n_invariant``; these tests run its checks on a small
chain, so that a change which breaks any of those names fails here too.
"""

import importlib.util
from pathlib import Path

import pytest

from isingchaos import empirics
from isingchaos.cli import EXIT_OK, main

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
