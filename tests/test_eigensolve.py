"""Eigensolver contracts and cache round-trips."""

import json
import logging

import numpy as np
import pytest

from isingchaos import eigensolve
from isingchaos.eigensolve import (
    CacheCorruptionError,
    DiagonalizationError,
    EigenDecomposition,
    NonHermitianError,
    SymmetryBreakingError,
    _fix_phases,
    cache_load,
    cache_store,
    diagonalize,
    diagonalize_cached,
)
from isingchaos.empirics import coefficient_samples
from isingchaos.hamiltonian import ModelParams, SectorMatrix, build_full_hamiltonian, build_sector_hamiltonian
from isingchaos.spin_basis import momentum_basis

PARAMS = ModelParams(6, 1.0, 1.0)


def as_sector(matrix, params=PARAMS, k=0):
    return SectorMatrix(params=params, k=k, entries=np.asarray(matrix, dtype=np.complex128))


def test_two_by_two_closed_form():
    a, b = 0.7, 0.4 - 0.3j
    decomp = diagonalize(as_sector([[a, b], [np.conj(b), a]]))
    assert decomp.energies == pytest.approx([a - abs(b), a + abs(b)])


def test_diagonal_matrix():
    decomp = diagonalize(as_sector(np.diag([3.0, -1.0, 2.0])))
    assert decomp.energies == pytest.approx([-1.0, 2.0, 3.0])
    # identity permutation up to ordering; columns are unit basis vectors
    for col in decomp.vectors.T:
        assert np.sort(np.abs(col)) == pytest.approx([0.0, 0.0, 1.0])


def test_residuals_and_orthonormality():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    h = (a + a.conj().T) / 2
    decomp = diagonalize(as_sector(h))
    norm = np.max(np.abs(decomp.energies))
    residual = h @ decomp.vectors - decomp.vectors * decomp.energies
    assert np.max(np.linalg.norm(residual, axis=0)) < 1e-8 * norm
    gram = decomp.vectors.conj().T @ decomp.vectors
    assert np.max(np.abs(gram - np.eye(40))) < 1e-8
    assert np.max(np.abs(np.sum(np.abs(decomp.vectors) ** 2, axis=0) - 1)) < 1e-10


def test_phase_gauge():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    decomp = diagonalize(as_sector((a + a.conj().T) / 2))
    for col in decomp.vectors.T:
        lead = col[np.argmax(np.abs(col))]
        assert lead.imag == pytest.approx(0.0, abs=1e-12)
        assert lead.real > 0


def test_phase_gauge_breaks_ties_by_lowest_index():
    # |c_1| exceeds |c_0| by rounding-level noise only: the lower index leads
    col = np.array([0.6j, 0.6 * (1 + 1e-12) * np.exp(0.4j), 0.0, 0.529150262212918])
    fixed = _fix_phases(col[:, None].copy())[:, 0]
    assert fixed[0] == pytest.approx(0.6, abs=1e-15)
    # a clear maximum still leads, wherever it sits
    col = np.array([0.5j, -0.8, 0.33166247903554])
    fixed = _fix_phases(col[:, None].copy())[:, 0]
    assert fixed[1] == pytest.approx(0.8, abs=1e-15)


def test_non_hermitian_rejected():
    with pytest.raises(NonHermitianError):
        diagonalize(as_sector([[0.0, 1.0], [0.5, 0.0]]))


def test_energies_ascending_and_count():
    basis = momentum_basis(8, 3)
    decomp = diagonalize(build_sector_hamiltonian(basis, ModelParams(8, 1.0, 1.0)))
    assert decomp.dim == basis.dim
    assert np.all(np.diff(decomp.energies) >= 0)


def test_sector_vs_full_spectrum():
    params = ModelParams(8, 1.0, 1.0)
    full = np.sort(np.linalg.eigvalsh(build_full_hamiltonian(params).toarray()))
    union = np.concatenate(
        [
            diagonalize(build_sector_hamiltonian(momentum_basis(8, k), params)).energies
            for k in range(8)
        ]
    )
    assert np.max(np.abs(np.sort(union) - full)) < 1e-9


def test_determinism():
    basis = momentum_basis(7, 2)
    matrix = build_sector_hamiltonian(basis, ModelParams(7, 1.0, 1.0))
    d1 = diagonalize(matrix)
    d2 = diagonalize(matrix)
    assert np.array_equal(d1.energies, d2.energies)
    assert np.array_equal(d1.vectors, d2.vectors)


def test_cache_roundtrip_bit_exact(tmp_path):
    params = ModelParams(10, 1.0, 1.0)
    basis = momentum_basis(10, 1)
    decomp = diagonalize(build_sector_hamiltonian(basis, params))
    cache_store(decomp, tmp_path)
    loaded = cache_load(params, 1, tmp_path)
    assert loaded is not None
    assert np.array_equal(loaded.energies, decomp.energies)
    assert np.array_equal(loaded.vectors, decomp.vectors)


def test_cache_key_is_exact(tmp_path):
    params = ModelParams(6, 1.0, 1.0)
    decomp = diagonalize(build_sector_hamiltonian(momentum_basis(6, 0), params))
    cache_store(decomp, tmp_path)
    nudged = ModelParams(6, 1.0 + 1e-15, 1.0)
    assert nudged.lam != params.lam
    assert cache_load(nudged, 0, tmp_path) is None
    assert cache_load(params, 1, tmp_path) is None


def test_cache_corruption_detected(tmp_path):
    params = ModelParams(6, 1.0, 1.0)
    decomp = diagonalize(build_sector_hamiltonian(momentum_basis(6, 0), params))
    meta_path = cache_store(decomp, tmp_path)
    bin_path = meta_path.with_suffix(".bin")
    payload = bytearray(bin_path.read_bytes())
    payload[13] ^= 0xFF
    bin_path.write_bytes(bytes(payload))
    with pytest.raises(CacheCorruptionError):
        cache_load(params, 0, tmp_path)


def test_cache_version_mismatch_is_a_miss(tmp_path):
    import json

    params = ModelParams(6, 1.0, 1.0)
    decomp = diagonalize(build_sector_hamiltonian(momentum_basis(6, 0), params))
    meta_path = cache_store(decomp, tmp_path)
    meta = json.loads(meta_path.read_text())
    meta["version"] = 999
    meta_path.write_text(json.dumps(meta))
    assert cache_load(params, 0, tmp_path) is None


def test_diagonalize_cached(tmp_path):
    params = ModelParams(6, 1.0, 1.0)
    basis = momentum_basis(6, 2)

    def builder():
        return build_sector_hamiltonian(basis, params)

    first, hit1 = diagonalize_cached(builder, params, 2, tmp_path)
    second, hit2 = diagonalize_cached(builder, params, 2, tmp_path)
    assert (hit1, hit2) == (False, True)
    assert np.array_equal(first.energies, second.energies)
    assert np.array_equal(first.vectors, second.vectors)


def oracle_decomposition(matrix):
    """Complex eigh of the plane-wave block, in the solver's phase gauge."""
    energies, vectors = np.linalg.eigh(matrix.entries)
    return EigenDecomposition(
        params=matrix.params, k=matrix.k, energies=energies, vectors=_fix_phases(vectors)
    )


@pytest.mark.parametrize("n_sites", [9, 10, 12])
def test_real_solve_matches_complex_oracle(n_sites):
    params = ModelParams(n_sites, 1.0, 1.0)
    for k in range(n_sites):
        matrix = build_sector_hamiltonian(momentum_basis(n_sites, k), params)
        decomp = diagonalize(matrix)
        oracle = oracle_decomposition(matrix)
        assert decomp.vectors.dtype == np.complex128
        assert np.max(np.abs(decomp.energies - oracle.energies)) < 1e-12
        assert np.max(np.abs(decomp.vectors - oracle.vectors)) < 1e-10
        real_sector = k == 0 or 2 * k == n_sites
        for sym in (0, 5, decomp.dim // 2):
            got = coefficient_samples(decomp, sym, np.arange(decomp.dim))
            ref = coefficient_samples(oracle, sym, np.arange(decomp.dim))
            assert got.size == ref.size == (1 if real_sector else 2) * decomp.dim


def test_symmetry_breaking_perturbation_raises():
    matrix = build_sector_hamiltonian(momentum_basis(8, 1), ModelParams(8, 1.0, 1.0))
    rng = np.random.default_rng(3)
    a = rng.standard_normal((matrix.dim, matrix.dim)) + 1j * rng.standard_normal((matrix.dim, matrix.dim))
    perturbed = matrix.entries + 1e-6 * (a + a.conj().T)
    broken = SectorMatrix(matrix.params, matrix.k, perturbed, symmetry=matrix.symmetry)
    with pytest.raises(SymmetryBreakingError):
        diagonalize(broken)
    # without the symmetry claim the same Hermitian matrix takes the complex solve
    decomp = diagonalize(SectorMatrix(matrix.params, matrix.k, perturbed))
    assert np.max(np.abs(decomp.energies - np.linalg.eigvalsh(perturbed))) < 1e-12


@pytest.mark.parametrize("k", [0, 1])
def test_orthonormality_check_catches_corrupted_column(monkeypatch, k):
    matrix = build_sector_hamiltonian(momentum_basis(8, k), ModelParams(8, 1.0, 1.0))
    exact_eigh = np.linalg.eigh

    def corrupted_eigh(a):
        energies, vectors = exact_eigh(a)
        vectors[:, 3] *= 1.001  # still an eigenvector, no longer unit norm
        return energies, vectors

    monkeypatch.setattr(np.linalg, "eigh", corrupted_eigh)
    with pytest.raises(DiagonalizationError, match="orthonormality"):
        diagonalize(matrix)


@pytest.mark.parametrize(
    "sidecar",
    [
        lambda text: text[: len(text) // 2],  # truncated
        lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "dim"}),
        lambda text: json.dumps({**json.loads(text), "dim": "12"}),
        lambda text: "[]",
        lambda text: "",
    ],
    ids=["truncated", "missing-key", "wrong-type", "not-an-object", "empty"],
)
def test_malformed_sidecar_is_a_logged_miss(tmp_path, caplog, sidecar):
    params = ModelParams(6, 1.0, 1.0)
    decomp = diagonalize(build_sector_hamiltonian(momentum_basis(6, 0), params))
    meta_path = cache_store(decomp, tmp_path)
    meta_path.write_text(sidecar(meta_path.read_text()))
    with caplog.at_level(logging.WARNING, logger="isingchaos.eigensolve"):
        assert cache_load(params, 0, tmp_path) is None
    assert "cache miss" in caplog.text


def test_atomic_write_uses_unique_temp_files(tmp_path, monkeypatch):
    renamed = []
    real_replace = eigensolve.os.replace

    def recording_replace(src, dst):
        renamed.append(str(src))
        real_replace(src, dst)

    monkeypatch.setattr(eigensolve.os, "replace", recording_replace)
    target = tmp_path / "entry.bin"
    eigensolve._atomic_write(target, b"first")
    eigensolve._atomic_write(target, b"second")
    assert target.read_bytes() == b"second"
    assert len(set(renamed)) == 2
    assert all(name.startswith(str(tmp_path)) for name in renamed)

    def failing_replace(src, dst):
        raise OSError("disk went away")

    monkeypatch.setattr(eigensolve.os, "replace", failing_replace)
    with pytest.raises(OSError):
        eigensolve._atomic_write(target, b"third")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["entry.bin"]
