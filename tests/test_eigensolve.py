"""Eigensolver contracts and cache round-trips."""

import dataclasses
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
    block_spectra,
    cache_load,
    cache_store,
    diagonalize,
    diagonalize_cached,
)
from isingchaos.empirics import coefficient_samples
from isingchaos.hamiltonian import (
    ModelParams,
    build_full_hamiltonian,
    build_sector_hamiltonian,
    symmetry_blocks,
)
from isingchaos.spin_basis import momentum_basis
from parity_oracle import inversion_matrix

def sector(n_sites, k):
    return build_sector_hamiltonian(momentum_basis(n_sites, k), ModelParams(n_sites, 1.0, 1.0))


def test_residuals_and_orthonormality():
    for k in (1, 0):
        matrix = sector(8, k)
        decomp = diagonalize(matrix)
        norm = np.max(np.abs(decomp.energies))
        residual = matrix.entries @ decomp.vectors - decomp.vectors * decomp.energies
        assert np.max(np.linalg.norm(residual, axis=0)) < 1e-8 * norm
        gram = decomp.vectors.conj().T @ decomp.vectors
        assert np.max(np.abs(gram - np.eye(matrix.dim))) < 1e-8
        assert np.max(np.abs(np.sum(np.abs(decomp.vectors) ** 2, axis=0) - 1)) < 1e-10


def test_phase_gauge():
    for k in (1, 0):
        for col in diagonalize(sector(8, k)).vectors.T:
            # symmetry ties |c_a| = |c_partner(a)|: the lowest index among them leads
            modulus = np.abs(col)
            lead = col[np.argmax(modulus >= (1 - eigensolve.GAUGE_TIE_RTOL) * modulus.max())]
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
    for k in (1, 0):
        matrix = sector(8, k)
        a = np.random.default_rng(7).standard_normal((matrix.dim, matrix.dim))
        skewed = dataclasses.replace(matrix, entries=matrix.entries + 1e-6 * (a - a.T))
        with pytest.raises(NonHermitianError, match="hermiticity defect"):
            diagonalize(skewed)


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
    for k in (1, 0):
        decomp = diagonalize(build_sector_hamiltonian(momentum_basis(10, k), params))
        cache_store(decomp, tmp_path)
        loaded = cache_load(params, k, tmp_path)
        assert loaded is not None
        assert np.array_equal(loaded.energies, decomp.energies)
        assert np.array_equal(loaded.vectors, decomp.vectors)
        if k == 0:
            assert loaded.parity.dtype == np.int8
            assert np.array_equal(loaded.parity, decomp.parity)
        else:
            assert loaded.parity is None and decomp.parity is None


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
    original = bin_path.read_bytes()
    for offset in (13, len(original) - 1):  # an energy byte, the last parity label
        payload = bytearray(original)
        payload[offset] ^= 0xFF
        bin_path.write_bytes(bytes(payload))
        with pytest.raises(CacheCorruptionError):
            cache_load(params, 0, tmp_path)


def test_cache_payload_layout(tmp_path):
    # energies <f8, eigenvectors as interleaved re/im <f8 pairs in row-major
    # order, then one int8 parity label per state
    params = ModelParams(6, 1.0, 1.0)
    decomp = diagonalize(build_sector_hamiltonian(momentum_basis(6, 0), params))
    meta_path = cache_store(decomp, tmp_path)
    interleaved = np.empty(decomp.vectors.shape + (2,), dtype="<f8")
    interleaved[..., 0] = decomp.vectors.real
    interleaved[..., 1] = decomp.vectors.imag
    expected = (
        decomp.energies.astype("<f8").tobytes()
        + interleaved.tobytes()
        + decomp.parity.astype("i1").tobytes()
    )
    assert meta_path.with_suffix(".bin").read_bytes() == expected


@pytest.mark.parametrize("change", ["truncate", "append"])
def test_cache_payload_size_change_detected(tmp_path, change):
    params = ModelParams(6, 1.0, 1.0)
    decomp = diagonalize(build_sector_hamiltonian(momentum_basis(6, 1), params))
    bin_path = cache_store(decomp, tmp_path).with_suffix(".bin")
    payload = bin_path.read_bytes()
    bin_path.write_bytes(payload[:-1] if change == "truncate" else payload + b"\0")
    with pytest.raises(CacheCorruptionError, match="size mismatch"):
        cache_load(params, 1, tmp_path)


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


@pytest.mark.parametrize("n_sites,k", [(8, 4), (9, 0), (10, 0), (12, 0), (10, 5), (12, 6)])
def test_parity_blocks_match_dense_inversion_oracle(n_sites, k):
    basis = momentum_basis(n_sites, k)
    matrix = build_sector_hamiltonian(basis, ModelParams(n_sites, 1.0, 1.0))
    assert matrix.entries.dtype == np.float64
    decomp = diagonalize(matrix)
    s_op = inversion_matrix(basis)
    assert np.max(np.abs(s_op @ decomp.vectors - decomp.vectors * decomp.parity)) < 1e-10
    # block sizes: one state of each parity per pair, invariant states by their own sign
    invariant = np.flatnonzero(np.diag(s_op) != 0)
    n_pairs = (basis.dim - len(invariant)) // 2
    n_even = n_pairs + int(np.sum(s_op[invariant, invariant].real > 0))
    assert np.sum(decomp.parity == 1) == n_even
    assert np.sum(decomp.parity == -1) == basis.dim - n_even
    if k == 0:
        assert n_even == (basis.dim + basis.n_invariant) // 2
    oracle = oracle_decomposition(matrix)
    assert np.max(np.abs(decomp.energies - oracle.energies)) < 1e-12
    assert np.max(np.abs(decomp.vectors - oracle.vectors)) < 1e-10


def test_cache_v1_entry_is_a_logged_miss(tmp_path, caplog, monkeypatch):
    params = ModelParams(6, 1.0, 1.0)
    matrix = build_sector_hamiltonian(momentum_basis(6, 0), params)
    decomp = diagonalize(matrix)
    # an entry written under format version 1, which carried no parity labels
    monkeypatch.setattr(eigensolve, "CACHE_VERSION", 1)
    v1_sidecar = cache_store(dataclasses.replace(decomp, parity=None), tmp_path)
    monkeypatch.undo()
    with caplog.at_level(logging.DEBUG, logger="isingchaos.eigensolve"):
        loaded, hit = diagonalize_cached(lambda: matrix, params, 0, tmp_path)
    assert not hit and "cache miss" in caplog.text
    assert np.array_equal(loaded.parity, decomp.parity)
    assert json.loads(v1_sidecar.read_text())["version"] == 1
    loaded, hit = diagonalize_cached(lambda: matrix, params, 0, tmp_path)
    assert hit and np.array_equal(loaded.parity, decomp.parity)


def test_symmetry_breaking_perturbation_raises():
    # k = 1: complex noise breaks A; k = 0: real noise couples the parity blocks
    for k, imag in ((1, 1j), (0, 0.0)):
        matrix = sector(8, k)
        rng = np.random.default_rng(3)
        a = rng.standard_normal((matrix.dim, matrix.dim)) + imag * rng.standard_normal((matrix.dim, matrix.dim))
        broken = dataclasses.replace(matrix, entries=matrix.entries + 1e-6 * (a + a.conj().T))
        with pytest.raises(SymmetryBreakingError, match="off-real" if k else "couples two symmetry blocks"):
            diagonalize(broken)


def test_real_sector_in_complex_storage_keeps_its_parity_blocks():
    # the basis, not the dtype of the entries, chooses the real basis
    matrix = sector(8, 0)
    as_complex = dataclasses.replace(matrix, entries=matrix.entries.astype(np.complex128))
    blocks, complex_blocks = symmetry_blocks(matrix), symmetry_blocks(as_complex)
    assert list(complex_blocks) == list(blocks) == [(0, 1), (0, -1)]
    for key, block in blocks.items():
        assert np.array_equal(complex_blocks[key], block)
    decomp, complex_decomp = diagonalize(matrix), diagonalize(as_complex)
    assert np.array_equal(complex_decomp.energies, decomp.energies)
    assert np.array_equal(complex_decomp.parity, decomp.parity)
    assert np.array_equal(complex_decomp.vectors, decomp.vectors)
    # an imaginary Hermitian part breaks the real structure of k = 0
    a = np.random.default_rng(3).standard_normal((matrix.dim, matrix.dim))
    noisy = dataclasses.replace(as_complex, entries=as_complex.entries + 1e-6j * (a - a.T))
    with pytest.raises(SymmetryBreakingError, match="off-real"):
        diagonalize(noisy)


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


@pytest.mark.parametrize("n_sites,k", [(10, 0), (10, 5), (12, 1), (12, 3)])
def test_block_spectra_match_diagonalize_per_block(n_sites, k):
    basis = momentum_basis(n_sites, k)
    # integrable line: blocks labelled by z-parity and, at k = 0 and N/2, inversion parity
    matrix = build_sector_hamiltonian(basis, ModelParams(n_sites, 0.9, 0.0))
    z_parity = (-1) ** (n_sites - basis.n_up)
    spectra = block_spectra(matrix, z_parity)
    blocks = symmetry_blocks(matrix, z_parity)
    assert list(spectra) == list(blocks)
    for key, block in blocks.items():
        oracle = np.linalg.eigvalsh(block)
        assert spectra[key].shape == oracle.shape
        assert np.max(np.abs(spectra[key] - oracle)) < 1e-12
    union = np.sort(np.concatenate(list(spectra.values())))
    assert np.max(np.abs(union - diagonalize(matrix).energies)) < 1e-12
    # off the integrable line: inversion-parity blocks only, as diagonalize labels them
    matrix = build_sector_hamiltonian(basis, ModelParams(n_sites, 0.9, 1.1))
    decomp = diagonalize(matrix)
    spectra = block_spectra(matrix)
    if decomp.parity is None:
        assert list(spectra) == [(0, 0)]
        assert np.max(np.abs(spectra[(0, 0)] - decomp.energies)) < 1e-12
    else:
        assert list(spectra) == [(0, 1), (0, -1)]
        for p in (1, -1):
            assert np.max(np.abs(spectra[(0, p)] - decomp.energies[decomp.parity == p])) < 1e-12


def _shift_top_level(energies):
    energies[-1] += 1e-6 * np.max(np.abs(energies))
    return energies


def _spread_extremes(energies):
    # sum E is kept, sum E^2 is not
    shift = 1e-6 * np.max(np.abs(energies))
    energies[0] -= shift
    energies[-1] += shift
    return energies


def _nan_level(energies):
    energies[3] = np.nan
    return energies


def _drop_level(energies):
    return energies[1:]


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize(
    "corrupt,message",
    [
        (_shift_top_level, "sum E deviates"),
        (_spread_extremes, "sum E\\^2 deviates"),
        (_nan_level, "finite"),
        (_drop_level, "levels"),
    ],
    ids=["shifted", "spread", "nan", "dropped"],
)
def test_block_spectra_sum_rules_catch_a_bad_level(monkeypatch, k, corrupt, message):
    matrix = build_sector_hamiltonian(momentum_basis(10, k), ModelParams(10, 1.0, 1.0))
    exact_eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: corrupt(exact_eigvalsh(a)))
    with pytest.raises(DiagonalizationError, match=message):
        block_spectra(matrix)


def test_block_spectra_sum_rules_hold_tightly():
    # measured deviations sit near 1e-15; the checks leave about three decades
    for n_sites, k in ((12, 0), (12, 1)):
        matrix = build_sector_hamiltonian(momentum_basis(n_sites, k), ModelParams(n_sites, 1.0, 1.0))
        for key, block in symmetry_blocks(matrix).items():
            energies = block_spectra(matrix)[key]
            frob2 = np.sum(block**2)
            assert abs(energies.sum() - np.trace(block)) < 1e-14 * np.sqrt(block.shape[0] * frob2)
            assert abs(np.sum(energies**2) - frob2) < 1e-14 * frob2


def test_block_spectra_linalg_failure_is_a_diagonalization_error(monkeypatch):
    matrix = build_sector_hamiltonian(momentum_basis(8, 0), ModelParams(8, 1.0, 1.0))

    def failing_eigvalsh(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", failing_eigvalsh)
    with pytest.raises(DiagonalizationError, match="eigensolver failed on matrix [0-9a-f]{16}"):
        block_spectra(matrix)


def test_block_spectra_pre_solve_checks():
    matrix = sector(8, 0)
    rng = np.random.default_rng(3)
    a = rng.standard_normal((matrix.dim, matrix.dim))
    # real noise couples the two parity blocks of k = 0
    coupled = dataclasses.replace(matrix, entries=matrix.entries + 1e-6 * (a + a.T))
    with pytest.raises(SymmetryBreakingError, match="couples two symmetry blocks"):
        block_spectra(coupled)
    skewed = dataclasses.replace(matrix, entries=matrix.entries + 1e-6 * a)
    with pytest.raises(NonHermitianError, match="hermiticity defect"):
        block_spectra(skewed)
