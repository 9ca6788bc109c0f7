"""Eigensolver contracts and cache round-trips."""

import dataclasses
import hashlib
import json
import logging
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from isingchaos import eigensolve
from isingchaos.eigensolve import (
    CacheCorruptionError,
    DiagonalizationError,
    NonHermitianError,
    SymmetryBreakingError,
    _fix_signs,
    block_spectra,
    cache_load,
    cache_store,
    diagonalize,
    diagonalize_cached,
    state_moment_sums,
)
from isingchaos.empirics import coefficient_samples
from isingchaos.hamiltonian import (
    ModelParams,
    SectorElements,
    build_full_hamiltonian,
    build_sector_hamiltonian,
    element_blocks,
    sector_elements,
)
from isingchaos.spin_basis import momentum_basis, sector_counts
from oracles import column_phases, from_real, labelled_blocks, symmetry_blocks, symmetry_decomposition
from parity_oracle import inversion_matrix


def sector(n_sites, k, params=None):
    """The arguments of ``diagonalize`` for one sector: basis, element list and parameters."""
    params = params or ModelParams(n_sites, 1.0, 1.0)
    basis = momentum_basis(n_sites, k)
    return basis, sector_elements(basis, params), params


def test_residuals_and_orthonormality():
    # the plane-wave eigenvectors V = U W of the oracle are eigenvectors of the dense
    # sector block, and orthonormal; so is the real W on its own
    for k in (1, 0):
        basis, elements, params = sector(8, k)
        decomp = diagonalize(basis, elements, params)
        assert decomp.vectors.dtype == np.float64
        v = from_real(basis, decomp.vectors)
        norm = np.max(np.abs(decomp.energies))
        h = build_sector_hamiltonian(basis, params).entries
        residual = h @ v - v * decomp.energies
        assert np.max(np.linalg.norm(residual, axis=0)) < 1e-8 * norm
        gram = v.conj().T @ v
        assert np.max(np.abs(gram - np.eye(basis.dim))) < 1e-8
        assert np.max(np.abs(np.sum(np.abs(v) ** 2, axis=0) - 1)) < 1e-10
        assert np.max(np.abs(decomp.vectors.T @ decomp.vectors - np.eye(basis.dim))) < 1e-8


def test_phase_gauge():
    # the gauge of a real eigenvector is its sign: the leading component of each column of W is positive
    for k in (1, 0):
        for col in diagonalize(*sector(8, k)).vectors.T:
            # symmetry ties |W_a| = |W_b| exactly: the lowest index among them leads
            modulus = np.abs(col)
            lead = col[np.argmax(modulus >= (1 - eigensolve.GAUGE_TIE_RTOL) * modulus.max())]
            assert lead > 0


def test_phase_gauge_breaks_ties_by_lowest_index():
    # |W_1| exceeds |W_0| by rounding-level noise only: the lower index leads
    col = np.array([-0.6, 0.6 * (1 + 1e-12), 0.0, 0.529150262212918])
    fixed = _fix_signs(col[:, None].copy())[:, 0]
    assert fixed[0] == 0.6 and fixed[1] == -0.6 * (1 + 1e-12)
    # a clear maximum still leads, wherever it sits
    col = np.array([0.5, -0.8, 0.33166247903554])
    fixed = _fix_signs(col[:, None].copy())[:, 0]
    assert fixed.tolist() == [-0.5, 0.8, -0.33166247903554]


def test_the_sign_gauge_makes_no_float_copy_of_w():
    # the ties are found through boolean masks, an eighth of W each: at k = 0 a D x D |W|
    # beside W set the peak of the whole solve
    import tracemalloc

    w = np.random.default_rng(1).standard_normal((600, 600))
    tracemalloc.start()
    _fix_signs(w)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 0.3 * w.nbytes, peak / w.nbytes


def _with_dense(elements, block):
    """The element list with every entry of the dense ``block`` appended."""
    rows, cols = np.indices(block.shape).reshape(2, -1)
    return _with(elements, rows, cols, block.reshape(-1))


def test_non_hermitian_rejected():
    for k in (1, 0):
        basis, elements, params = sector(8, k)
        a = np.random.default_rng(7).standard_normal((basis.dim, basis.dim))
        skewed = _with_dense(elements, 1e-6 * (a - a.T))
        with pytest.raises(NonHermitianError, match="hermiticity defect"):
            diagonalize(basis, skewed, params)


def test_energies_ascending_and_count():
    basis, elements, params = sector(8, 3)
    decomp = diagonalize(basis, elements, params)
    assert decomp.dim == basis.dim
    assert np.all(np.diff(decomp.energies) >= 0)


def test_sector_vs_full_spectrum():
    params = ModelParams(8, 1.0, 1.0)
    full = np.sort(np.linalg.eigvalsh(build_full_hamiltonian(params).toarray()))
    union = np.concatenate(
        [
            diagonalize(*sector(8, k, params)).energies
            for k in range(8)
        ]
    )
    assert np.max(np.abs(np.sort(union) - full)) < 1e-9


def test_determinism():
    args = sector(7, 2)
    d1 = diagonalize(*args)
    d2 = diagonalize(*args)
    assert np.array_equal(d1.energies, d2.energies)
    assert np.array_equal(d1.vectors, d2.vectors)


def test_solves_agree_to_round_off_across_blas_thread_counts(tmp_path):
    # the bits of a solve depend on the BLAS thread count and kernel; its
    # energies and moment sums do not, beyond round-off
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from isingchaos import ModelParams, diagonalize, momentum_basis, sector_elements\n"
        "params = ModelParams(12, 1.0, 1.0)\n"
        "solved = {}\n"
        "for k in range(12):\n"
        "    basis = momentum_basis(12, k)\n"
        "    decomp = diagonalize(basis, sector_elements(basis, params), params)\n"
        "    solved[f'e{k}'], solved[f'c{k}'] = decomp.energies, decomp.sum_c4\n"
        "np.savez(sys.argv[1], **solved)\n"
    )

    def solve(name, **settings):
        path = tmp_path / f"{name}.npz"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), **settings}
        done = subprocess.run([sys.executable, "-c", script, str(path)], env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        return np.load(path)

    def assert_agree(other, label):
        for k in range(12):
            scale = np.max(np.abs(one[f"e{k}"]))
            np.testing.assert_allclose(other[f"e{k}"], one[f"e{k}"], rtol=0, atol=1e-13 * scale,
                                       err_msg=f"{label}, k={k}")
            np.testing.assert_allclose(other[f"c{k}"], one[f"c{k}"], rtol=1e-9, atol=0, err_msg=f"{label}, k={k}")

    one = solve("threads1", OPENBLAS_NUM_THREADS="1")
    assert_agree(solve("threads2", OPENBLAS_NUM_THREADS="2"), "2 threads")
    # OpenBLAS forced onto its Haswell kernel plays another host; without AVX2
    # that kernel dies of SIGILL
    cpuinfo = Path("/proc/cpuinfo")
    if not (cpuinfo.exists() and re.search(r"^flags\s*:.*\bavx2\b", cpuinfo.read_text(), flags=re.M)):
        pytest.skip("the CPU lacks AVX2, which the Haswell kernel needs")
    assert_agree(solve("haswell", OPENBLAS_NUM_THREADS="1", OPENBLAS_CORETYPE="Haswell"), "Haswell kernel")


def test_field_sign_flips_keep_every_sector():
    # flipping every spin maps lam to -lam, and the rotation prod_j sigma^z_j
    # maps alpha to -alpha; both commute with translation and map each
    # momentum state onto one of equal weight, so every sector keeps its
    # levels and each level its sum_n |C_n|^4
    n_sites = 11
    for k in range(n_sites):
        reference = diagonalize(*sector(n_sites, k, ModelParams(n_sites, 0.9, 1.1)))
        scale = np.max(np.abs(reference.energies))
        for lam, alpha in ((-0.9, 1.1), (0.9, -1.1), (-0.9, -1.1)):
            flipped = diagonalize(*sector(n_sites, k, ModelParams(n_sites, lam, alpha)))
            label = f"k={k} lam={lam} alpha={alpha}"
            np.testing.assert_allclose(
                flipped.energies, reference.energies, rtol=0, atol=1e-12 * scale, err_msg=label
            )
            np.testing.assert_allclose(flipped.sum_c4, reference.sum_c4, rtol=1e-10, atol=0, err_msg=label)


def _payload_offset(path):
    """Where an entry's payload starts: past the 8-byte header length and the header."""
    return 8 + int.from_bytes(path.read_bytes()[:8], "little")


def _header(path):
    return json.loads(path.read_bytes()[8 : _payload_offset(path)])


def _edit_header(path, edit):
    """Replace an entry's header text by ``edit(text)``, with the length that says how long it now is."""
    data, body = path.read_bytes(), _payload_offset(path)
    header = edit(data[8:body].decode()).encode()
    path.write_bytes(len(header).to_bytes(8, "little") + header + data[body:])


def test_cache_roundtrip_bit_exact(tmp_path):
    params = ModelParams(10, 1.0, 1.0)
    for k in (1, 0):
        decomp = diagonalize(*sector(10, k, params))
        cache_store(decomp, tmp_path)
        loaded = cache_load(params, k, tmp_path)
        assert loaded is not None
        assert np.array_equal(loaded.energies, decomp.energies)
        assert np.array_equal(loaded.vectors, decomp.vectors)
        assert loaded.parity.dtype == decomp.parity.dtype == np.int8
        assert np.array_equal(loaded.parity, decomp.parity)
        assert decomp.parity.any() == (k == 0)  # 0: unlabelled


def test_cache_key_is_exact(tmp_path):
    params = ModelParams(6, 1.0, 1.0)
    decomp = diagonalize(*sector(6, 0, params))
    cache_store(decomp, tmp_path)
    nudged = ModelParams(6, 1.0 + 1e-15, 1.0)
    assert nudged.lam != params.lam
    assert cache_load(nudged, 0, tmp_path) is None
    assert cache_load(params, 1, tmp_path) is None


def test_cache_corruption_detected(tmp_path):
    params = ModelParams(6, 1.0, 1.0)
    decomp = diagonalize(*sector(6, 0, params))
    bin_path = cache_store(decomp, tmp_path)
    original = bin_path.read_bytes()
    for offset in (_payload_offset(bin_path) + 13, len(original) - 1):  # an energy byte, the last byte of W
        payload = bytearray(original)
        payload[offset] ^= 0xFF
        bin_path.write_bytes(bytes(payload))
        with pytest.raises(CacheCorruptionError):
            cache_load(params, 0, tmp_path)


def test_cache_payload_layout(tmp_path):
    # one file: the header's length as 8 little-endian bytes and the header,
    # then the head: energies <f8, one int8 parity label per state and the
    # moment sums <f8, under one digest; then the real eigenvectors W as <f8
    # in row-major order, one digest per block of rows
    params = ModelParams(10, 1.0, 1.0)
    for k in (0, 1):  # a real and a complex sector store the same layout
        decomp = diagonalize(*sector(10, k, params))
        bin_path = cache_store(decomp, tmp_path / str(k))
        assert sorted((tmp_path / str(k)).iterdir()) == [bin_path]
        head = (
            decomp.energies.astype("<f8").tobytes()
            + decomp.parity.astype("i1").tobytes()
            + decomp.sum_c4.astype("<f8").tobytes()
        )
        w = decomp.vectors.astype("<f8")
        data = bin_path.read_bytes()
        meta = _header(bin_path)
        assert data[8 : _payload_offset(bin_path)] == json.dumps(meta, sort_keys=True).encode()
        assert data[_payload_offset(bin_path) :] == head + w.tobytes()
        assert len(data) - _payload_offset(bin_path) == 17 * decomp.dim + 8 * decomp.dim**2
        assert meta["version"] == eigensolve.CACHE_VERSION == 6
        assert meta["head_sha256"] == hashlib.sha256(head).hexdigest()
        rows = eigensolve.CACHE_BLOCK_ROWS
        assert (decomp.dim, rows) == ((108, 8) if k == 0 else (99, 8))  # 14 or 13 blocks, the last one short
        assert meta["block_sha256"] == [
            hashlib.sha256(w[start : start + rows].tobytes()).hexdigest() for start in range(0, decomp.dim, rows)
        ]


@pytest.mark.parametrize("change", ["truncate", "append"])
def test_cache_payload_size_change_detected(tmp_path, change):
    params = ModelParams(6, 1.0, 1.0)
    decomp = diagonalize(*sector(6, 1, params))
    bin_path = cache_store(decomp, tmp_path)
    payload = bin_path.read_bytes()
    bin_path.write_bytes(payload[:-1] if change == "truncate" else payload + b"\0")
    with pytest.raises(CacheCorruptionError, match="size mismatch"):
        cache_load(params, 1, tmp_path)


def test_cache_version_mismatch_is_a_miss(tmp_path, caplog):
    # a header of format version 2: one digest over the whole payload, no
    # moment sums and no block digests
    params = ModelParams(6, 1.0, 1.0)
    decomp = diagonalize(*sector(6, 0, params))

    def version_2(text):
        meta = json.loads(text)
        del meta["head_sha256"], meta["block_sha256"]
        return json.dumps({**meta, "version": 2, "payload_sha256": "0" * 64})

    _edit_header(cache_store(decomp, tmp_path), version_2)
    with caplog.at_level(logging.INFO, logger="isingchaos.eigensolve"):
        assert cache_load(params, 0, tmp_path) is None
    assert "cache miss" in caplog.text and "has version 2, expected 6" in caplog.text


def test_an_entry_under_another_sectors_name_is_a_logged_miss(tmp_path, caplog):
    # the entry of k=1 copied onto the name of k=2: its header names k=1
    params = ModelParams(6, 1.0, 1.0)
    entry = cache_store(diagonalize(*sector(6, 1, params)), tmp_path)
    eigensolve._entry_path(params, 2, tmp_path).write_bytes(entry.read_bytes())
    with caplog.at_level(logging.WARNING, logger="isingchaos.eigensolve"):
        assert cache_load(params, 2, tmp_path) is None
    assert re.search(r"cache miss: \S+N6_k2_\w+\.bin has k 1, expected 2$", caplog.text, re.M)


def test_diagonalize_cached(tmp_path):
    basis, elements, params = sector(6, 2)

    def builder(solved):
        assert solved == 2
        return basis, elements

    first, hit1 = diagonalize_cached(builder, params, 2, tmp_path)
    second, hit2 = diagonalize_cached(builder, params, 2, tmp_path)
    assert (hit1, hit2) == (False, True)
    assert np.array_equal(first.energies, second.energies)
    assert np.array_equal(first.vectors, second.vectors)


@pytest.mark.parametrize("k", [0, 1])
def test_diagonalize_cached_keeps_the_element_list_through_the_checks(tmp_path, monkeypatch, k):
    # every failed check carries the fingerprint of the summed elements, so the list
    # lives through the solves, and is freed once the decomposition is built
    params = ModelParams(8, 1.0, 1.0)
    element_rows = []

    def builder(solved):
        basis = momentum_basis(8, solved)
        elements = sector_elements(basis, params)
        element_rows.append(weakref.ref(elements.rows))
        return basis, elements

    exact_eigh = np.linalg.eigh
    solves = []

    def eigh(a):
        assert element_rows[0]() is not None, "the element list was dropped before the solve"
        solves.append(a.shape[0])
        return exact_eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    decomp, hit = diagonalize_cached(builder, params, k, tmp_path)
    assert not hit and sum(solves) == decomp.dim and len(solves) == (2 if k == 0 else 1)
    assert element_rows[0]() is None, "the element list outlived the solve"


@pytest.mark.parametrize("n_sites", [10, 12, 13, 14])
def test_a_sector_past_n_over_2_loads_as_a_direct_solve_of_it(tmp_path, n_sites):
    # the oracle: sector k > N/2 solved on its own, against the one loaded from the
    # entry of N - k.  Their plane-wave eigenvectors, conj(U_{N-k} W_{N-k}) and
    # U_k W_k, agree up to one sign per eigenstate: the real bases differ by a sign
    # on some columns, so the sign gauge may pick the other sign; they differ in the
    # last digits, as exp(i theta) rounds differently at N - k
    for lam, alpha in ((1.0, 1.0), (0.9, 1.1), (-0.7, -0.3)):
        params = ModelParams(n_sites, lam, alpha)
        cache = tmp_path / f"{lam}_{alpha}"
        for k in range(n_sites // 2 + 1, n_sites):
            loaded, hit = diagonalize_cached(lambda solved: sector(n_sites, solved, params)[:2], params, k, cache)
            assert not hit and loaded.k == k
            assert eigensolve.solved_momentum(n_sites, k) == n_sites - k
            basis, elements, _ = sector(n_sites, k, params)
            direct = diagonalize(basis, elements, params)
            scale = np.max(np.abs(direct.energies))
            assert np.max(np.abs(loaded.energies - direct.energies)) <= 1e-14 * scale, (params, k)
            v_loaded = np.conj(from_real(momentum_basis(n_sites, n_sites - k), loaded.vectors))
            v_direct = from_real(basis, direct.vectors)
            signs = column_phases(v_loaded, v_direct)
            assert np.max(np.abs(np.abs(signs.real) - 1)) <= 1e-11, (params, k)
            assert np.max(np.abs(v_loaded * np.sign(signs.real) - v_direct)) <= 1e-11, (params, k)
            assert np.max(np.abs(loaded.sum_c4 / direct.sum_c4 - 1)) <= 1e-10, (params, k)
            assert np.array_equal(loaded.parity, direct.parity) and not loaded.parity.any()
        stored = sorted(path.name.split("_")[1] for path in cache.iterdir())
        assert stored == sorted(f"k{k}" for k in range(1, (n_sites + 1) // 2)), stored


def test_the_derived_sector_is_the_conjugate_of_its_partner_bit_for_bit(tmp_path):
    # sector 7 holds the W of sector 3 untouched, and each row of V it builds is the conjugate of 3's
    params = ModelParams(10, 0.9, 1.1)
    basis, elements, _ = sector(10, 3, params)
    solved = diagonalize(basis, elements, params)
    cache_store(solved, tmp_path)
    assert basis.partner[6] == 7 and basis.partner[8] == 10 and basis.partner[0] == 0  # two pairs, an invariant state
    for symbols in (None, (0, 6, 8), ()):
        partner = cache_load(params, 3, tmp_path, symbols)
        loaded = cache_load(params, 7, tmp_path, symbols)
        missed, hit = diagonalize_cached(lambda k: (basis, elements), params, 7, None, symbols)
        assert not hit
        assert partner.rows == (None if symbols is None else (0, 6, 7, 8, 10) if symbols else ())
        for got in (loaded, missed):  # a miss returns what a hit returns
            assert (got.k, got.rows) == (7, partner.rows)
            assert got.vectors.dtype == np.float64
            assert np.array_equal(got.vectors, partner.vectors)
            # W stays in the basis of sector 3, and ``coefficients`` conjugates what it builds from it
            assert got.basis is None if symbols == () else np.array_equal(got.basis.partner, basis.partner)
            for symbol in (0, 6, 7, 8, 10) if symbols != () else ():
                row = got.coefficients(symbol)
                assert got.basis.k == 3 and np.iscomplexobj(row)
                assert np.array_equal(row, np.conj(partner.coefficients(symbol)))
            for name in ("energies", "parity", "sum_c4"):
                assert np.array_equal(getattr(got, name), getattr(solved, name)), name
    with pytest.raises(ValueError, match="sector k=7 is not stored: it is loaded from sector k=3"):
        cache_store(dataclasses.replace(solved, k=7), tmp_path)
    assert len(list(tmp_path.iterdir())) == 1


def test_the_derived_sector_loads_the_solved_w_untouched(tmp_path):
    # a load of N - k allocates what a load of k does: no pass over W makes a second copy of it
    import tracemalloc

    params = ModelParams(12, 1.0, 1.0)
    cache_store(diagonalize(*sector(12, 1, params)), tmp_path)
    w_bytes = 8 * sector_counts(12, 1).dim ** 2
    peaks = {}
    for k in (1, 11, 1, 11):  # the second round, once every import is done
        tracemalloc.start()
        decomp = cache_load(params, k, tmp_path)
        peaks[k] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        del decomp
    assert peaks[1] > w_bytes and peaks[11] < peaks[1] + w_bytes // 10, peaks


def test_a_partner_entry_left_by_an_older_run_is_never_read(tmp_path, caplog, monkeypatch):
    # before sector N - k loaded from sector k, it had an entry of its own; one left
    # in the cache is neither read nor deleted: N - k is read through sector k
    params = ModelParams(8, 1.0, 1.0)
    monkeypatch.setattr(eigensolve, "solved_momentum", lambda n_sites, k: k)
    old = cache_store(diagonalize(*sector(8, 5, params)), tmp_path)
    monkeypatch.undo()
    old_bytes = old.read_bytes()
    assert old == eigensolve._entry_path(params, 5, tmp_path)
    with caplog.at_level(logging.DEBUG, logger="isingchaos.eigensolve"):
        assert cache_load(params, 5, tmp_path) is None
    assert f"no entry {eigensolve._entry_path(params, 3, tmp_path)}" in caplog.text
    solved, hit = diagonalize_cached(lambda k: sector(8, k, params)[:2], params, 5, tmp_path)
    assert not hit and solved.k == 5
    loaded, hit = diagonalize_cached(lambda k: pytest.fail("solved again"), params, 5, tmp_path)
    assert hit and np.array_equal(loaded.vectors, solved.vectors)
    assert np.array_equal(cache_load(params, 3, tmp_path).vectors, loaded.vectors)
    assert sorted(tmp_path.iterdir()) == sorted([old, eigensolve._entry_path(params, 3, tmp_path)])
    assert old.read_bytes() == old_bytes


def _flip_byte(path, offset):
    payload = bytearray(path.read_bytes())
    payload[offset] ^= 0xFF
    path.write_bytes(bytes(payload))


@pytest.mark.parametrize("k", [0, 1])
def test_row_limited_load_equals_the_rows_of_a_full_load(tmp_path, k):
    # a load of symbols holds the rows of W that their coefficients read: each symbol's and its partner's
    params = ModelParams(12, 1.0, 1.0)
    basis, elements, _ = sector(12, k, params)
    decomp = diagonalize(basis, elements, params)
    cache_store(decomp, tmp_path)
    full = cache_load(params, k, tmp_path)
    dim = full.dim
    assert full.rows is None and np.array_equal(full.vectors, decomp.vectors)
    assert np.array_equal(full.basis.partner, basis.partner)
    assert basis.partner[63] == 61  # a paired symbol, whose partner's row is loaded too
    # unordered, repeated, and spread over the first, a middle and the short last block
    for asked in ((dim - 1, 5, 64, 63, 5), (200,), ()):
        rows = tuple(sorted({*asked, *basis.partner[list(asked)].tolist()}))
        loaded = cache_load(params, k, tmp_path, symbols=asked)
        missed, hit = diagonalize_cached(lambda solved: (basis, elements), params, k, None, symbols=asked)
        assert not hit
        for got in (loaded, missed):  # a miss returns what a hit returns
            assert got.rows == rows
            for name in ("energies", "sum_c4", "parity"):
                assert np.array_equal(getattr(got, name), getattr(full, name)), name
            if rows:
                assert np.array_equal(got.vectors, full.vectors[list(rows)])
                assert np.array_equal(got.basis.partner, basis.partner)
                for row in rows:
                    assert np.array_equal(got.row(row), full.row(row))
                for symbol in asked:
                    assert np.array_equal(got.coefficients(symbol), full.coefficients(symbol))
            else:
                assert got.vectors.shape == (0, dim) and got.basis is None
                with pytest.raises(KeyError):
                    got.coefficients(0)
            with pytest.raises(KeyError):
                got.row(1)
    with pytest.raises(IndexError):
        cache_load(params, k, tmp_path, symbols=[dim])
    with pytest.raises(ValueError, match="every row"):
        cache_store(loaded, tmp_path)


def test_stored_moment_sums_equal_the_kernel_on_the_stored_vectors(tmp_path):
    params = ModelParams(12, 1.0, 1.0)
    for k in (0, 1):
        cache_store(diagonalize(*sector(12, k, params)), tmp_path)
        loaded = cache_load(params, k, tmp_path)
        assert np.array_equal(loaded.sum_c4, state_moment_sums(loaded.vectors, momentum_basis(12, k).partner, 2.0))


def test_corrupt_block_fails_only_the_loads_that_read_it(tmp_path):
    params = ModelParams(12, 1.0, 1.0)
    decomp = diagonalize(*sector(12, 1, params))
    bin_path = cache_store(decomp, tmp_path)
    dim, rows = decomp.dim, eigensolve.CACHE_BLOCK_ROWS
    assert rows == 8
    _flip_byte(bin_path, _payload_offset(bin_path) + 17 * dim + 8 * dim * (rows + 3) + 5)  # row 11, in block 1
    # symbol 7 reads block 1 through its partner, row 8; 3 and 200 are invariant, and 16 is paired with 20
    assert [decomp.basis.partner[symbol] for symbol in (7, 3, 200, 16)] == [8, 3, 200, 20]
    for asked in ([11], [3, 14], [7], None):  # a read block, and the full load
        with pytest.raises(CacheCorruptionError, match="checksum"):
            cache_load(params, 1, tmp_path, symbols=asked)
    for asked in ([3], [3, 200], [16], ()):  # blocks 0, 0 and 25, 2, or none
        loaded = cache_load(params, 1, tmp_path, symbols=asked)
        assert np.array_equal(loaded.energies, decomp.energies)
        assert np.array_equal(loaded.vectors, decomp.vectors[list(loaded.rows)])


@pytest.mark.parametrize("part", ["energies", "parity", "sum_c4"])
def test_corrupt_head_fails_every_load(tmp_path, part):
    params = ModelParams(10, 1.0, 1.0)
    decomp = diagonalize(*sector(10, 0, params))
    bin_path = cache_store(decomp, tmp_path)
    dim = decomp.dim
    offset = {"energies": 3, "parity": 8 * dim + 7, "sum_c4": 9 * dim + 8 * dim - 1}[part]
    _flip_byte(bin_path, _payload_offset(bin_path) + offset)
    for asked in ((), [3], None):
        with pytest.raises(CacheCorruptionError, match="checksum"):
            cache_load(params, 0, tmp_path, symbols=asked)


def oracle_decomposition(matrix):
    """Complex eigh of the plane-wave block: ascending energies and eigenvectors V in LAPACK's gauge."""
    return np.linalg.eigh(matrix.entries)


@pytest.mark.parametrize("n_sites", [9, 10, 12])
def test_real_solve_matches_complex_oracle(n_sites):
    # V = U W against a complex solve of the plane-wave block, up to one phase per
    # eigenstate; the moment sums taken from W against sum |V|^4
    params = ModelParams(n_sites, 1.0, 1.0)
    for k in range(n_sites):
        basis, elements, _ = sector(n_sites, k, params)
        decomp = diagonalize(basis, elements, params)
        energies, oracle = oracle_decomposition(build_sector_hamiltonian(basis, params))
        v = from_real(basis, decomp.vectors)
        assert decomp.vectors.dtype == np.float64
        assert np.max(np.abs(decomp.energies - energies)) < 1e-12
        assert np.max(np.abs(v * column_phases(v, oracle) - oracle)) < 1e-10
        np.testing.assert_allclose(decomp.sum_c4, np.sum(np.abs(v) ** 4, axis=0), rtol=1e-14, atol=0)
        for sym in (0, 5, decomp.dim // 2):
            c = decomp.coefficients(sym)
            assert np.max(np.abs(c - v[sym])) < 1e-15
            samples = coefficient_samples(decomp, sym, np.arange(decomp.dim))
            one_real = basis.is_real or basis.partner[sym] == sym
            assert samples.size == (1 if one_real else 2) * decomp.dim


@pytest.mark.parametrize("n_sites,k", [(8, 4), (9, 0), (10, 0), (12, 0), (10, 5), (12, 6)])
def test_parity_blocks_match_dense_inversion_oracle(n_sites, k):
    basis, elements, params = sector(n_sites, k)
    assert elements.values.dtype == np.float64
    decomp = diagonalize(basis, elements, params)
    v = from_real(basis, decomp.vectors)
    s_op = inversion_matrix(basis)
    assert np.max(np.abs(s_op @ v - v * decomp.parity)) < 1e-10
    # block sizes: one state of each parity per pair, invariant states by their own sign
    invariant = np.flatnonzero(np.diag(s_op) != 0)
    n_pairs = (basis.dim - len(invariant)) // 2
    n_even = n_pairs + int(np.sum(s_op[invariant, invariant].real > 0))
    assert np.sum(decomp.parity == 1) == n_even
    assert np.sum(decomp.parity == -1) == basis.dim - n_even
    if k == 0:
        assert n_even == (basis.dim + basis.n_invariant) // 2
    energies, oracle = oracle_decomposition(build_sector_hamiltonian(basis, params))
    assert np.max(np.abs(decomp.energies - energies)) < 1e-12
    assert np.max(np.abs(v * column_phases(v, oracle) - oracle)) < 1e-10


@pytest.mark.parametrize("n_sites", [8, 9, 10, 11, 12])
def test_element_path_matches_the_dense_symmetry_oracle(n_sites):
    # the dense reference: the plane-wave block, its checked real blocks cut
    # by the oracle's gathers, and eigh of each
    params = ModelParams(n_sites, 1.0, 1.0)
    for k in range(n_sites):
        basis, elements, _ = sector(n_sites, k, params)
        decomp = diagonalize(basis, elements, params)
        energies, vectors, parity = symmetry_decomposition(build_sector_hamiltonian(basis, params))
        assert np.max(np.abs(decomp.energies - energies)) < 1e-12, k
        assert np.max(np.abs(np.abs(from_real(basis, decomp.vectors)) - np.abs(vectors))) < 1e-10, k
        assert np.array_equal(decomp.parity, parity), k


def test_cache_v1_entry_is_a_logged_miss(tmp_path, caplog, monkeypatch):
    basis, elements, params = sector(6, 0)
    decomp = diagonalize(basis, elements, params)
    # an entry written under format version 1, which carried no parity labels
    monkeypatch.setattr(eigensolve, "CACHE_VERSION", 1)
    v1_entry = cache_store(dataclasses.replace(decomp, parity=np.zeros_like(decomp.parity)), tmp_path)
    monkeypatch.undo()
    with caplog.at_level(logging.DEBUG, logger="isingchaos.eigensolve"):
        loaded, hit = diagonalize_cached(lambda solved: (basis, elements), params, 0, tmp_path)
    assert not hit and "cache miss" in caplog.text
    assert np.array_equal(loaded.parity, decomp.parity)
    assert _header(v1_entry)["version"] == 1
    loaded, hit = diagonalize_cached(lambda solved: (basis, elements), params, 0, tmp_path)
    assert hit and np.array_equal(loaded.parity, decomp.parity)


def test_symmetry_breaking_perturbation_raises():
    # k = 1: complex noise breaks A; k = 0: real noise couples the parity blocks
    for k, imag in ((1, 1j), (0, 0.0)):
        basis, elements, params = sector(8, k)
        rng = np.random.default_rng(3)
        a = rng.standard_normal((basis.dim, basis.dim)) + imag * rng.standard_normal((basis.dim, basis.dim))
        broken = _with_dense(elements, 1e-6 * (a + a.conj().T))
        match = "off-real" if k else "couples two symmetry blocks"
        with pytest.raises(SymmetryBreakingError, match=match + " by .* \\(matrix [0-9a-f]{16}\\)"):
            diagonalize(basis, broken, params)


def test_real_sector_in_complex_storage_keeps_its_parity_blocks():
    # the basis, not the dtype of the elements, chooses the real basis
    basis, elements, params = sector(8, 0)
    as_complex = elements._replace(values=elements.values.astype(np.complex128))
    blocks, complex_blocks = element_blocks(basis, elements), element_blocks(basis, as_complex)
    assert list(complex_blocks) == list(blocks) == [(0, 1), (0, -1)]
    for key, (columns, entries, trace, frob2) in blocks.items():
        assert np.array_equal(complex_blocks[key].columns, columns)
        assert np.array_equal(complex_blocks[key].entries, entries)
        assert (complex_blocks[key].trace, complex_blocks[key].frob2) == (trace, frob2)
    decomp, complex_decomp = diagonalize(basis, elements, params), diagonalize(basis, as_complex, params)
    assert np.array_equal(complex_decomp.energies, decomp.energies)
    assert np.array_equal(complex_decomp.parity, decomp.parity)
    assert np.array_equal(complex_decomp.vectors, decomp.vectors)
    # an imaginary Hermitian part breaks the real structure of k = 0
    a = np.random.default_rng(3).standard_normal((basis.dim, basis.dim))
    noisy = _with_dense(as_complex, 1e-6j * (a - a.T))
    with pytest.raises(SymmetryBreakingError, match="off-real"):
        diagonalize(basis, noisy, params)


@pytest.mark.parametrize("k", [0, 1])
def test_orthonormality_check_catches_corrupted_column(monkeypatch, k):
    args = sector(8, k)
    exact_eigh = np.linalg.eigh

    def corrupted_eigh(a):
        energies, vectors = exact_eigh(a)
        vectors[:, 3] *= 1.001  # still an eigenvector, no longer unit norm
        return energies, vectors

    monkeypatch.setattr(np.linalg, "eigh", corrupted_eigh)
    with pytest.raises(DiagonalizationError, match="orthonormality"):
        diagonalize(*args)


def _no_convergence(solve):
    def failing(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    return failing


def _swapped_columns(solve):
    # still orthonormal, with the same levels: only the residual sees it
    def swapped(a):
        energies, vectors = solve(a)
        return energies, vectors[:, ::-1].copy()

    return swapped


def _stretched_column(solve):
    # still an eigenvector, no longer unit norm: only the orthonormality probes see it
    def stretched(a):
        energies, vectors = solve(a)
        vectors[:, 3] *= 1.001
        return energies, vectors

    return stretched


def _nan_column(solve):
    # a comparison with NaN is false, so a NaN residual must fail, not pass
    def poisoned(a):
        energies, vectors = solve(a)
        vectors[:, 3] = np.nan
        return energies, vectors

    return poisoned


def _shifted_top(solve):
    def shifted(a):
        result = solve(a)
        _shift_top_level(result[0] if isinstance(result, tuple) else result)
        return result

    return shifted


# a failed check's value and the bound it exceeds
_PAST_BOUND = r" [0-9.e+-]+ \(bound [0-9.e+-]+\)"


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize(
    "solve,corrupt,failure",
    [
        (diagonalize, _no_convergence, "eigensolver failed"),
        (block_spectra, _no_convergence, "eigensolver failed"),
        (diagonalize, _swapped_columns, "residual" + _PAST_BOUND),
        (diagonalize, _stretched_column, "orthonormality defect" + _PAST_BOUND),
        (diagonalize, _nan_column, r"residual nan \(bound [0-9.e+-]+\)"),
        (diagonalize, _shifted_top, "sum E deviates from tr B by" + _PAST_BOUND),
        (block_spectra, _shifted_top, "sum E deviates from tr B by" + _PAST_BOUND),
    ],
    ids=[
        "diagonalize-linalg", "block_spectra-linalg", "diagonalize-residual", "diagonalize-orthonormality",
        "diagonalize-nan-residual", "diagonalize-sum-rule", "block_spectra-sum-rule",
    ],
)
def test_every_solve_failure_names_its_block_and_the_elements(monkeypatch, k, solve, corrupt, failure):
    # one form for every failure of either solver: the block, what failed, and the
    # fingerprint of the summed elements that the pre-solve failures carry too
    basis, elements, params = sector(8, k)
    driver = "eigh" if solve is diagonalize else "eigvalsh"
    monkeypatch.setattr(np.linalg, driver, corrupt(getattr(np.linalg, driver)))
    with pytest.raises(DiagonalizationError) as info:
        solve(*((basis, elements, params) if solve is diagonalize else (basis, elements)))
    first = next(iter(element_blocks(basis, elements)))  # the first block solved fails
    fingerprint = eigensolve._fingerprint_elements(basis, elements)
    assert re.fullmatch(re.escape(f"block {first}: ") + failure + f" on matrix {fingerprint}", str(info.value))
    if corrupt is _no_convergence:
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


@pytest.mark.parametrize("k", [0, 1])
def test_each_block_solve_logs_its_checks(caplog, k):
    basis, elements, params = sector(8, k)
    blocks = element_blocks(basis, elements)
    with caplog.at_level(logging.DEBUG, logger="isingchaos.eigensolve"):
        diagonalize(basis, elements, params)
        block_spectra(basis, elements)
    lines = [r.getMessage() for r in caplog.records if r.name == "isingchaos.eigensolve"]
    assert len(lines) == 2 * len(blocks)  # one line per block and solve
    sum_rules = ["sum E deviates from tr B by", "sum E^2 deviates from |B|_F^2 by"]
    solves = [("eigh", [*sum_rules, "residual", "orthonormality defect"]), ("eigvalsh", sum_rules)]
    for i, line in enumerate(lines):
        driver, checks = solves[i // len(blocks)]
        key, block = list(blocks.items())[i % len(blocks)]
        head, *parts = line.split("; ")
        assert head == f"block {key}: n={block.columns.size}, {driver}"
        assert len(parts) == len(checks)
        for check, part in zip(checks, parts):
            value, bound = re.fullmatch(re.escape(check) + r" (\S+) \(bound (\S+)\)", part).groups()
            assert float(value) <= float(bound)


@pytest.mark.parametrize("k", [0, 1])
def test_each_block_goes_to_lapack_as_built(monkeypatch, k):
    # LAPACK gets each block as built: its Fortran-ordered transpose, a view of the same memory
    built, given = [], []
    exact_eigh, exact_eigvalsh = np.linalg.eigh, np.linalg.eigvalsh

    def recording_blocks(*args):
        blocks = element_blocks(*args)
        built.extend(block.entries for block in blocks.values())
        return blocks

    def recording(solve):
        def recorded(a):
            given.append(a)
            return solve(a)

        return recorded

    monkeypatch.setattr(eigensolve, "element_blocks", recording_blocks)
    monkeypatch.setattr(np.linalg, "eigh", recording(exact_eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", recording(exact_eigvalsh))
    basis, elements, params = sector(12, k)
    decomp, spectra = diagonalize(basis, elements, params), block_spectra(basis, elements)
    assert len(given) == len(built) == (4 if k == 0 else 2)
    for a, block in zip(given, built):
        assert a.flags.f_contiguous and not a.flags.owndata and np.shares_memory(a, block)
        assert np.array_equal(a, block)
    # the same bits as a solve of each block in its built C order
    monkeypatch.setattr(np.linalg, "eigh", lambda a: exact_eigh(np.ascontiguousarray(a.T)))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: exact_eigvalsh(np.ascontiguousarray(a.T)))
    c_decomp, c_spectra = diagonalize(basis, elements, params), block_spectra(basis, elements)
    for field in ("energies", "vectors", "parity", "sum_c4"):
        assert np.array_equal(getattr(decomp, field), getattr(c_decomp, field)), field
    assert list(spectra) == list(c_spectra)
    assert all(np.array_equal(spectra[key], c_spectra[key]) for key in spectra)


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("solve", [diagonalize, block_spectra])
def test_sum_rules_check_the_elements_not_the_array_lapack_gets(monkeypatch, solve, k):
    # a diagonal entry moved by 1e-6 after assembly: the spectrum LAPACK returns for the moved
    # array breaks the sum rules of the elements the block was cut from, and the eigenpairs
    # of the moved array pass its residual, so the vector solve must check the sum rules too
    def moved_blocks(*args):
        blocks = element_blocks(*args)
        next(iter(blocks.values())).entries[0, 0] += 1e-6
        return blocks

    monkeypatch.setattr(eigensolve, "element_blocks", moved_blocks)
    basis, elements, params = sector(12, k)
    fingerprint = eigensolve._fingerprint_elements(basis, elements)
    with pytest.raises(DiagonalizationError, match=f"sum E deviates from tr B .* on matrix {fingerprint}$"):
        solve(*((basis, elements, params) if solve is diagonalize else (basis, elements)))


def _with_dim(dim):
    """A header edit: ``dim`` replaced, with as many block digests as that ``dim`` implies."""

    def edit(text):
        meta = json.loads(text)
        digests = meta["block_sha256"][: -(-dim // eigensolve.CACHE_BLOCK_ROWS)]
        return json.dumps({**meta, "dim": dim, "block_sha256": digests})

    return edit


@pytest.mark.parametrize(
    "edit,reason",
    [
        (lambda text: text[: len(text) // 2], "unreadable header"),  # truncated
        (
            lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "dim"}),
            "has dim None, expected 14",
        ),
        (lambda text: json.dumps({**json.loads(text), "dim": "12"}), "has dim '12', expected 14"),
        (lambda text: "[]", "is not a JSON object"),
        (lambda text: "", "unreadable header"),
        (lambda text: json.dumps({**json.loads(text), "block_sha256": []}), "lacks valid digests"),
        (
            lambda text: json.dumps({**json.loads(text), "block_sha256": 2 * json.loads(text)["block_sha256"]}),
            "lacks valid digests",
        ),
        (lambda text: json.dumps({**json.loads(text), "block_sha256": [0]}), "lacks valid digests"),
        (
            lambda text: json.dumps({**json.loads(text), "block_sha256": json.loads(text)["block_sha256"][0]}),
            "lacks valid digests",
        ),
        (_with_dim(True), "has dim True, expected 14"),
        (_with_dim(-1), "has dim -1, expected 14"),
        (_with_dim(0), "has dim 0, expected 14"),
        (_with_dim(13), "has dim 13, expected 14"),
        (_with_dim(15), "has dim 15, expected 14"),
    ],
    ids=[
        "truncated", "missing-key", "wrong-type", "not-an-object", "empty",
        "no-digests", "too-many-digests", "digest-not-a-string", "digests-not-a-list",
        "dim-a-bool", "dim-negative", "dim-zero", "dim-one-less", "dim-one-more",
    ],
)
def test_malformed_header_is_a_logged_miss(tmp_path, caplog, edit, reason):
    # each edit rewrites the entry's header, with the length that matches it; the
    # miss is logged with its reason, solved again, and the entry stored then is read back
    basis, elements, params = sector(6, 0)
    assert basis.dim == 14
    decomp = diagonalize(basis, elements, params)
    _edit_header(cache_store(decomp, tmp_path), edit)
    with caplog.at_level(logging.WARNING, logger="isingchaos.eigensolve"):
        assert cache_load(params, 0, tmp_path) is None
    assert "cache miss" in caplog.text and reason in caplog.text
    assert not diagonalize_cached(lambda solved: (basis, elements), params, 0, tmp_path)[1]
    loaded, hit = diagonalize_cached(lambda solved: (basis, elements), params, 0, tmp_path)
    assert hit and np.array_equal(loaded.vectors, decomp.vectors)


@pytest.mark.parametrize(
    "cut",
    [lambda data: b"", lambda data: data[:5], lambda data: data[: 8 + 20], lambda data: b"\xff" * 8 + data[8:]],
    ids=["empty", "inside-the-length", "inside-the-header", "length-past-the-end"],
)
def test_a_header_past_the_end_of_its_entry_is_a_logged_miss(tmp_path, caplog, cut):
    # the header's length is checked against the file size before the header is read
    params = ModelParams(6, 1.0, 1.0)
    path = cache_store(diagonalize(*sector(6, 0, params)), tmp_path)
    path.write_bytes(cut(path.read_bytes()))
    with caplog.at_level(logging.WARNING, logger="isingchaos.eigensolve"):
        assert cache_load(params, 0, tmp_path) is None
    assert "cache miss: truncated header" in caplog.text


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


def test_cache_store_syncs_and_renames_one_file(tmp_path, monkeypatch):
    events = []
    real_fsync, real_replace = eigensolve.os.fsync, eigensolve.os.replace

    def recording_fsync(fd):
        real_fsync(fd)
        events.append(("fsync", eigensolve.os.fstat(fd).st_ino))

    def recording_replace(src, dst):
        # the file renamed is the one synced last
        events.append(("replace", eigensolve.os.stat(src).st_ino, eigensolve.Path(dst).suffix))
        real_replace(src, dst)

    monkeypatch.setattr(eigensolve.os, "fsync", recording_fsync)
    monkeypatch.setattr(eigensolve.os, "replace", recording_replace)
    path = cache_store(diagonalize(*sector(6, 1)), tmp_path)
    assert [event[0] for event in events] == ["fsync", "replace"]
    assert events[1][2] == ".bin" and events[0][1] == events[1][1] == path.stat().st_ino
    assert sorted(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("n_sites,k", [(10, 0), (10, 5), (12, 1), (12, 3)])
def test_block_spectra_match_diagonalize_per_block(n_sites, k):
    basis = momentum_basis(n_sites, k)
    # integrable line: blocks labelled by z-parity and, at k = 0 and N/2, inversion parity
    params = ModelParams(n_sites, 0.9, 0.0)
    z_parity = (-1) ** (n_sites - basis.n_up)
    spectra = block_spectra(basis, sector_elements(basis, params), z_parity)
    blocks = labelled_blocks(build_sector_hamiltonian(basis, params), z_parity)
    assert list(spectra) == list(blocks)
    for key, block in blocks.items():
        oracle = np.linalg.eigvalsh(block)
        assert spectra[key].shape == oracle.shape
        assert np.max(np.abs(spectra[key] - oracle)) < 1e-12
    union = np.sort(np.concatenate(list(spectra.values())))
    assert np.max(np.abs(union - diagonalize(*sector(n_sites, k, params)).energies)) < 1e-12
    # off the integrable line: inversion-parity blocks only, as diagonalize labels them
    params = ModelParams(n_sites, 0.9, 1.1)
    decomp = diagonalize(*sector(n_sites, k, params))
    spectra = block_spectra(basis, sector_elements(basis, params))
    if not decomp.parity.any():
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


def _elements(n_sites, k):
    return sector(n_sites, k)[:2]


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
    basis, elements = _elements(10, k)
    exact_eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: corrupt(exact_eigvalsh(a)))
    with pytest.raises(DiagonalizationError, match=message + ".* on matrix [0-9a-f]{16}"):
        block_spectra(basis, elements)


def test_block_spectra_sum_rules_hold_tightly():
    # measured deviations sit near 1e-15; the checks leave about three decades
    for n_sites, k in ((12, 0), (12, 1)):
        basis, elements = _elements(n_sites, k)
        spectra = block_spectra(basis, elements)
        for key, block in symmetry_blocks(build_sector_hamiltonian(basis, ModelParams(n_sites, 1.0, 1.0))).items():
            energies = spectra[key]
            frob2 = np.sum(block**2)
            assert abs(energies.sum() - np.trace(block)) < 1e-14 * np.sqrt(block.shape[0] * frob2)
            assert abs(np.sum(energies**2) - frob2) < 1e-14 * frob2


def test_block_spectra_linalg_failure_is_a_diagonalization_error(monkeypatch):
    basis, elements = _elements(8, 0)

    def failing_eigvalsh(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", failing_eigvalsh)
    with pytest.raises(DiagonalizationError, match="eigensolver failed on matrix [0-9a-f]{16}"):
        block_spectra(basis, elements)


def _with(elements, rows, cols, values):
    """The element list with further elements appended."""
    return SectorElements(
        np.concatenate([elements.rows, rows]),
        np.concatenate([elements.cols, cols]),
        np.concatenate([elements.values, values]),
    )


def test_block_spectra_pre_solve_checks():
    basis, elements = _elements(8, 0)
    pair = int(np.flatnonzero(basis.partner != np.arange(basis.dim))[0])
    # a shift of one member of an inversion pair breaks inversion: it couples the parity blocks
    coupled = _with(elements, [pair], [pair], [1e-6])
    with pytest.raises(SymmetryBreakingError, match="couples two symmetry blocks by .* \\(matrix [0-9a-f]{16}\\)"):
        block_spectra(basis, coupled)
    # an element whose transpose differs
    row, col = elements.rows[-1], elements.cols[-1]
    assert row != col
    skewed = _with(elements, [row], [col], [1e-6])
    with pytest.raises(NonHermitianError, match="hermiticity defect"):
        block_spectra(basis, skewed)
    # an element without a transpose
    present = set(zip(elements.rows.tolist(), elements.cols.tolist()))
    row, col = next((r, c) for r in range(basis.dim) for c in range(basis.dim) if (c, r) not in present)
    with pytest.raises(NonHermitianError, match="hermiticity defect 1.000e-06"):
        block_spectra(basis, _with(elements, [row], [col], [1e-6]))
    # at k = 1 the same shift is imaginary in the real basis
    basis, elements = _elements(8, 1)
    pair = int(np.flatnonzero(basis.partner != np.arange(basis.dim))[0])
    with pytest.raises(SymmetryBreakingError, match="off-real by .* \\(matrix [0-9a-f]{16}\\)"):
        block_spectra(basis, _with(elements, [pair], [pair], [1e-6]))


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("solve", [diagonalize, block_spectra])
def test_non_hermitian_failure_carries_the_fingerprint(solve, k):
    # one off-diagonal element moved by 1e-6 fails as NonHermitianError itself, not a subclass,
    # with the fingerprint of the summed elements that every pre-solve failure carries
    basis, elements, params = sector(8, k)
    row, col = elements.rows[-1], elements.cols[-1]
    assert row != col
    skewed = _with(elements, [row], [col], [1e-6])
    args = (basis, skewed, params) if solve is diagonalize else (basis, skewed)
    with pytest.raises(NonHermitianError) as info:
        solve(*args)
    assert type(info.value) is NonHermitianError
    fingerprint = eigensolve._fingerprint_elements(basis, skewed)
    assert str(info.value) == f"hermiticity defect 1.000e-06 exceeds tolerance (matrix {fingerprint})"


def test_a_format_5_header_under_the_format_6_name_is_solved_again(tmp_path, caplog):
    basis, elements, params = sector(10, 1)
    decomp = diagonalize(basis, elements, params)
    entry = cache_store(decomp, tmp_path)
    _edit_header(entry, lambda text: json.dumps({**json.loads(text), "version": 5}))
    with caplog.at_level(logging.WARNING, logger="isingchaos.eigensolve"):
        loaded, hit = diagonalize_cached(lambda solved: (basis, elements), params, 1, tmp_path)
    assert not hit
    assert re.search(r"cache miss: \S+N10_k1_\w+\.bin has version 5, expected 6$", caplog.text, re.M)
    assert np.array_equal(loaded.energies, decomp.energies)
    # the solve replaced the entry by one of format 6, which the next load reads
    assert _header(entry)["version"] == 6
    loaded, hit = diagonalize_cached(lambda solved: (basis, elements), params, 1, tmp_path)
    assert hit and np.array_equal(loaded.vectors, decomp.vectors)


def test_cache_v3_entry_is_a_logged_miss(tmp_path, caplog, monkeypatch):
    basis, elements, params = sector(10, 1)
    decomp = diagonalize(basis, elements, params)
    # an entry of format 3: one digest per 64 rows of V
    monkeypatch.setattr(eigensolve, "CACHE_VERSION", 3)
    monkeypatch.setattr(eigensolve, "CACHE_BLOCK_ROWS", 64)
    v3_entry = cache_store(decomp, tmp_path)
    monkeypatch.undo()
    assert len(_header(v3_entry)["block_sha256"]) == -(-decomp.dim // 64)
    with caplog.at_level(logging.DEBUG, logger="isingchaos.eigensolve"):
        assert cache_load(params, 1, tmp_path) is None  # its key names format 3
    assert "cache miss: no entry" in caplog.text
    # the same entry under the current name: a miss for its version, not a corrupt digest list
    entry = v3_entry.replace(eigensolve._entry_path(params, 1, tmp_path))
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="isingchaos.eigensolve"):
        loaded, hit = diagonalize_cached(lambda solved: (basis, elements), params, 1, tmp_path)
    assert not hit and "has version 3, expected 6" in caplog.text
    assert np.array_equal(loaded.energies, decomp.energies)
    loaded, hit = diagonalize_cached(lambda solved: (basis, elements), params, 1, tmp_path)
    assert hit and len(_header(entry)["block_sha256"]) == -(-decomp.dim // 8)
