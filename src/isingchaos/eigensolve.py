"""Dense Hermitian eigensolver with residual checks and on-disk caching.

Every sector is solved in real arithmetic, in the real basis its
``MomentumBasis`` owns: at k = 0 and k = N/2 as separate inversion-even and
inversion-odd blocks, elsewhere as one A-invariant block.  Both solvers cut
those blocks, checked and exactly symmetric, from the sector's element list
with ``hamiltonian.element_blocks`` and hand each to LAPACK as built, as
its Fortran-ordered transpose (the same matrix); neither forms the dense
plane-wave block.  ``diagonalize`` verifies each block's eigenpairs and
maps the eigenvectors back to complex plane-wave coefficients in a fixed
gauge; ``block_spectra`` solves for eigenvalues only, checked per block by
their sum rules against the trace and squared norm that ``element_blocks``
sums from the block's real-basis elements.

Each decomposition carries the per-eigenstate sum_n |C_n|^4, computed once
from its eigenvectors by ``state_moment_sums`` in the solve.  It is cached
per (N, k, lam, alpha, format version) as one little-endian payload plus a
JSON sidecar with the exact key and SHA-256 digests.  Format 4 lays the
payload out as a head, the energies (<f8), parity labels (i1, 0 where there
are none) and moment sums (<f8) under one digest, then V as row-major <c16
in blocks of ``CACHE_BLOCK_ROWS`` rows, one digest per block.  A load reads
and verifies the head and only the blocks that hold the rows of V its
caller asks for.  Writes are atomic and durable (unique temp file, fsync,
rename), the payload before the sidecar.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .hamiltonian import (
    ModelParams,
    NonHermitianError,
    RealBlock,
    SectorElements,
    SymmetryBreakingError,
    element_blocks,
    summed_elements,
)
from .spin_basis import MomentumBasis

logger = logging.getLogger(__name__)

CACHE_VERSION = 4
# rows of V under one digest in the cache payload; fixed by CACHE_VERSION.
# Small, so that a load of a few rows hashes little more than those rows
CACHE_BLOCK_ROWS = 8
# rows of V per chunk of the moment sums sum_n |C_n|^2q
MOMENT_CHUNK_ROWS = 64

# components within this relative distance of an eigenvector's largest
# modulus count as tied for the phase gauge; symmetry makes exact ties common
GAUGE_TIE_RTOL = 1e-8
# randomized orthonormality check: |W^H W x - x| <= ORTHO_TOL |x| per probe
ORTHO_PROBES = 4
ORTHO_TOL = 1e-10
ORTHO_SEED = 0
# eigenpair residuals: |h w - E w| <= RESIDUAL_FACTOR max|E| per eigenvector
RESIDUAL_FACTOR = 1e-8
# values-only solves: |sum E - tr B| <= SUM_RULE_RTOL sqrt(n) |B|_F and
# |sum E^2 - |B|_F^2| <= SUM_RULE_RTOL |B|_F^2 per block (measured: <= 1.2e-15)
SUM_RULE_RTOL = 1e-12


class DiagonalizationError(RuntimeError):
    """Eigensolver failed to converge or verify."""


class CacheCorruptionError(RuntimeError):
    """Cache payload does not match its recorded checksum."""


def state_moment_sums(vectors: np.ndarray, q: float) -> np.ndarray:
    """Per-eigenstate (column) sum_n |C_n|^2q, with |C|^2 = Re^2 + Im^2 and, at q = 2, no pow().

    The rows go through in blocks of ``MOMENT_CHUNK_ROWS`` into one small
    (rows + 1) x D buffer whose first row carries the running sums, so no
    D x D temporary is made and each column adds its rows in the same order
    as ``np.sum(..., axis=0)`` of the whole C-ordered array.
    """
    n_rows, n_cols = vectors.shape
    buf = np.zeros((MOMENT_CHUNK_ROWS + 1, n_cols))
    imag_sq = np.empty((MOMENT_CHUNK_ROWS, n_cols))
    sums = np.zeros(n_cols)
    for start in range(0, n_rows, MOMENT_CHUNK_ROWS):
        block = vectors[start : start + MOMENT_CHUNK_ROWS]
        rows = block.shape[0]
        p = buf[1 : rows + 1]
        np.multiply(block.real, block.real, out=p)
        if np.iscomplexobj(block):
            np.multiply(block.imag, block.imag, out=imag_sq[:rows])
            p += imag_sq[:rows]
        if q == 2:
            p *= p
        elif q != 1:
            np.power(p, q, out=p)
        buf[0] = sums
        np.sum(buf[: rows + 1], axis=0, out=sums)
    return sums


@dataclass
class EigenDecomposition:
    """Full spectrum, per-state summary and gauge-fixed eigenvectors of one sector.

    ``parity`` is the int8 inversion parity of each eigenstate: +1 or -1
    where the sector was solved in parity blocks (k = 0 and k = N/2), 0 =
    unlabelled elsewhere.  ``sum_c4`` is sum_n |C_n|^4 of each eigenstate.

    ``vectors`` holds V, one column per eigenstate.  With ``rows`` None it
    holds every row; otherwise ``vectors[i]`` is row ``rows[i]`` of V (the
    rows ascending), and ``vectors`` has shape (0, D) when no row is loaded.
    Read a row with ``coefficients``, which works either way.
    """

    params: ModelParams
    k: int
    energies: np.ndarray
    vectors: np.ndarray
    parity: np.ndarray
    sum_c4: np.ndarray
    rows: tuple[int, ...] | None = None

    @property
    def dim(self) -> int:
        return self.energies.size

    def coefficients(self, symbol: int) -> np.ndarray:
        """Row ``symbol`` of V: the coefficient of that basis state in each eigenstate."""
        if self.rows is None:
            return self.vectors[symbol]
        if symbol not in self.rows:
            raise KeyError(f"row {symbol} of the eigenvectors was not loaded")
        return self.vectors[self.rows.index(symbol)]


def _row_selection(rows, dim: int) -> tuple[int, ...] | None:
    """The rows of V a caller asks for, ascending and distinct; None means every row."""
    if rows is None:
        return None
    rows = tuple(sorted({int(row) for row in rows}))
    if rows and not (rows[0] >= 0 and rows[-1] < dim):
        raise IndexError(f"rows {list(rows)} outside the basis [0, {dim})")
    return rows


def _restrict(decomp: EigenDecomposition, rows) -> EigenDecomposition:
    """A full decomposition cut down to the rows of V that ``rows`` selects."""
    rows = _row_selection(rows, decomp.dim)
    if rows is None:
        return decomp
    return replace(decomp, vectors=decomp.vectors[list(rows)], rows=rows)  # a copy, so V can be freed


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Make one leading component of each eigenvector real-positive, in place.

    The leading component is the lowest-index one whose modulus lies within
    relative ``GAUGE_TIE_RTOL`` of the column maximum, so symmetry-tied
    components (|c_a| = |c_partner(a)|) do not leave the choice to rounding.
    """
    modulus = np.abs(vectors)
    top = modulus.max(axis=0)
    idx = np.argmax(modulus >= (1.0 - GAUGE_TIE_RTOL) * top, axis=0)
    del modulus
    lead = vectors[idx, np.arange(vectors.shape[1])]
    scale = np.abs(lead)
    scale[scale == 0] = 1.0
    vectors *= lead.conj() / scale
    return vectors


def _sha256(*parts: np.ndarray) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.hexdigest()


def _fingerprint(*arrays: np.ndarray) -> str:
    return _sha256(*map(np.ascontiguousarray, arrays))[:16]


def _verify(a: np.ndarray, energies: np.ndarray, w: np.ndarray) -> str | None:
    """Residual and orthonormality of the eigenpairs of ``a``; a failure message or None."""
    norm = max(float(np.max(np.abs(energies))), np.finfo(float).tiny)
    residual = a @ w
    residual -= w * energies
    worst = float(np.max(np.linalg.norm(residual, axis=0)))
    del residual
    if worst > RESIDUAL_FACTOR * norm:
        return f"residual {worst:.3e} exceeds {RESIDUAL_FACTOR:.1e} * |H|"
    probes = np.random.default_rng(ORTHO_SEED).standard_normal((w.shape[0], ORTHO_PROBES))
    back = w.T @ (w @ probes)  # W^T W x without copying W
    defect = float(np.max(np.linalg.norm(back - probes, axis=0) / np.linalg.norm(probes, axis=0)))
    if defect > ORTHO_TOL:
        return f"orthonormality defect {defect:.3e} exceeds {ORTHO_TOL:.1e}"
    return None


def _solve(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Verified eigenpairs of the symmetric ``a``, which is fingerprinted on failure.

    LAPACK gets ``a.T``: the same exactly symmetric matrix, in the Fortran
    order that numpy copies into LAPACK's workspace without a strided pass.
    """
    try:
        energies, vectors = np.linalg.eigh(a.T)
    except np.linalg.LinAlgError as exc:
        raise DiagonalizationError(f"eigensolver failed on matrix {_fingerprint(a)}") from exc
    failure = _verify(a, energies, vectors)
    if failure is not None:
        raise DiagonalizationError(f"{failure} on matrix {_fingerprint(a)}")
    return energies, vectors


def _fingerprint_elements(basis: MomentumBasis, elements: SectorElements) -> str:
    return _fingerprint(*summed_elements(elements, basis.dim))


def _checked_blocks(
    basis: MomentumBasis, elements: SectorElements, row_labels: np.ndarray | None = None
) -> dict[tuple[int, int], RealBlock]:
    """``element_blocks``; a failed pre-solve check is raised as its own class, with the elements' fingerprint."""
    try:
        return element_blocks(basis, elements, row_labels)
    except NonHermitianError as exc:
        raise type(exc)(f"{exc} (matrix {_fingerprint_elements(basis, elements)})") from None


def _solve_blocks(basis: MomentumBasis, blocks: dict, params: ModelParams) -> EigenDecomposition:
    """Solve and verify each block of ``element_blocks`` on its own, and rotate the eigenvectors back.

    The energies ascend, and each eigenstate carries the parity of its
    block's key (0 outside k = 0 and N/2).  A block's eigenvectors fill the
    rows of W that its columns of U name, V = U W is put in the phase gauge,
    and its moment sums are taken.  Each block goes to LAPACK as built (as
    its Fortran-ordered transpose, see ``_solve``), and is popped from
    ``blocks`` so that it is freed once solved.
    """
    dim = basis.dim
    parities = np.array([parity for _, parity in blocks], dtype=np.int8)
    columns = [block.columns for block in blocks.values()]
    solved = [_solve(blocks.pop(key).entries) for key in list(blocks)]
    sizes = [e.size for e, _ in solved]
    energies = np.concatenate([e for e, _ in solved])
    rank = np.argsort(energies, kind="stable")
    if len(solved) == 1:  # one block spans every column of U, in order
        w = solved[0][1]
    else:  # block-diagonal eigenvectors, columns in ascending energy order
        w = np.zeros((dim, dim))
        position = np.empty_like(rank)
        position[rank] = np.arange(rank.size)
        for start, rows, (_, vectors) in zip(np.cumsum([0] + sizes), columns, solved):
            w[np.ix_(rows, position[start : start + rows.size])] = vectors
    del solved
    vectors = basis.from_real(w)
    del w
    vectors = _fix_phases(vectors).astype(np.complex128, copy=False)
    return EigenDecomposition(
        params=params,
        k=basis.k,
        energies=energies[rank],
        vectors=vectors,
        parity=np.repeat(parities, sizes)[rank],
        sum_c4=state_moment_sums(vectors, 2.0),
    )


def diagonalize(basis: MomentumBasis, elements: SectorElements, params: ModelParams) -> EigenDecomposition:
    """Diagonalize a sector, given by its element list over ``basis``, and verify the eigenpairs.

    ``elements`` is the sector's list of ``hamiltonian.sector_elements`` for
    ``params``, which the decomposition carries as its cache key.  The list
    is cut into the checked real blocks of ``element_blocks`` (raising
    ``NonHermitianError`` or ``SymmetryBreakingError`` if a pre-solve check
    fails): at k = 0 and k = N/2 an inversion-even and an inversion-odd
    block, whose eigenstates ``parity`` labels, elsewhere one A-invariant
    block.  Each block is solved and verified on its own in real
    arithmetic, and the eigenvectors are rotated back.

    Coefficient statistics therefore stay complex in the plane-wave basis.
    Each eigenvector's phase is fixed so that its largest-modulus component,
    the lowest index among ties within relative ``GAUGE_TIE_RTOL``, is real
    and positive.  The decomposition carries every row of V and its moment
    sums ``sum_c4``.

    Raises ``DiagonalizationError`` if LAPACK fails, a residual exceeds
    ``RESIDUAL_FACTOR`` times the spectral norm, or the eigenvectors fail a
    randomized orthonormality check (``ORTHO_PROBES`` probes at relative
    tolerance ``ORTHO_TOL``); its fingerprint is that of the real block
    LAPACK was given.  A ``NonHermitianError`` or ``SymmetryBreakingError``
    carries the fingerprint of the summed elements, as in ``block_spectra``.
    """
    return _solve_blocks(basis, _checked_blocks(basis, elements), params)


def _sum_rule_failure(block: RealBlock, energies: np.ndarray) -> str | None:
    """Level count, finiteness and the two sum rules of a block's spectrum; a failure message or None.

    tr B and |B|_F^2 are those the block carries, summed from its
    real-basis elements, so the check reads the element list the block
    was cut from and not the array LAPACK was given.
    """
    n, frob2 = block.columns.size, block.frob2
    if energies.shape != (n,) or not np.all(np.isfinite(energies)):
        return f"{energies.size} levels, not {n} finite ones"
    deviation = abs(float(np.sum(energies)) - block.trace)
    bound = SUM_RULE_RTOL * np.sqrt(n * frob2)
    if deviation > bound:
        return f"sum E deviates from tr B by {deviation:.3e} (bound {bound:.1e})"
    deviation = abs(float(np.sum(np.square(energies))) - frob2)
    bound = SUM_RULE_RTOL * frob2
    if deviation > bound:
        return f"sum E^2 deviates from |B|_F^2 by {deviation:.3e} (bound {bound:.1e})"
    return None


def block_spectra(
    basis: MomentumBasis, elements: SectorElements, row_labels: np.ndarray | None = None
) -> dict[tuple[int, int], np.ndarray]:
    """Verified eigenvalues of each symmetry block of a sector, without eigenvectors.

    Builds the checked real blocks of ``element_blocks`` from the sector's
    elements over ``basis`` (``hamiltonian.sector_elements``), here with
    optional ``row_labels``, with no dense plane-wave block, and runs
    ``np.linalg.eigvalsh`` on each block B of dimension n, given as its
    Fortran-ordered transpose.  Each spectrum must hold n finite levels and
    satisfy the sum rules sum E = tr B within ``SUM_RULE_RTOL`` sqrt(n)
    |B|_F and sum E^2 = |B|_F^2 within ``SUM_RULE_RTOL`` |B|_F^2, where tr B
    and |B|_F^2 are summed in O(nnz) from the block's real-basis elements,
    not read from the array LAPACK got.  So a block changed between its
    assembly and the solve fails too.  The check catches a lost, shifted or
    non-finite level, but it is weaker than the residual check of
    ``diagonalize``: an error that preserves both sums passes.

    Returns ``{(label, parity): ascending energies}`` keyed and ordered as
    ``element_blocks`` returns the blocks.  Raises ``NonHermitianError`` or
    ``SymmetryBreakingError`` if a pre-solve check fails, and
    ``DiagonalizationError`` if LAPACK fails or a spectrum check does not
    hold, each with a fingerprint of the summed elements.
    """
    blocks = _checked_blocks(basis, elements, row_labels)
    spectra = {}
    for key in list(blocks):
        block = blocks.pop(key)  # each block is freed once solved
        try:
            energies = np.linalg.eigvalsh(block.entries.T)  # the same symmetric matrix, in Fortran order
        except np.linalg.LinAlgError as exc:
            raise DiagonalizationError(
                f"eigensolver failed on matrix {_fingerprint_elements(basis, elements)}"
            ) from exc
        failure = _sum_rule_failure(block, energies)
        if failure is not None:
            raise DiagonalizationError(
                f"block {key}: {failure} on matrix {_fingerprint_elements(basis, elements)}"
            )
        spectra[key] = energies
    return spectra


def _cache_stem(params: ModelParams, k: int) -> str:
    key = "|".join(
        [
            str(params.n_sites),
            str(k),
            float(params.lam).hex(),
            float(params.alpha).hex(),
            f"v{CACHE_VERSION}",
        ]
    )
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    return f"N{params.n_sites}_k{k}_{digest}"


def _atomic_write(path: Path, *chunks) -> None:
    """Write the chunks to a uniquely named temp file beside ``path``, sync it to disk, then rename onto it."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def cache_store(decomp: EigenDecomposition, cache_dir) -> Path:
    """Persist a decomposition that holds every row of V; returns the sidecar path."""
    if decomp.rows is not None:
        raise ValueError("only a decomposition with every row of the eigenvectors is stored")
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    stem = _cache_stem(decomp.params, decomp.k)

    head = [
        np.ascontiguousarray(decomp.energies, dtype="<f8"),
        np.ascontiguousarray(decomp.parity, dtype="i1"),
        np.ascontiguousarray(decomp.sum_c4, dtype="<f8"),
    ]
    # little-endian complex128 is the interleaved re/im layout of the format
    vectors = np.ascontiguousarray(decomp.vectors, dtype="<c16")
    meta = {
        "version": CACHE_VERSION,
        "n_sites": decomp.params.n_sites,
        "k": decomp.k,
        "lam": decomp.params.lam,
        "alpha": decomp.params.alpha,
        "lam_hex": float(decomp.params.lam).hex(),
        "alpha_hex": float(decomp.params.alpha).hex(),
        "dim": decomp.dim,
        "head_sha256": _sha256(*head),
        "block_sha256": [
            _sha256(vectors[start : start + CACHE_BLOCK_ROWS])
            for start in range(0, decomp.dim, CACHE_BLOCK_ROWS)
        ],
    }
    # the payload is on disk before the sidecar that makes it an entry
    _atomic_write(cache_dir / f"{stem}.bin", *head, vectors)
    _atomic_write(
        cache_dir / f"{stem}.json", json.dumps(meta, sort_keys=True).encode()
    )
    return cache_dir / f"{stem}.json"


_SIDECAR_FIELDS = {
    "n_sites": int,
    "k": int,
    "lam_hex": str,
    "alpha_hex": str,
    "dim": int,
    "head_sha256": str,
    "block_sha256": list,
}


def _read_sidecar(meta_path: Path) -> dict | None:
    """Parsed sidecar, or None (logged) when it is unreadable, of another format version or incomplete."""
    try:
        meta = json.loads(meta_path.read_bytes())
    except (OSError, ValueError) as exc:
        logger.warning("cache miss: unreadable sidecar %s (%s)", meta_path, exc)
        return None
    if not isinstance(meta, dict):
        logger.warning("cache miss: sidecar %s is not a JSON object", meta_path)
        return None
    if meta.get("version") != CACHE_VERSION:
        logger.info("cache miss: %s has format version %r", meta_path, meta.get("version"))
        return None
    for key, kind in _SIDECAR_FIELDS.items():
        value = meta.get(key)
        # a bool is an int to isinstance, and a sector holds at least one state
        if not isinstance(value, kind) or isinstance(value, bool) or (key == "dim" and value < 1):
            logger.warning("cache miss: sidecar %s lacks a valid %r", meta_path, key)
            return None
    digests = meta["block_sha256"]
    if len(digests) != -(-meta["dim"] // CACHE_BLOCK_ROWS) or not all(
        isinstance(digest, str) for digest in digests
    ):
        logger.warning("cache miss: sidecar %s lacks a valid 'block_sha256'", meta_path)
        return None
    return meta


def _read_verified(fh, parts: list[np.ndarray], sha256: str, bin_path: Path) -> None:
    """Read the next bytes of ``fh`` straight into ``parts``, checked against ``sha256``."""
    digest = hashlib.sha256()
    for part in parts:
        raw = part.reshape(-1).view(np.uint8)
        if fh.readinto(raw) != raw.size:
            raise CacheCorruptionError(f"payload size mismatch for {bin_path}")
        digest.update(raw)
    if digest.hexdigest() != sha256:
        raise CacheCorruptionError(f"checksum mismatch for {bin_path}")


def cache_load(params: ModelParams, k: int, cache_dir, rows=None) -> EigenDecomposition | None:
    """Load a cached decomposition; None signals a miss (recompute).

    ``rows`` selects the rows of V to load: None (every row), an empty
    sequence (none, and ``vectors`` has shape (0, D)) or the symbols whose
    rows are wanted.  The head (energies, parity labels and moment sums) is
    always read, and of V only the blocks that hold a wanted row; every part
    read is checked against its SHA-256 in the sidecar.

    A missing, malformed or mismatched sidecar, or one of another format
    version, is a miss, logged with its reason.  A payload whose size
    disagrees with a valid sidecar, or a part read that fails its digest,
    raises ``CacheCorruptionError``.  A row outside the basis raises
    ``IndexError``.
    """
    cache_dir = Path(cache_dir)
    stem = _cache_stem(params, k)
    meta_path = cache_dir / f"{stem}.json"
    bin_path = cache_dir / f"{stem}.bin"
    if not meta_path.exists() or not bin_path.exists():
        logger.debug("cache miss: no entry %s in %s", stem, cache_dir)
        return None
    meta = _read_sidecar(meta_path)
    if meta is None:
        return None
    if (
        meta["lam_hex"] != float(params.lam).hex()
        or meta["alpha_hex"] != float(params.alpha).hex()
        or meta["n_sites"] != params.n_sites
        or meta["k"] != k
    ):
        logger.info("cache miss: %s holds a different key", meta_path)
        return None
    dim = meta["dim"]
    rows = _row_selection(rows, dim)
    head_bytes, row_bytes = 17 * dim, 16 * dim
    energies = np.empty(dim, dtype="<f8")
    parity = np.empty(dim, dtype="i1")
    sum_c4 = np.empty(dim, dtype="<f8")
    with open(bin_path, "rb") as fh:
        if os.fstat(fh.fileno()).st_size != head_bytes + dim * row_bytes:
            raise CacheCorruptionError(f"payload size mismatch for {bin_path}")
        _read_verified(fh, [energies, parity, sum_c4], meta["head_sha256"], bin_path)
        # only the blocks that hold a wanted row, each through one buffer
        wanted = np.arange(dim) if rows is None else np.array(rows, dtype=np.int64)  # ascending
        vectors = np.empty((wanted.size, dim), dtype="<c16")
        buffer = np.empty((min(CACHE_BLOCK_ROWS, dim), dim), dtype="<c16")
        for block in dict.fromkeys((wanted // CACHE_BLOCK_ROWS).tolist()):
            start = block * CACHE_BLOCK_ROWS
            part = buffer[: min(CACHE_BLOCK_ROWS, dim - start)]
            fh.seek(head_bytes + start * row_bytes)
            _read_verified(fh, [part], meta["block_sha256"][block], bin_path)
            lo, hi = np.searchsorted(wanted, (start, start + part.shape[0]))
            vectors[lo:hi] = part[wanted[lo:hi] - start]
    return EigenDecomposition(
        params=params,
        k=k,
        energies=energies,
        vectors=vectors,
        parity=parity,
        sum_c4=sum_c4,
        rows=rows,
    )


def diagonalize_cached(
    sector_builder, params: ModelParams, k: int, cache_dir=None, rows=None
) -> tuple[EigenDecomposition, bool]:
    """Load from cache or diagonalize-and-store; returns (decomp, was_hit).

    Only a miss calls ``sector_builder``, which returns the sector's
    ``(basis, elements)`` for ``diagonalize``; the element list is dropped
    once the blocks are cut from it, before the solves.  ``rows`` selects the rows of
    V as in ``cache_load``.  A miss stores the full decomposition, then
    returns it cut down to those rows, as a hit would return it.
    """
    if cache_dir is not None:
        hit = cache_load(params, k, cache_dir, rows)
        if hit is not None:
            return hit, True
    basis, elements = sector_builder()
    blocks = _checked_blocks(basis, elements)
    del elements  # the solve needs only the blocks
    decomp = _solve_blocks(basis, blocks, params)
    del basis
    if cache_dir is not None:
        cache_store(decomp, cache_dir)
    return _restrict(decomp, rows), False
