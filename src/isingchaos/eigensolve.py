"""Dense Hermitian eigensolver with residual checks and on-disk caching.

Every sector is solved in real arithmetic, in the real basis its
``MomentumBasis`` owns: at k = 0 and k = N/2 as separate inversion-even and
inversion-odd blocks, elsewhere as one A-invariant block.  Both solvers run
one loop: it cuts those blocks, checked and exactly symmetric, from the
sector's element list with ``hamiltonian.element_blocks``, hands each to
LAPACK as built, as its Fortran-ordered transpose (the same matrix), and
checks each solve; neither solver forms the dense plane-wave block.  Every
block's spectrum must satisfy the sum rules against the trace and squared
norm that ``element_blocks`` sums from the block's real-basis elements, and
with eigenvectors its residuals and orthonormality are checked too.  Every
failure carries the fingerprint of the sector's summed elements.
``diagonalize`` maps the eigenvectors back to complex plane-wave
coefficients in a fixed gauge; ``block_spectra`` solves for eigenvalues
only.

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


def _fingerprint_elements(basis: MomentumBasis, elements: SectorElements) -> str:
    """The fingerprint that every failure of a sector's solve carries: that of its summed elements."""
    return _sha256(*summed_elements(elements, basis.dim))[:16]


def _solve_block(
    key: tuple[int, int], block: RealBlock, vectors: bool
) -> tuple[np.ndarray, np.ndarray | None, str | None]:
    """Solve one block and check it: (energies, eigenvectors or None, the first failed check or None).

    LAPACK gets ``block.entries.T``: the same exactly symmetric matrix, in
    the Fortran order that numpy copies into LAPACK's workspace without a
    strided pass.  The spectrum must hold n finite levels and satisfy the
    sum rules sum E = tr B within ``SUM_RULE_RTOL`` sqrt(n) |B|_F and
    sum E^2 = |B|_F^2 within ``SUM_RULE_RTOL`` |B|_F^2.  These read the
    tr B and |B|_F^2 that the block carries, summed from its real-basis
    elements, and not the array LAPACK was given: a block changed after
    assembly fails them.  With eigenvectors W there follow the largest
    residual |B w - E w| against ``RESIDUAL_FACTOR`` max|E|, and the
    orthonormality defect |W^T W x - x| / |x| of ``ORTHO_PROBES`` random
    probes against ``ORTHO_TOL``; a NaN value fails.  One DEBUG line per
    block gives its key, n, the driver and each check's value and bound.
    """
    n, frob2 = block.columns.size, block.frob2
    if vectors:
        energies, w = np.linalg.eigh(block.entries.T)
    else:
        energies, w = np.linalg.eigvalsh(block.entries.T), None
    head = f"block {key}: n={n}, {'eigh' if vectors else 'eigvalsh'}; "
    if energies.shape != (n,) or not np.all(np.isfinite(energies)):
        failure = f"{energies.size} levels, not {n} finite ones"
        logger.debug(head + failure)
        return energies, w, failure
    sum_e, sum_e2 = float(np.sum(energies)), float(np.sum(np.square(energies)))
    checks = [
        ("sum E deviates from tr B by", abs(sum_e - block.trace), SUM_RULE_RTOL * np.sqrt(n * frob2)),
        ("sum E^2 deviates from |B|_F^2 by", abs(sum_e2 - frob2), SUM_RULE_RTOL * frob2),
    ]
    if w is not None:
        residual = block.entries @ w
        residual -= w * energies
        norm = max(float(np.max(np.abs(energies))), np.finfo(float).tiny)
        checks.append(("residual", float(np.max(np.linalg.norm(residual, axis=0))), RESIDUAL_FACTOR * norm))
        del residual
        probes = np.random.default_rng(ORTHO_SEED).standard_normal((n, ORTHO_PROBES))
        back = w.T @ (w @ probes)  # W^T W x without copying W
        defect = float(np.max(np.linalg.norm(back - probes, axis=0) / np.linalg.norm(probes, axis=0)))
        checks.append(("orthonormality defect", defect, ORTHO_TOL))
    report = [f"{name} {value:.3e} (bound {bound:.1e})" for name, value, bound in checks]
    logger.debug(head + "; ".join(report))
    failed = [text for text, (_, value, bound) in zip(report, checks) if not value <= bound]
    return energies, w, failed[0] if failed else None


def _solved_blocks(
    basis: MomentumBasis, elements: SectorElements, vectors: bool, row_labels: np.ndarray | None = None
) -> list[tuple[tuple[int, int], np.ndarray, np.ndarray, np.ndarray | None]]:
    """The one solve loop of both solvers: (key, columns, energies, eigenvectors or None) per checked block.

    Cuts the blocks of ``element_blocks`` and solves each with
    ``_solve_block``, in key order, popping it so that it is freed once
    solved.  Every failure carries the fingerprint of the summed elements,
    so the element list is kept until every block has passed: a failed
    pre-solve check is raised as its own class, with " (matrix
    <fingerprint>)" appended, and a failed solve or check as
    ``DiagonalizationError("block (label, parity): <failure> on matrix
    <fingerprint>")``, where LAPACK's failure reads "eigensolver failed".
    """
    try:
        blocks = element_blocks(basis, elements, row_labels)
    except NonHermitianError as exc:
        raise type(exc)(f"{exc} (matrix {_fingerprint_elements(basis, elements)})") from None
    solved = []
    for key in list(blocks):
        block, cause = blocks.pop(key), None
        try:
            energies, w, failure = _solve_block(key, block, vectors)
        except np.linalg.LinAlgError as exc:
            failure, cause = "eigensolver failed", exc
        if failure is not None:
            fingerprint = _fingerprint_elements(basis, elements)
            raise DiagonalizationError(f"block {key}: {failure} on matrix {fingerprint}") from cause
        solved.append((key, block.columns, energies, w))
    return solved


def diagonalize(basis: MomentumBasis, elements: SectorElements, params: ModelParams) -> EigenDecomposition:
    """Diagonalize a sector, given by its element list over ``basis``, and verify the eigenpairs.

    ``elements`` is the sector's list of ``hamiltonian.sector_elements`` for
    ``params``, which the decomposition carries as its cache key.  The list
    is cut into the checked real blocks of ``element_blocks``: at k = 0 and
    k = N/2 an inversion-even and an inversion-odd block, whose eigenstates
    ``parity`` labels, elsewhere one A-invariant block.  Each block is
    solved and checked on its own in real arithmetic, in the loop shared
    with ``block_spectra``; its eigenvectors fill the rows of W that its
    columns of U name, and V = U W is rotated back to the plane-wave basis.

    Coefficient statistics therefore stay complex.  Each eigenvector's phase
    is fixed so that its largest-modulus component, the lowest index among
    ties within relative ``GAUGE_TIE_RTOL``, is real and positive.  The
    energies ascend, and the decomposition carries every row of V and its
    moment sums ``sum_c4``.

    Raises ``NonHermitianError`` or ``SymmetryBreakingError`` if a pre-solve
    check fails, and ``DiagonalizationError`` if LAPACK fails or a block
    fails a check of ``_solve_block``: the sum rules of ``block_spectra``,
    a residual past ``RESIDUAL_FACTOR`` times the spectral norm, or the
    randomized orthonormality check (``ORTHO_PROBES`` probes at relative
    tolerance ``ORTHO_TOL``).  Each error carries the fingerprint of the
    summed elements.
    """
    keys, columns, spectra, block_vectors = zip(*_solved_blocks(basis, elements, vectors=True))
    sizes = [rows.size for rows in columns]
    energies = np.concatenate(spectra)
    rank = np.argsort(energies, kind="stable")
    if len(keys) == 1:  # one block spans every column of U, in order
        w = block_vectors[0]
    else:  # block-diagonal eigenvectors, columns in ascending energy order
        w = np.zeros((basis.dim, basis.dim))
        position = np.empty_like(rank)
        position[rank] = np.arange(rank.size)
        for start, rows, vectors in zip(np.cumsum([0] + sizes), columns, block_vectors):
            w[np.ix_(rows, position[start : start + rows.size])] = vectors
    del block_vectors
    vectors = basis.from_real(w)
    del w
    vectors = _fix_phases(vectors).astype(np.complex128, copy=False)
    return EigenDecomposition(
        params=params,
        k=basis.k,
        energies=energies[rank],
        vectors=vectors,
        parity=np.repeat(np.array([parity for _, parity in keys], dtype=np.int8), sizes)[rank],
        sum_c4=state_moment_sums(vectors, 2.0),
    )


def block_spectra(
    basis: MomentumBasis, elements: SectorElements, row_labels: np.ndarray | None = None
) -> dict[tuple[int, int], np.ndarray]:
    """Verified eigenvalues of each symmetry block of a sector, without eigenvectors.

    Builds the checked real blocks of ``element_blocks`` from the sector's
    elements over ``basis`` (``hamiltonian.sector_elements``), here with
    optional ``row_labels``, with no dense plane-wave block, and runs
    ``np.linalg.eigvalsh`` on each block B of dimension n in the loop shared
    with ``diagonalize``.  Each spectrum must hold n finite levels and
    satisfy the sum rules sum E = tr B and sum E^2 = |B|_F^2 of
    ``_solve_block``, where tr B and |B|_F^2 are summed in O(nnz) from the
    block's real-basis elements, not read from the array LAPACK got, so a
    block changed between its assembly and the solve fails too.  This
    catches a lost, shifted or non-finite level, but it is weaker than the
    residual check of ``diagonalize``: an error that preserves both sums
    passes.

    Returns ``{(label, parity): ascending energies}`` keyed and ordered as
    ``element_blocks`` returns the blocks.  Raises ``NonHermitianError`` or
    ``SymmetryBreakingError`` if a pre-solve check fails, and
    ``DiagonalizationError`` if LAPACK fails or a spectrum check does not
    hold, each with the fingerprint of the summed elements.
    """
    return {key: energies for key, _, energies, _ in _solved_blocks(basis, elements, False, row_labels)}


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
    ``(basis, elements)``, and solves them with ``diagonalize``, which keeps
    the element list until every block has passed its checks.  ``rows``
    selects the rows of V as in ``cache_load``.  A miss stores the full
    decomposition, then returns it cut down to those rows, as a hit would
    return it.
    """
    if cache_dir is not None:
        hit = cache_load(params, k, cache_dir, rows)
        if hit is not None:
            return hit, True
    basis, elements = sector_builder()
    decomp = diagonalize(basis, elements, params)
    del basis, elements
    if cache_dir is not None:
        cache_store(decomp, cache_dir)
    return _restrict(decomp, rows), False
