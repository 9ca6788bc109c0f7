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
``diagonalize`` keeps the real eigenvectors W, sign-gauged, as the sector's
one eigenvector object: no complex V = U W is formed, and the moment sums
and single rows of V are read from W.  ``block_spectra`` solves for
eigenvalues only.

Sectors k and N - k are one solve: H_{N-k} = conj(H_k) in the plane-wave
basis, so they share energies, parity labels (all 0 there), moment sums and
W, and V_{N-k} = conj(V_k).  ``solved_momentum`` names the sector that is
solved, cached and named for k, min(k, N - k); ``cache_load`` and
``diagonalize_cached`` return N - k as that sector's decomposition, W and
its basis untouched, with ``k`` set to N - k, and ``cache_store`` stores no
other.  Both take the symbols whose coefficients the caller reads, which
``_held_rows`` alone maps to rows of W.

A decomposition is cached under the key of ``_key`` (format version and
exact N, k, lam, alpha), which names the entry's file and heads its header,
as one file: in format 6 an 8-byte little-endian length, a JSON header with
the key, the size D and SHA-256 digests, the head of ``CACHE_HEAD``
(energies <f8, parity labels i1, 0 where there are none, and moment sums
<f8) under one digest, then W as row-major <f8 in blocks of
``CACHE_BLOCK_ROWS`` rows, one digest per block.  A load reads the header,
the head and only the blocks that hold the rows of W asked for, through one
open file.  A write goes to a unique temp file, synced, then one rename, so
a reader or a second writer of a key sees one writer's whole entry.  The
directory is not synced: after a crash an entry is whole or absent, and an
absent entry is a logged miss that is solved again.
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
from .spin_basis import MomentumBasis, momentum_basis, sector_counts

logger = logging.getLogger(__name__)

CACHE_VERSION = 6
# rows of W under one digest in the cache payload; fixed by CACHE_VERSION.
# Small, so that a load of a few rows hashes little more than those rows
CACHE_BLOCK_ROWS = 8
# the head of an entry's payload, one array of D values per field of
# EigenDecomposition, in this order under one digest; fixed by CACHE_VERSION
CACHE_HEAD = (("energies", "<f8"), ("parity", "i1"), ("sum_c4", "<f8"))
# rows of W per chunk of the moment sums sum_a |c_a|^2q
MOMENT_CHUNK_ROWS = 64

# components within this relative distance of an eigenvector's largest
# modulus count as tied for the sign gauge; symmetry makes exact ties common
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


def state_moment_sums(w: np.ndarray, partner: np.ndarray, q: float) -> np.ndarray:
    """Per-eigenstate (column) sum_a |c_a|^2q of V = U W, from the real W alone, with no pow() at q = 2.

    |c_a|^2 = (W_a^2 + W_b^2) / 2 with b = ``partner[a]``, an invariant state
    being its own partner: a pair's c_a is (W_a +- i W_b) / sqrt2 up to a
    phase, and at k = 0 and N/2, where each eigenstate has a parity, one of
    W_a and W_b is 0.
    The rows go through in blocks of ``MOMENT_CHUNK_ROWS`` into one small
    (rows + 1) x D buffer whose first row carries the running sums, so no
    D x D temporary is made and each column adds its rows in the same order
    as ``np.sum(..., axis=0)`` of the whole C-ordered array of |c|^2q.
    """
    n_rows, n_cols = w.shape
    buf = np.zeros((MOMENT_CHUNK_ROWS + 1, n_cols))
    partner_sq = np.empty((MOMENT_CHUNK_ROWS, n_cols))
    sums = np.zeros(n_cols)
    for start in range(0, n_rows, MOMENT_CHUNK_ROWS):
        block = w[start : start + MOMENT_CHUNK_ROWS]
        rows = block.shape[0]
        p, other = buf[1 : rows + 1], partner_sq[:rows]
        np.multiply(block, block, out=p)
        # the partners are in range; the "clip" mode writes into ``other`` without a buffer
        np.take(w, partner[start : start + rows], axis=0, out=other, mode="clip")
        np.multiply(other, other, out=other)
        p += other
        p *= 0.5
        if q == 2:
            p *= p
        elif q != 1:
            np.power(p, q, out=p)
        buf[0] = sums
        np.sum(buf[: rows + 1], axis=0, out=sums)
    return sums


@dataclass
class EigenDecomposition:
    """Full spectrum, per-state summary and sign-gauged real eigenvectors of one sector.

    ``parity`` is the int8 inversion parity of each eigenstate: +1 or -1
    where the sector was solved in parity blocks (k = 0 and k = N/2), 0 =
    unlabelled elsewhere.  ``sum_c4`` is sum_a |c_a|^4 of each eigenstate.

    ``vectors`` holds W, the real eigenvectors of sector ``basis.k`` in the
    real basis U of ``basis``, one column per eigenstate: k where k was
    solved itself, N - k where it was derived from N - k (``solved_momentum``).
    The plane-wave coefficients are V = U W, conjugated where ``basis.k`` is
    not k; read a row of V with ``coefficients`` and one of W with ``row``.
    With ``rows`` None ``vectors`` holds every row of W; otherwise
    ``vectors[i]`` is row ``rows[i]`` of W (the rows ascending), and with no
    row ``vectors`` has shape (0, D) and ``basis`` is None.
    """

    params: ModelParams
    k: int
    basis: MomentumBasis | None
    energies: np.ndarray
    vectors: np.ndarray
    parity: np.ndarray
    sum_c4: np.ndarray
    rows: tuple[int, ...] | None = None

    @property
    def dim(self) -> int:
        return self.energies.size

    def row(self, index: int) -> np.ndarray:
        """Row ``index`` of W."""
        if self.rows is None:
            return self.vectors[index]
        if index not in self.rows:
            raise KeyError(f"row {index} of the eigenvectors was not loaded")
        return self.vectors[self.rows.index(index)]

    def coefficients(self, symbol: int) -> np.ndarray:
        """Row ``symbol`` of V, from the held rows a and ``basis.partner[a]`` of W."""
        if self.basis is None:
            raise KeyError("no row of the eigenvectors was loaded")
        col, coef = self.basis.real_entries()
        (lower, upper), (x, y) = col[symbol], coef[symbol]
        c = x * self.row(lower) + y * self.row(upper)
        return c if self.basis.k == self.k else c.conj()


def _held_rows(symbols, dim: int, basis_of) -> tuple[MomentumBasis | None, tuple[int, ...] | None]:
    """The basis W is in and the rows of W that the coefficients of ``symbols`` read: each a and ``partner[a]``.

    ``symbols`` None means every row (rows None), and no symbol no row and no
    basis: ``basis_of()`` builds the solved sector's basis only where a row
    is held, once the symbols are checked to lie in [0, ``dim``).
    """
    if symbols is None:
        return basis_of(), None
    symbols = sorted({int(symbol) for symbol in symbols})
    if not symbols:
        return None, ()
    if not (symbols[0] >= 0 and symbols[-1] < dim):
        raise IndexError(f"symbols {symbols} outside the basis [0, {dim})")
    basis = basis_of()
    return basis, tuple(sorted({*symbols, *basis.partner[symbols].tolist()}))


def _fix_signs(w: np.ndarray) -> np.ndarray:
    """Make one leading component of each column of W positive, in place.

    The leading component is the lowest-index one whose modulus lies within
    relative ``GAUGE_TIE_RTOL`` of the column maximum, so symmetry-tied
    components do not leave the choice to rounding.
    """
    bound = (1.0 - GAUGE_TIE_RTOL) * np.maximum(w.max(axis=0), -w.min(axis=0))
    tied = w >= bound  # |w| >= bound, through boolean arrays only, with no D x D |w|
    tied |= w <= -bound
    w *= np.where(w[np.argmax(tied, axis=0), np.arange(w.shape[1])] < 0, -1.0, 1.0)
    return w


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
    columns of U name.

    Each column of W is given the sign that makes its largest-modulus
    component, the lowest index among ties within relative
    ``GAUGE_TIE_RTOL``, positive.  The energies ascend, and the
    decomposition carries every row of W and the moment sums ``sum_c4`` of
    V = U W, taken from W by ``state_moment_sums``.

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
    w = _fix_signs(w)
    return EigenDecomposition(
        params=params,
        k=basis.k,
        basis=basis,
        energies=energies[rank],
        vectors=w,
        parity=np.repeat(np.array([parity for _, parity in keys], dtype=np.int8), sizes)[rank],
        sum_c4=state_moment_sums(w, basis.partner, 2.0),
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


def solved_momentum(n_sites: int, k: int) -> int:
    """The sector solved, cached and named for sector k: min(k, N - k), since H_{N-k} = conj(H_k)."""
    return min(k, n_sites - k)


def _key(params: ModelParams, k: int) -> dict:
    """What names a cache entry: the format version and the exact (N, k, lam, alpha)."""
    return {
        "version": CACHE_VERSION,
        "n_sites": params.n_sites,
        "k": k,
        "lam_hex": float(params.lam).hex(),
        "alpha_hex": float(params.alpha).hex(),
    }


def _entry_path(params: ModelParams, k: int, cache_dir) -> Path:
    version, *fields = _key(params, k).values()  # hashed as "N|k|lam_hex|alpha_hex|v<version>"
    digest = hashlib.sha256("|".join([*map(str, fields), f"v{version}"]).encode()).hexdigest()[:16]
    return Path(cache_dir) / f"N{params.n_sites}_k{k}_{digest}.bin"


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
    """Persist a decomposition that holds every row of W as one entry file; returns its path.

    Only a solved sector, k <= N/2, is stored; its partner N - k is loaded from it.
    """
    if decomp.rows is not None:
        raise ValueError("only a decomposition with every row of the eigenvectors is stored")
    solved = solved_momentum(decomp.params.n_sites, decomp.k)
    if solved != decomp.k:
        raise ValueError(f"sector k={decomp.k} is not stored: it is loaded from sector k={solved}")
    path = _entry_path(decomp.params, decomp.k, cache_dir)
    path.parent.mkdir(parents=True, exist_ok=True)

    head = [np.ascontiguousarray(getattr(decomp, field), dtype=dtype) for field, dtype in CACHE_HEAD]
    vectors = np.ascontiguousarray(decomp.vectors, dtype="<f8")
    meta = {
        **_key(decomp.params, decomp.k),
        "lam": decomp.params.lam,
        "alpha": decomp.params.alpha,
        "dim": decomp.dim,
        "head_sha256": _sha256(*head),
        "block_sha256": [
            _sha256(vectors[start : start + CACHE_BLOCK_ROWS])
            for start in range(0, decomp.dim, CACHE_BLOCK_ROWS)
        ],
    }
    header = json.dumps(meta, sort_keys=True).encode()
    _atomic_write(path, len(header).to_bytes(8, "little"), header, *head, vectors)
    return path


def _read_header(fh, size: int, path: Path, expected: dict) -> dict | None:
    """Parsed header of a ``size``-byte entry, ``fh`` left at the payload, or None (logged) if it is bad.

    Each field of ``expected`` must hold its value with its type (a bool is not an int).
    """
    length = int.from_bytes(fh.read(8), "little")
    if length > size - 8:
        logger.warning("cache miss: truncated header in %s", path)
        return None
    try:
        meta = json.loads(fh.read(length))
    except ValueError as exc:
        logger.warning("cache miss: unreadable header in %s (%s)", path, exc)
        return None
    if not isinstance(meta, dict):
        logger.warning("cache miss: the header of %s is not a JSON object", path)
        return None
    for field, value in expected.items():
        found = meta.get(field)
        if type(found) is not type(value) or found != value:
            logger.warning("cache miss: %s has %s %r, expected %r", path, field, found, value)
            return None
    digests = meta.get("block_sha256")
    if not isinstance(digests, list) or len(digests) != -(-expected["dim"] // CACHE_BLOCK_ROWS) or not all(
        isinstance(digest, str) for digest in [meta.get("head_sha256"), *digests]
    ):
        logger.warning("cache miss: the header of %s lacks valid digests", path)
        return None
    return meta


def _read_verified(fh, parts: list[np.ndarray], sha256: str, path: Path) -> None:
    """Read the next bytes of ``fh`` straight into ``parts``, checked against ``sha256``."""
    digest = hashlib.sha256()
    for part in parts:
        raw = part.reshape(-1).view(np.uint8)
        if fh.readinto(raw) != raw.size:
            raise CacheCorruptionError(f"payload size mismatch for {path}")
        digest.update(raw)
    if digest.hexdigest() != sha256:
        raise CacheCorruptionError(f"checksum mismatch for {path}")


def cache_load(params: ModelParams, k: int, cache_dir, symbols=None) -> EigenDecomposition | None:
    """Load a cached decomposition; None signals a miss (recompute).

    The entry read is that of the solved sector ``solved_momentum(N, k)``.
    For k > N/2 it is sector N - k, returned as it was read, with ``k`` set
    to the k asked for: no pass is made over W, and only the rows of V that
    ``coefficients`` builds from it are conjugated.

    ``symbols`` names the coefficients read, as ``_held_rows`` takes them:
    None (every row of W), none (no row and no basis) or the symbols wanted,
    whose basis is built only once the header has passed.  The header, the
    head (energies, parity labels and moment sums) and of W only the blocks
    that hold a wanted row are read through one open file, each part checked
    against its SHA-256.

    The header must hold the entry's name: each field of ``_key`` and the
    sector's size D from ``sector_counts``, with the same value and type.
    A missing entry, a truncated or unreadable header, one that is not a JSON
    object, a field of the name that differs (the log names the first, the
    value found and the value expected) or a bad digest list is a miss,
    logged with its reason.  A payload whose size disagrees with a valid
    header, or a part read that fails its digest, raises
    ``CacheCorruptionError``.  A symbol outside the basis raises ``IndexError``.
    """
    solved = solved_momentum(params.n_sites, k)
    path = _entry_path(params, solved, cache_dir)
    if not path.exists():
        logger.debug("cache miss: no entry %s", path)
        return None
    dim = sector_counts(params.n_sites, solved).dim
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        meta = _read_header(fh, size, path, {**_key(params, solved), "dim": dim})
        if meta is None:
            return None
        basis, rows = _held_rows(symbols, dim, lambda: momentum_basis(params.n_sites, solved))
        head = {field: np.empty(dim, dtype=dtype) for field, dtype in CACHE_HEAD}
        head_bytes, row_bytes = sum(part.nbytes for part in head.values()), 8 * dim
        body = fh.tell()  # the payload starts right after the header
        if size != body + head_bytes + dim * row_bytes:
            raise CacheCorruptionError(f"payload size mismatch for {path}")
        _read_verified(fh, list(head.values()), meta["head_sha256"], path)
        # only the blocks that hold a wanted row, each through one buffer
        wanted = np.arange(dim) if rows is None else np.array(rows, dtype=np.int64)  # ascending
        vectors = np.empty((wanted.size, dim), dtype="<f8")
        buffer = np.empty((min(CACHE_BLOCK_ROWS, dim), dim), dtype="<f8")
        for block in dict.fromkeys((wanted // CACHE_BLOCK_ROWS).tolist()):
            start = block * CACHE_BLOCK_ROWS
            part = buffer[: min(CACHE_BLOCK_ROWS, dim - start)]
            fh.seek(body + head_bytes + start * row_bytes)
            _read_verified(fh, [part], meta["block_sha256"][block], path)
            lo, hi = np.searchsorted(wanted, (start, start + part.shape[0]))
            vectors[lo:hi] = part[wanted[lo:hi] - start]
    return EigenDecomposition(params=params, k=k, basis=basis, vectors=vectors, rows=rows, **head)


def diagonalize_cached(
    sector_builder, params: ModelParams, k: int, cache_dir=None, symbols=None
) -> tuple[EigenDecomposition, bool]:
    """Load from cache or diagonalize-and-store; returns (decomp, was_hit).

    Only a miss calls ``sector_builder(solved)``, with the solved sector
    ``solved_momentum(N, k)``, which returns that sector's ``(basis,
    elements)``, and solves them with ``diagonalize``, which keeps the
    element list until every block has passed its checks.  ``symbols``
    selects the rows of W as in ``cache_load``.  A miss stores the full
    decomposition of the solved sector, then returns it cut down to those
    rows and, for k > N/2, with ``k`` set to N - k, as a hit would return
    it.  Without a cache, sector N - k is solved as sector k again.
    """
    if cache_dir is not None:
        hit = cache_load(params, k, cache_dir, symbols)
        if hit is not None:
            return hit, True
    decomp = diagonalize(*sector_builder(solved_momentum(params.n_sites, k)), params)
    if cache_dir is not None:
        cache_store(decomp, cache_dir)
    basis, rows = _held_rows(symbols, decomp.dim, lambda: decomp.basis)
    vectors = decomp.vectors if rows is None else decomp.vectors[list(rows)]  # a copy, so W can be freed
    return replace(decomp, k=k, basis=basis, vectors=vectors, rows=rows), False
