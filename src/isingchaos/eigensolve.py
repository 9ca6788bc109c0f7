"""Dense Hermitian eigensolver with residual checks and on-disk caching.

Every sector matrix is solved in real arithmetic, in the real basis its
``MomentumBasis`` owns: at k = 0 and k = N/2 as separate inversion-even and
inversion-odd blocks, elsewhere as one A-invariant block, with eigenvectors
mapped back.  The returned eigenvectors are complex plane-wave coefficients
in a fixed gauge.  ``block_spectra`` runs the same pre-solve checks and
symmetry split but solves for eigenvalues only, checked per block by their
sum rules.

Spectra, eigenvectors and parity labels (0 where there are none) are cached
per (N, k, lam, alpha, format version) as little-endian payloads plus a JSON
sidecar carrying exact-key metadata and a checksum over the whole payload.
Writes are atomic (unique temp file + rename).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .hamiltonian import (
    ModelParams,
    NonHermitianError,
    SectorMatrix,
    SymmetryBreakingError,
    symmetry_blocks,
)

logger = logging.getLogger(__name__)

CACHE_VERSION = 2

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


@dataclass
class EigenDecomposition:
    """Full spectrum and gauge-fixed eigenvectors of one sector.

    ``parity`` is the inversion parity (+1 or -1) of each eigenstate where the
    sector was solved in parity blocks (k = 0 and k = N/2), None elsewhere.
    """

    params: ModelParams
    k: int
    energies: np.ndarray
    vectors: np.ndarray
    parity: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.energies.size


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


def _fingerprint(h: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(h).tobytes()).hexdigest()[:16]


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


def _solve(a: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Verified eigenpairs of the symmetric ``a``; ``h`` is fingerprinted on failure."""
    try:
        energies, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise DiagonalizationError(f"eigensolver failed on matrix {_fingerprint(h)}") from exc
    failure = _verify(a, energies, vectors)
    if failure is not None:
        raise DiagonalizationError(f"{failure} on matrix {_fingerprint(h)}")
    return energies, vectors


def _checked_blocks(
    matrix: SectorMatrix, row_labels: np.ndarray | None
) -> dict[tuple[int, int], np.ndarray]:
    """The checked blocks of ``symmetry_blocks``, with the matrix fingerprint on a symmetry failure."""
    try:
        return symmetry_blocks(matrix, row_labels)
    except SymmetryBreakingError as exc:
        raise SymmetryBreakingError(f"{exc} (matrix {_fingerprint(matrix.entries)})") from None


def _solve_blocks(
    matrix: SectorMatrix, blocks: dict
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Solve and verify each block of ``_checked_blocks`` on its own.

    Returns the energies in ascending order, the plane-wave eigenvectors
    (real where ``matrix.basis.is_real``) and there the inversion parity of
    each eigenstate, elsewhere None.  ``blocks`` is emptied, so the
    real-basis copy they view is freed before the solves.
    """
    h, dim = matrix.entries, matrix.dim
    parities = np.array([parity for _, parity in blocks], dtype=np.int8)
    symmetrized = [block + block.T for block in blocks.values()]
    blocks.clear()
    solved = []
    for a in symmetrized:
        a *= 0.5
        solved.append(_solve(a, h))
    del symmetrized, a
    sizes = [e.size for e, _ in solved]
    energies = np.concatenate([e for e, _ in solved])
    rank = np.argsort(energies, kind="stable")
    if len(solved) == 1:
        w = solved[0][1]
    else:  # block-diagonal eigenvectors, columns in ascending energy order
        w = np.zeros((dim, dim))
        column = np.empty_like(rank)
        column[rank] = np.arange(rank.size)
        for start, (_, vectors) in zip(np.cumsum([0] + sizes), solved):
            part = slice(start, start + vectors.shape[0])
            w[part, column[part]] = vectors
    del solved
    parity = np.repeat(parities, sizes)[rank] if matrix.basis.is_real else None
    return energies[rank], matrix.basis.from_real(w), parity


def diagonalize(matrix: SectorMatrix) -> EigenDecomposition:
    """Diagonalize a sector matrix and verify the eigenpairs.

    The matrix is split into the real blocks of ``symmetry_blocks``
    (raising ``NonHermitianError`` or ``SymmetryBreakingError`` if a
    pre-solve check fails): at k = 0 and k = N/2 an inversion-even and an
    inversion-odd block, whose eigenstates ``parity`` labels, elsewhere one
    A-invariant block.  Each block is solved and verified on its own in real
    arithmetic, and the eigenvectors are rotated back.

    Coefficient statistics therefore stay complex in the plane-wave basis.
    Each eigenvector's phase is fixed so that its largest-modulus component,
    the lowest index among ties within relative ``GAUGE_TIE_RTOL``, is real
    and positive.

    Raises ``DiagonalizationError`` (with a matrix fingerprint) if LAPACK
    fails, a residual exceeds ``RESIDUAL_FACTOR`` times the spectral norm,
    or the eigenvectors fail a randomized orthonormality check
    (``ORTHO_PROBES`` probes at relative tolerance ``ORTHO_TOL``).
    """
    energies, vectors, parity = _solve_blocks(matrix, _checked_blocks(matrix, None))
    vectors = _fix_phases(vectors).astype(np.complex128, copy=False)
    return EigenDecomposition(
        params=matrix.params, k=matrix.k, energies=energies, vectors=vectors, parity=parity
    )


def _sum_rule_failure(block: np.ndarray, energies: np.ndarray) -> str | None:
    """Level count, finiteness and the two sum rules of a block's spectrum; a failure message or None."""
    n = block.shape[0]
    if energies.shape != (n,) or not np.all(np.isfinite(energies)):
        return f"{energies.size} levels, not {n} finite ones"
    # row sums first: each row holds a few nonzeros, so the total stays exact to rounding
    frob2 = float(np.sum(np.einsum("ij,ij->i", block, block)))
    deviation = abs(float(np.sum(energies)) - float(np.trace(block)))
    bound = SUM_RULE_RTOL * np.sqrt(n * frob2)
    if deviation > bound:
        return f"sum E deviates from tr B by {deviation:.3e} (bound {bound:.1e})"
    deviation = abs(float(np.sum(np.square(energies))) - frob2)
    bound = SUM_RULE_RTOL * frob2
    if deviation > bound:
        return f"sum E^2 deviates from |B|_F^2 by {deviation:.3e} (bound {bound:.1e})"
    return None


def block_spectra(
    matrix: SectorMatrix, row_labels: np.ndarray | None = None
) -> dict[tuple[int, int], np.ndarray]:
    """Verified eigenvalues of each symmetry block, without eigenvectors.

    Runs the pre-solve checks and the split of ``symmetry_blocks``, here
    with optional ``row_labels``, and ``np.linalg.eigvalsh`` on each block B
    of dimension n.  Each spectrum must hold n finite levels and satisfy the
    sum rules sum E = tr B within ``SUM_RULE_RTOL`` sqrt(n) |B|_F and
    sum E^2 = |B|_F^2 within ``SUM_RULE_RTOL`` |B|_F^2.  That catches a lost, shifted or non-finite
    level, but it is weaker than the residual check of ``diagonalize``: an
    error that preserves both sums passes.

    Returns ``{(label, parity): ascending energies}`` keyed and ordered as
    ``symmetry_blocks`` returns the blocks.  Raises ``NonHermitianError``,
    ``SymmetryBreakingError``, or ``DiagonalizationError`` with a matrix
    fingerprint if LAPACK fails or a check does not hold.
    """
    spectra = {}
    for key, block in _checked_blocks(matrix, row_labels).items():
        try:
            energies = np.linalg.eigvalsh(block)
        except np.linalg.LinAlgError as exc:
            raise DiagonalizationError(f"eigensolver failed on matrix {_fingerprint(matrix.entries)}") from exc
        failure = _sum_rule_failure(block, energies)
        if failure is not None:
            raise DiagonalizationError(f"block {key}: {failure} on matrix {_fingerprint(matrix.entries)}")
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
    """Write the chunks to a uniquely named temp file beside ``path``, then rename onto it."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def cache_store(decomp: EigenDecomposition, cache_dir) -> Path:
    """Persist a decomposition; returns the sidecar path."""
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    stem = _cache_stem(decomp.params, decomp.k)

    energies = np.ascontiguousarray(decomp.energies, dtype="<f8")
    dim = energies.size
    # little-endian complex128 is the interleaved re/im layout of the format
    vectors = np.ascontiguousarray(decomp.vectors, dtype="<c16")
    parity = np.zeros(dim, dtype="i1") if decomp.parity is None else decomp.parity
    chunks = [energies, vectors, np.asarray(parity, dtype="i1")]
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)

    meta = {
        "version": CACHE_VERSION,
        "n_sites": decomp.params.n_sites,
        "k": decomp.k,
        "lam": decomp.params.lam,
        "alpha": decomp.params.alpha,
        "lam_hex": float(decomp.params.lam).hex(),
        "alpha_hex": float(decomp.params.alpha).hex(),
        "dim": dim,
        "payload_sha256": digest.hexdigest(),
    }
    _atomic_write(cache_dir / f"{stem}.bin", *chunks)
    _atomic_write(
        cache_dir / f"{stem}.json", json.dumps(meta, sort_keys=True).encode()
    )
    return cache_dir / f"{stem}.json"


_SIDECAR_FIELDS = {
    "version": int,
    "n_sites": int,
    "k": int,
    "lam_hex": str,
    "alpha_hex": str,
    "dim": int,
    "payload_sha256": str,
}


def _read_sidecar(meta_path: Path) -> dict | None:
    """Parsed sidecar, or None (logged) when it is unreadable or incomplete."""
    try:
        meta = json.loads(meta_path.read_bytes())
    except (OSError, ValueError) as exc:
        logger.warning("cache miss: unreadable sidecar %s (%s)", meta_path, exc)
        return None
    if not isinstance(meta, dict):
        logger.warning("cache miss: sidecar %s is not a JSON object", meta_path)
        return None
    for key, kind in _SIDECAR_FIELDS.items():
        if not isinstance(meta.get(key), kind):
            logger.warning("cache miss: sidecar %s lacks a valid %r", meta_path, key)
            return None
    return meta


def cache_load(params: ModelParams, k: int, cache_dir) -> EigenDecomposition | None:
    """Load a cached decomposition; None signals a miss (recompute).

    A missing, malformed or mismatched sidecar is a miss, logged with its
    reason.  A payload that disagrees with a valid sidecar's checksum or size
    raises ``CacheCorruptionError``.
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
    if meta["version"] != CACHE_VERSION:
        logger.info("cache miss: %s has format version %s", meta_path, meta["version"])
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
    with open(bin_path, "rb") as fh:
        if os.fstat(fh.fileno()).st_size != 8 * dim + 16 * dim * dim + dim:
            raise CacheCorruptionError(f"payload size mismatch for {bin_path}")
        energies = np.empty(dim, dtype="<f8")
        vectors = np.empty((dim, dim), dtype="<c16")
        parity = np.empty(dim, dtype="i1")
        digest = hashlib.sha256()
        for part in (energies, vectors, parity):  # read straight into the final arrays
            raw = part.reshape(-1).view(np.uint8)
            if fh.readinto(raw) != raw.size:
                raise CacheCorruptionError(f"payload size mismatch for {bin_path}")
            digest.update(raw)
    if digest.hexdigest() != meta["payload_sha256"]:
        raise CacheCorruptionError(f"checksum mismatch for {bin_path}")
    parity = parity if parity.any() else None  # 0: no parity labels
    return EigenDecomposition(params=params, k=k, energies=energies, vectors=vectors, parity=parity)


def diagonalize_cached(
    matrix_builder, params: ModelParams, k: int, cache_dir=None
) -> tuple[EigenDecomposition, bool]:
    """Load from cache or diagonalize-and-store; returns (decomp, was_hit)."""
    if cache_dir is not None:
        hit = cache_load(params, k, cache_dir)
        if hit is not None:
            return hit, True
    decomp = diagonalize(matrix_builder())
    if cache_dir is not None:
        cache_store(decomp, cache_dir)
    return decomp, False
