"""Dense Hermitian eigensolver with residual checks and on-disk caching.

Sectors whose block is exactly real are solved as real symmetric problems.
Complex blocks that carry an antiunitary symmetry (every block built by
``build_sector_hamiltonian``) are moved to the real basis of that symmetry,
solved there as real symmetric problems, and their eigenvectors mapped back;
any other Hermitian input takes a complex solve.  Whatever the path, the
returned eigenvectors are complex plane-wave coefficients in a fixed gauge.

Spectra and eigenvectors are cached per (N, k, lam, alpha, format version)
as little-endian float64 payloads plus a JSON sidecar carrying exact-key
metadata and a checksum.  Writes are atomic (unique temp file + rename).
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

from .hamiltonian import ModelParams, SectorMatrix, hermiticity_defect

logger = logging.getLogger(__name__)

CACHE_VERSION = 1

# components within this relative distance of an eigenvector's largest
# modulus count as tied for the phase gauge; symmetry makes exact ties common
GAUGE_TIE_RTOL = 1e-8
# randomized orthonormality check: |W^H W x - x| <= ORTHO_TOL |x| per probe
ORTHO_PROBES = 4
ORTHO_TOL = 1e-10
ORTHO_SEED = 0


class NonHermitianError(ValueError):
    """Input matrix fails the Hermiticity tolerance."""


class SymmetryBreakingError(NonHermitianError):
    """Input matrix does not commute with the antiunitary symmetry it carries."""


class DiagonalizationError(RuntimeError):
    """Eigensolver failed to converge or verify."""


class CacheCorruptionError(RuntimeError):
    """Cache payload does not match its recorded checksum."""


@dataclass
class EigenDecomposition:
    """Full spectrum and gauge-fixed eigenvectors of one sector."""

    params: ModelParams
    k: int
    energies: np.ndarray
    vectors: np.ndarray

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


def _verify(a: np.ndarray, energies: np.ndarray, w: np.ndarray, residual_factor: float) -> str | None:
    """Residual and orthonormality of the eigenpairs of ``a``; a failure message or None."""
    norm = max(float(np.max(np.abs(energies))), np.finfo(float).tiny)
    residual = a @ w
    residual -= w * energies
    worst = float(np.max(np.linalg.norm(residual, axis=0)))
    del residual
    if worst > residual_factor * norm:
        return f"residual {worst:.3e} exceeds {residual_factor:.1e} * |H|"
    probes = np.random.default_rng(ORTHO_SEED).standard_normal((w.shape[0], ORTHO_PROBES))
    back = (w.T @ (w @ probes).conj()).conj()  # W^H W x without copying W
    defect = float(np.max(np.linalg.norm(back - probes, axis=0) / np.linalg.norm(probes, axis=0)))
    if defect > ORTHO_TOL:
        return f"orthonormality defect {defect:.3e} exceeds {ORTHO_TOL:.1e}"
    return None


def diagonalize(
    matrix: SectorMatrix,
    hermiticity_tol: float = 1e-12,
    residual_factor: float = 1e-8,
) -> EigenDecomposition:
    """Diagonalize a sector matrix and verify the eigenpairs.

    The solve runs in real arithmetic when the block is exactly real, or when
    it carries an antiunitary ``symmetry``: the block is then rotated into
    that symmetry's real basis (raising ``SymmetryBreakingError`` if the
    rotated matrix is not real within ``hermiticity_tol``) and the
    eigenvectors are rotated back.  Coefficient statistics therefore stay
    complex in the plane-wave basis.  Each eigenvector's phase is fixed so
    that its largest-modulus component, the lowest index among ties within
    relative ``GAUGE_TIE_RTOL``, is real and positive.

    Raises ``NonHermitianError`` on bad input and ``DiagonalizationError``
    (with a matrix fingerprint) if LAPACK fails, a residual exceeds
    ``residual_factor`` times the spectral norm, or the eigenvectors fail a
    randomized orthonormality check (``ORTHO_PROBES`` probes at relative
    tolerance ``ORTHO_TOL``).
    """
    h = np.asarray(matrix.entries)
    scale = max(1.0, float(np.max(np.abs(h)))) if h.size else 1.0
    real_input = not np.iscomplexobj(h) or not np.any(h.imag)
    if real_input:
        h = h.real
    defect = hermiticity_defect(h)
    if defect > hermiticity_tol * scale:
        raise NonHermitianError(f"hermiticity defect {defect:.3e} exceeds tolerance")

    lift = None
    if real_input:
        a = h + h.T
    elif matrix.symmetry is not None:
        rotated = matrix.symmetry.to_real(h)
        broken = float(np.max(np.abs(rotated.imag)))
        if broken > hermiticity_tol * scale:
            raise SymmetryBreakingError(
                f"matrix {_fingerprint(h)} is off-real by {broken:.3e} in the basis of its symmetry"
            )
        a = rotated.real + rotated.real.T
        del rotated
        lift = matrix.symmetry.from_real
    else:
        a = h + h.conj().T
    a *= 0.5

    try:
        energies, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise DiagonalizationError(f"eigensolver failed on matrix {_fingerprint(h)}") from exc
    failure = _verify(a, energies, vectors, residual_factor)
    if failure is not None:
        raise DiagonalizationError(f"{failure} on matrix {_fingerprint(h)}")
    del a

    if lift is not None:
        vectors = lift(vectors)
    vectors = _fix_phases(vectors).astype(np.complex128, copy=False)
    return EigenDecomposition(
        params=matrix.params, k=matrix.k, energies=energies, vectors=vectors
    )


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


def _atomic_write(path: Path, payload: bytes) -> None:
    """Write to a uniquely named temp file beside ``path``, then rename onto it."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
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
    interleaved = np.empty((dim, dim, 2), dtype="<f8")
    interleaved[..., 0] = decomp.vectors.real
    interleaved[..., 1] = decomp.vectors.imag
    payload = energies.tobytes() + interleaved.tobytes()

    meta = {
        "version": CACHE_VERSION,
        "n_sites": decomp.params.n_sites,
        "k": decomp.k,
        "lam": decomp.params.lam,
        "alpha": decomp.params.alpha,
        "lam_hex": float(decomp.params.lam).hex(),
        "alpha_hex": float(decomp.params.alpha).hex(),
        "dim": dim,
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    _atomic_write(cache_dir / f"{stem}.bin", payload)
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
    payload = bin_path.read_bytes()
    if hashlib.sha256(payload).hexdigest() != meta["payload_sha256"]:
        raise CacheCorruptionError(f"checksum mismatch for {bin_path}")
    dim = meta["dim"]
    expected = 8 * dim + 16 * dim * dim
    if len(payload) != expected:
        raise CacheCorruptionError(f"payload size mismatch for {bin_path}")
    energies = np.frombuffer(payload[: 8 * dim], dtype="<f8").copy()
    flat = np.frombuffer(payload[8 * dim :], dtype="<f8").reshape(dim, dim, 2)
    vectors = flat[..., 0] + 1j * flat[..., 1]
    return EigenDecomposition(params=params, k=k, energies=energies, vectors=vectors)


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
