"""Exact diagonalization of the two-field Ising chain in momentum sectors,
with statistical models of its chaotic eigenfunctions."""

from .eigensolve import cache_load, diagonalize
from .hamiltonian import ModelParams, build_full_hamiltonian, build_sector_hamiltonian, sector_elements
from .spin_basis import momentum_basis, sector_counts

__version__ = "0.1.0"

__all__ = [
    "ModelParams",
    "build_full_hamiltonian",
    "build_sector_hamiltonian",
    "cache_load",
    "diagonalize",
    "momentum_basis",
    "sector_counts",
    "sector_elements",
]
