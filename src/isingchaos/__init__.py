"""Exact diagonalization of the two-field Ising chain in momentum sectors,
with statistical models of its chaotic eigenfunctions."""

from .eigensolve import EigenDecomposition, cache_load, cache_store, diagonalize
from .hamiltonian import (
    ModelParams,
    SectorMatrix,
    build_full_hamiltonian,
    build_sector_hamiltonian,
)
from .moments import LocalMomentSet, analytic_moments, bruteforce_state_moments, domain_wall_count
from .spin_basis import (
    MomentumBasis,
    count_primitive_orbits,
    invariant_counts,
    momentum_basis,
    sector_dimension,
)
from .statmodel import (
    StrengthModel,
    build_strength_model,
    fit_gibbs,
    model_spectral_density,
    predict_moment,
    predict_participation_ratio,
    strength_density,
)

__version__ = "0.1.0"

__all__ = [
    "EigenDecomposition",
    "LocalMomentSet",
    "ModelParams",
    "MomentumBasis",
    "SectorMatrix",
    "StrengthModel",
    "analytic_moments",
    "bruteforce_state_moments",
    "build_full_hamiltonian",
    "build_sector_hamiltonian",
    "build_strength_model",
    "cache_load",
    "cache_store",
    "count_primitive_orbits",
    "diagonalize",
    "domain_wall_count",
    "fit_gibbs",
    "invariant_counts",
    "model_spectral_density",
    "momentum_basis",
    "predict_moment",
    "predict_participation_ratio",
    "sector_dimension",
    "strength_density",
]
