import numpy as np
import pytest

from isingchaos.eigensolve import EigenDecomposition, diagonalize
from isingchaos.hamiltonian import ModelParams, build_sector_hamiltonian, sector_elements
from isingchaos.spin_basis import MomentumBasis, momentum_basis


class DecompStore:
    """Session-wide cache of sector decompositions keyed by (N, k, lam, alpha)."""

    def __init__(self):
        self._bases: dict[tuple[int, int], MomentumBasis] = {}
        self._decomps: dict[tuple, EigenDecomposition] = {}

    def basis(self, n_sites: int, k: int) -> MomentumBasis:
        key = (n_sites, k)
        if key not in self._bases:
            self._bases[key] = momentum_basis(n_sites, k)
        return self._bases[key]

    def get(
        self, n_sites: int, k: int, lam: float = 1.0, alpha: float = 1.0, keep: bool = True
    ) -> tuple[MomentumBasis, EigenDecomposition]:
        key = (n_sites, k, lam, alpha)
        basis = self.basis(n_sites, k)
        if key in self._decomps:
            return basis, self._decomps[key]
        params = ModelParams(n_sites=n_sites, lam=lam, alpha=alpha)
        decomp = diagonalize(basis, sector_elements(basis, params), params)
        if keep:
            self._decomps[key] = decomp
        return basis, decomp

    def sector_eigenvalues(self, n_sites: int, k: int, lam: float, alpha: float) -> np.ndarray:
        basis = self.basis(n_sites, k)
        params = ModelParams(n_sites=n_sites, lam=lam, alpha=alpha)
        h = build_sector_hamiltonian(basis, params).entries
        return np.linalg.eigvalsh(0.5 * (h + h.conj().T))


@pytest.fixture(scope="session")
def store() -> DecompStore:
    return DecompStore()
