"""Dense geometric-inversion operator, built state by state as a test oracle.

The eigensolver labels k = 0 and k = N/2 eigenstates by inversion parity
from the sector's vectorized symmetry map; this module rebuilds the
inversion independently, from ``reflect`` and ``rotate_left`` on each
representative, so the labels can be checked against P v = parity v.
"""

import numpy as np

from isingchaos.spin_basis import MomentumBasis
from oracles import reflect, rotate_left


def inversion_matrix(basis: MomentumBasis) -> np.ndarray:
    """Geometric inversion in the sector basis (k = 0 or N/2 only).

    P e_i = phase e_j, where j is the state of the orbit holding the
    reflected representative and the phase is that of the shift locating it
    in its orbit: 1 at k = 0, (-1)^shift at k = N/2.
    """
    n, k = basis.n_sites, basis.k
    if not (k == 0 or 2 * k == n):
        raise ValueError("inversion maps k to N-k; only k=0 and k=N/2 stay put")
    reps = basis.reps.tolist()
    index_of_rep = {r: i for i, r in enumerate(reps)}
    mat = np.zeros((basis.dim, basis.dim), dtype=np.complex128)
    for i, r in enumerate(reps):
        image = reflect(r, n)
        orbit = [rotate_left(image, n, s) for s in range(n)]
        rep = min(orbit)
        shift = next(s for s in range(n) if rotate_left(rep, n, s) == image)
        mat[index_of_rep[rep], i] = 1.0 if k == 0 else float((-1) ** shift)
    return mat
