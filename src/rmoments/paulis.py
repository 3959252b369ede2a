"""Pauli matrices and the Pauli strings of qubit registers.

Index convention throughout the package: 0 = identity, 1 = x, 2 = y, 3 = z.
"""

from functools import lru_cache
from itertools import product

import numpy as np

from .linalg import kron_all

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY = np.eye(2, dtype=complex)

# PAULIS[mu] is the mu-th Pauli matrix, mu in {0, 1, 2, 3}.
PAULIS = np.stack([IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z])

# Orthonormal Hermitian basis {1/sqrt(2), sigma_x/sqrt(2), ...} with respect
# to the Hilbert-Schmidt inner product tr(A B).
PAULIS_NORMALIZED = PAULIS / np.sqrt(2.0)


@lru_cache(maxsize=None)
def pauli_strings(n: int) -> np.ndarray:
    """The 4^n Kronecker products s_mu1 x ... x s_mun, party 0 first, as a
    read-only stack of shape (4^n, 2^n, 2^n)."""
    out = np.array([kron_all(f) for f in product(PAULIS, repeat=n)])
    out.flags.writeable = False
    return out
