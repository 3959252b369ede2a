"""Dense complex matrix kernel shared by all modules.

Thin, well-tested wrappers around numpy: Kronecker products, partial
transposition on qubit factors, Hermitian checks and null spaces.
"""

import numpy as np

HERMITICITY_TOL = 1e-12
NULLSPACE_RCOND = 1e-9   # singular values below this fraction of the largest count as zero


class DimensionError(ValueError):
    """Operand dimensions are incompatible or not a qubit register."""


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; dimensions multiply."""
    return np.kron(np.asarray(a), np.asarray(b))


def kron_all(mats) -> np.ndarray:
    out = np.asarray(mats[0])
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def is_hermitian(m: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    m = np.asarray(m)
    return m.shape[0] == m.shape[1] and np.max(np.abs(m - m.conj().T)) <= tol


def num_qubits(m: np.ndarray) -> int:
    """Number of qubit factors of a square matrix, or raise DimensionError."""
    n = m.shape[0]
    if m.ndim != 2 or m.shape[1] != n:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    k = int(round(np.log2(n)))
    if 2**k != n:
        raise DimensionError(f"dimension {n} is not a power of 2")
    return k


def partial_transpose(m: np.ndarray, subsystem: int) -> np.ndarray:
    """Transpose the indices of one qubit factor only.

    ``subsystem`` is 1-based and counts qubit factors from the left.  The
    operation is an involution and maps product states to product states.
    """
    m = np.asarray(m)
    k = num_qubits(m)
    if not 1 <= subsystem <= k:
        raise DimensionError(f"subsystem {subsystem} out of range for {k} qubits")
    t = m.reshape((2,) * (2 * k))
    row = subsystem - 1
    col = k + subsystem - 1
    t = np.swapaxes(t, row, col)
    return t.reshape(m.shape)


def nullspace(g: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space, one column per basis vector."""
    g = np.asarray(g, dtype=float)
    _, s, vt = np.linalg.svd(g)
    rank = int(np.sum(s > NULLSPACE_RCOND * s[0])) if s.size else 0
    return vt[rank:].T


def eigvalsh(m: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(np.asarray(m))
