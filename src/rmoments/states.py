"""Two- and three-qubit states: Bloch form, conversions, sampling, negativity.

The Bloch decomposition used throughout:

* two qubits:
  ``rho = (1/4)[1 + alpha.sigma x 1 + 1 x beta.sigma + sum_jk T_jk s_j x s_k]``
* three qubits: local vectors ``alpha, beta, gamma``, pair correlation
  matrices ``TAB, TBC, TCA`` and the three-body tensor ``W``.

Each record class states these conventions once, in its ``LAYOUT`` table:
every block's name, its index into the (4,)^n Pauli transfer tensor
R[mu, nu, ...] = tr(rho s_mu x s_nu x ...), its shape, and whether R holds
it transposed.  Only ``TCA`` is: ``TCA[j, k]`` multiplies
``sigma_k x 1 x sigma_j`` (row index on the third party, column index on
the first).  Every conversion below reads that table, for both party counts.

Non-physical Bloch records are first-class values: moments and invariants
remain well defined for them, and fitting uses them deliberately.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import (
    HERMITICITY_TOL,
    DimensionError,
    eigvalsh,
    is_hermitian,
    kron_all,
    num_qubits,
    partial_transpose,
)
from .paulis import PAULIS
from .rng import substream


class BlochRecord:
    """Bloch record of an n-qubit operator with unit trace.

    A subclass is a dataclass with one field per block and declares
    ``parties`` and ``LAYOUT``, rows (name, index into the transfer tensor,
    shape, transposed) in field order.
    """

    parties: int
    LAYOUT: tuple

    def __post_init__(self):
        for name, _, shape, _ in self.LAYOUT:
            setattr(self, name, np.asarray(getattr(self, name), dtype=float).reshape(shape))

    def copy(self):
        return type(self)(*(getattr(self, name).copy() for name, *_ in self.LAYOUT))


@dataclass
class TwoQubitState(BlochRecord):
    """Bloch record of a two-qubit operator with unit trace."""

    alpha: np.ndarray
    beta: np.ndarray
    T: np.ndarray

    parties = 2
    LAYOUT = (
        ("alpha", np.s_[1:, 0], (3,), False),
        ("beta", np.s_[0, 1:], (3,), False),
        ("T", np.s_[1:, 1:], (3, 3), False),
    )


@dataclass
class ThreeQubitState(BlochRecord):
    """Bloch record of a three-qubit operator with unit trace."""

    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    TAB: np.ndarray
    TBC: np.ndarray
    TCA: np.ndarray
    W: np.ndarray

    parties = 3
    LAYOUT = (
        ("alpha", np.s_[1:, 0, 0], (3,), False),
        ("beta", np.s_[0, 1:, 0], (3,), False),
        ("gamma", np.s_[0, 0, 1:], (3,), False),
        ("TAB", np.s_[1:, 1:, 0], (3, 3), False),
        ("TBC", np.s_[0, 1:, 1:], (3, 3), False),
        ("TCA", np.s_[1:, 0, 1:], (3, 3), True),
        ("W", np.s_[1:, 1:, 1:], (3, 3, 3), False),
    )


#: record class per party count
RECORDS = {cls.parties: cls for cls in (TwoQubitState, ThreeQubitState)}


def pauli_transfer(rho: np.ndarray) -> np.ndarray:
    """Correlation tensor R with R[mu, nu, ...] = tr(rho s_mu x s_nu x ...).

    Shape (4,)*n for an n-qubit density matrix; R[0, 0, ...] = tr(rho).
    """
    rho = np.asarray(rho, dtype=complex)
    n = num_qubits(rho)
    if n not in (2, 3):
        raise DimensionError(f"expected 2 or 3 qubits, got {n}")
    t = rho.reshape((2,) * (2 * n))
    # Contract each qubit's (row, col) index pair with the Pauli stack.
    # After q contractions the axes are (mu_q, .., mu_1, r_{q+1}.., c_{q+1}..),
    # so the next row axis sits at position q and the next column axis at n.
    for q in range(n):
        t = np.tensordot(PAULIS, t, axes=[(1, 2), (n, q)])
    # axes are now (mu_n, ..., mu_1); restore party order
    return np.real(np.transpose(t, axes=tuple(range(n - 1, -1, -1))))


def bloch_from_density(rho: np.ndarray):
    """Extract the Bloch record of a 4x4 or 8x8 unit-trace operator."""
    r = pauli_transfer(rho)
    cls = RECORDS[r.ndim]
    return cls(*(r[index].T if transposed else r[index] for _, index, _, transposed in cls.LAYOUT))


def transfer_from_bloch(state) -> np.ndarray:
    """Inverse of the Bloch extraction: full (4,)*n correlation tensor."""
    r = np.zeros((4,) * state.parties)
    r[(0,) * state.parties] = 1.0
    for name, index, _, transposed in state.LAYOUT:
        block = getattr(state, name)
        r[index] = block.T if transposed else block
    return r


def density_from_bloch(state) -> np.ndarray:
    """Reconstruct the (Hermitian, unit-trace) matrix of a Bloch record."""
    r = transfer_from_bloch(state)
    n = r.ndim
    rho = np.zeros((2**n, 2**n), dtype=complex)
    for idx in np.ndindex(r.shape):
        if r[idx] != 0.0:
            rho += r[idx] * kron_all([PAULIS[mu] for mu in idx])
    return rho / 2**n


def random_state(kind: str, qubits: int, seed: int) -> np.ndarray:
    """Random density matrix, deterministic per seed.

    ``pure`` draws a Haar-random ket; ``mixed`` draws from the
    Hilbert-Schmidt (Ginibre) ensemble, normalized G G^dag.
    """
    if qubits not in (2, 3):
        raise DimensionError("only 2- and 3-qubit states are supported")
    if kind not in ("pure", "mixed"):
        raise ValueError(f"kind must be 'pure' or 'mixed', got {kind!r}")
    dim = 2**qubits
    rng = substream(seed, "states.random_state", kind, str(qubits))
    if kind == "pure":
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi /= np.linalg.norm(psi)
        return np.outer(psi, psi.conj())
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_bloch_record(qubits: int, rng: np.random.Generator):
    """Bloch record with entries uniform in [-1, 1]; generally non-physical.

    Used as fitting input: polynomial identities in the Bloch data do not
    require positivity, and these records give well-conditioned designs.
    """
    if qubits not in RECORDS:
        raise DimensionError("only 2- and 3-qubit records are supported")
    cls = RECORDS[qubits]
    return cls(*(rng.uniform(-1.0, 1.0, shape) for _, _, shape, _ in cls.LAYOUT))


def partial_transpose_bloch(state: TwoQubitState, party: int = 2) -> TwoQubitState:
    """Partial transpose in Bloch form: the y components of the chosen
    party flip sign (sigma_y is the only imaginary Pauli)."""
    out = state.copy()
    if party == 1:
        out.alpha[1] *= -1.0
        out.T[1, :] *= -1.0
    elif party == 2:
        out.beta[1] *= -1.0
        out.T[:, 1] *= -1.0
    else:
        raise ValueError("party must be 1 or 2")
    return out


def negativity(rho: np.ndarray) -> float:
    """(sum |eigenvalues of rho^{T2}| - 1) / 2, a faithful two-qubit
    entanglement measure; 0 for separable states, 1/2 for Bell states."""
    rho = np.asarray(rho)
    if num_qubits(rho) != 2:
        raise DimensionError("negativity is implemented for two-qubit states")
    eigs = eigvalsh(partial_transpose(rho, 2))
    return float((np.sum(np.abs(eigs)) - 1.0) / 2.0)


def bell_state() -> np.ndarray:
    """Projector onto (|00> + |11>)/sqrt(2)."""
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1.0 / np.sqrt(2.0)
    return np.outer(psi, psi.conj())


def ghz_state() -> np.ndarray:
    """Projector onto (|000> + |111>)/sqrt(2)."""
    psi = np.zeros(8, dtype=complex)
    psi[0] = psi[7] = 1.0 / np.sqrt(2.0)
    return np.outer(psi, psi.conj())


def maximally_mixed(qubits: int) -> np.ndarray:
    dim = 2**qubits
    return np.eye(dim, dtype=complex) / dim


# ---------------------------------------------------------------------------
# JSON interchange format
# ---------------------------------------------------------------------------

def state_to_json(state) -> dict:
    if isinstance(state, BlochRecord):
        doc = {"qubits": state.parties}
        doc.update((name, getattr(state, name).tolist()) for name, *_ in state.LAYOUT)
        return doc
    rho = np.asarray(state, dtype=complex)
    return {
        "qubits": num_qubits(rho),
        "matrix": [[[z.real, z.imag] for z in row] for row in rho],
    }


def state_from_json(doc: dict):
    """Parse either Bloch form or the density-matrix alternative.

    Returns a TwoQubitState or ThreeQubitState; density-matrix input must
    be Hermitian with unit trace and is converted through the Bloch
    extraction.
    """
    if "matrix" in doc:
        raw = np.asarray(doc["matrix"], dtype=float)
        if raw.ndim != 3 or raw.shape[2] != 2 or raw.shape[0] != raw.shape[1]:
            raise ValueError("matrix must be square with [re, im] entries")
        rho = raw[..., 0] + 1j * raw[..., 1]
        # the Bloch record keeps only the real parts of tr(rho P) and
        # drops tr(rho), so neither defect would show in the result
        if not is_hermitian(rho):
            raise ValueError("matrix must be Hermitian")
        if abs(np.trace(rho) - 1.0) > HERMITICITY_TOL:
            raise ValueError("matrix must have unit trace")
        return bloch_from_density(rho)
    qubits = doc.get("qubits", 2)
    # no int(): it would read 2.7 as 2
    if qubits not in RECORDS:
        raise ValueError(f"unsupported qubit count {qubits!r}")
    cls = RECORDS[qubits]
    return cls(*(doc[name] for name, *_ in cls.LAYOUT))
