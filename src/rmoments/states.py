"""Two- and three-qubit states: Bloch form, conversions, sampling, negativity.

The Bloch decomposition used throughout:

* two qubits:
  ``rho = (1/4)[1 + alpha.sigma x 1 + 1 x beta.sigma + sum_jk T_jk s_j x s_k]``
* three qubits: local vectors ``alpha, beta, gamma``, pair correlation
  matrices ``TAB, TBC, TCA`` and the three-body tensor ``W``, where
  ``TCA[j, k]`` multiplies ``sigma_k x 1 x sigma_j`` (row index on the third
  party, column index on the first).

Non-physical Bloch records are first-class values: moments and invariants
remain well defined for them, and fitting uses them deliberately.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import DimensionError, eigvalsh, kron_all, num_qubits, partial_transpose
from .paulis import PAULIS
from .rng import substream


@dataclass
class TwoQubitState:
    """Bloch record of a two-qubit operator with unit trace."""

    alpha: np.ndarray
    beta: np.ndarray
    T: np.ndarray

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float).reshape(3)
        self.beta = np.asarray(self.beta, dtype=float).reshape(3)
        self.T = np.asarray(self.T, dtype=float).reshape(3, 3)

    def copy(self) -> "TwoQubitState":
        return TwoQubitState(self.alpha.copy(), self.beta.copy(), self.T.copy())


@dataclass
class ThreeQubitState:
    """Bloch record of a three-qubit operator with unit trace."""

    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    TAB: np.ndarray
    TBC: np.ndarray
    TCA: np.ndarray
    W: np.ndarray

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float).reshape(3)
        self.beta = np.asarray(self.beta, dtype=float).reshape(3)
        self.gamma = np.asarray(self.gamma, dtype=float).reshape(3)
        self.TAB = np.asarray(self.TAB, dtype=float).reshape(3, 3)
        self.TBC = np.asarray(self.TBC, dtype=float).reshape(3, 3)
        self.TCA = np.asarray(self.TCA, dtype=float).reshape(3, 3)
        self.W = np.asarray(self.W, dtype=float).reshape(3, 3, 3)

    def copy(self) -> "ThreeQubitState":
        return ThreeQubitState(
            self.alpha.copy(), self.beta.copy(), self.gamma.copy(),
            self.TAB.copy(), self.TBC.copy(), self.TCA.copy(), self.W.copy(),
        )


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
    if r.ndim == 2:
        return TwoQubitState(alpha=r[1:, 0], beta=r[0, 1:], T=r[1:, 1:])
    return ThreeQubitState(
        alpha=r[1:, 0, 0],
        beta=r[0, 1:, 0],
        gamma=r[0, 0, 1:],
        TAB=r[1:, 1:, 0],
        TBC=r[0, 1:, 1:],
        TCA=r[1:, 0, 1:].T,  # row index on party C, column on party A
        W=r[1:, 1:, 1:],
    )


def transfer_from_bloch(state) -> np.ndarray:
    """Inverse of the Bloch extraction: full (4,)*n correlation tensor."""
    if isinstance(state, TwoQubitState):
        r = np.zeros((4, 4))
        r[0, 0] = 1.0
        r[1:, 0] = state.alpha
        r[0, 1:] = state.beta
        r[1:, 1:] = state.T
        return r
    r = np.zeros((4, 4, 4))
    r[0, 0, 0] = 1.0
    r[1:, 0, 0] = state.alpha
    r[0, 1:, 0] = state.beta
    r[0, 0, 1:] = state.gamma
    r[1:, 1:, 0] = state.TAB
    r[0, 1:, 1:] = state.TBC
    r[1:, 0, 1:] = state.TCA.T
    r[1:, 1:, 1:] = state.W
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
    u = lambda *shape: rng.uniform(-1.0, 1.0, shape)
    if qubits == 2:
        return TwoQubitState(alpha=u(3), beta=u(3), T=u(3, 3))
    if qubits == 3:
        return ThreeQubitState(
            alpha=u(3), beta=u(3), gamma=u(3),
            TAB=u(3, 3), TBC=u(3, 3), TCA=u(3, 3), W=u(3, 3, 3),
        )
    raise DimensionError("only 2- and 3-qubit records are supported")


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
    if isinstance(state, TwoQubitState):
        return {
            "qubits": 2,
            "alpha": state.alpha.tolist(),
            "beta": state.beta.tolist(),
            "T": state.T.tolist(),
        }
    if isinstance(state, ThreeQubitState):
        return {
            "qubits": 3,
            "alpha": state.alpha.tolist(),
            "beta": state.beta.tolist(),
            "gamma": state.gamma.tolist(),
            "TAB": state.TAB.tolist(),
            "TBC": state.TBC.tolist(),
            "TCA": state.TCA.tolist(),
            "W": state.W.tolist(),
        }
    rho = np.asarray(state, dtype=complex)
    return {
        "qubits": num_qubits(rho),
        "matrix": [[[z.real, z.imag] for z in row] for row in rho],
    }


def state_from_json(doc: dict):
    """Parse either Bloch form or the density-matrix alternative.

    Returns a TwoQubitState or ThreeQubitState; density-matrix input is
    converted through the Bloch extraction.
    """
    if "matrix" in doc:
        raw = np.asarray(doc["matrix"], dtype=float)
        if raw.ndim != 3 or raw.shape[2] != 2 or raw.shape[0] != raw.shape[1]:
            raise ValueError("matrix must be square with [re, im] entries")
        rho = raw[..., 0] + 1j * raw[..., 1]
        return bloch_from_density(rho)
    qubits = int(doc.get("qubits", 2))
    if qubits == 2:
        return TwoQubitState(alpha=doc["alpha"], beta=doc["beta"], T=doc["T"])
    if qubits == 3:
        return ThreeQubitState(
            alpha=doc["alpha"], beta=doc["beta"], gamma=doc["gamma"],
            TAB=doc["TAB"], TBC=doc["TBC"], TCA=doc["TCA"], W=doc["W"],
        )
    raise ValueError(f"unsupported qubit count {qubits}")
