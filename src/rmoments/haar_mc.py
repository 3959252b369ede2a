"""Monte Carlo oracle for randomized-measurement moments.

Estimates the moments by direct Haar sampling of local SU(2) rotations with
exact per-sample expectation values (no shot noise), independent of the
permutation-operator engine.  Used as the statistical cross-check of every
exact result.  A sample acts on Bloch data: party p's rotation is the real
4x4 block diag(1, R_p), R_p the 3x3 rotation of its quaternion, contracted
with the Pauli coefficients that explicit traces read from the observable
and state matrices.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .linalg import num_qubits
from .paulis import pauli_strings
from .rng import substream


@dataclass
class MCEstimate:
    mean: float
    stderr: float
    samples: int
    seed: int

    def as_dict(self) -> dict:
        return asdict(self)


def haar_su2(rng: np.random.Generator) -> np.ndarray:
    """Haar-random SU(2) element via a normalized Gaussian quaternion.

    The unit quaternion (a, b, c, d) maps to
    [[a + ib, c + id], [-c + id, a - ib]], which has determinant
    a^2 + b^2 + c^2 + d^2 = 1 exactly.
    """
    return haar_su2_batch(rng, 1)[0]


def _haar_quaternions(rng: np.random.Generator, count: int) -> np.ndarray:
    q = rng.standard_normal((count, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    return q


def haar_su2_batch(rng: np.random.Generator, count: int) -> np.ndarray:
    """Stack of ``count`` independent Haar-random SU(2) matrices."""
    a, b, c, d = _haar_quaternions(rng, count).T
    u = np.empty((count, 2, 2), dtype=complex)
    u[:, 0, 0] = a + 1j * b
    u[:, 0, 1] = c + 1j * d
    u[:, 1, 0] = -c + 1j * d
    u[:, 1, 1] = a - 1j * b
    return u


def haar_so3_batch(rng: np.random.Generator, count: int) -> np.ndarray:
    """Bloch rotations R[i, j] = tr(s_i U s_j U^dag)/2 of the matrices U that
    ``haar_su2_batch`` draws from the same generator state: U = a + i v.s
    with v = (d, c, b) gives R = (a^2 - |v|^2) 1 + 2 v v^T - 2a [v]_x."""
    a, b, c, d = _haar_quaternions(rng, count).T
    a2, b2, c2, d2 = 2.0 * a, 2.0 * b, 2.0 * c, 2.0 * d
    diag = a * a - (d * d + c * c + b * b)
    return np.stack([d2 * d + diag, d2 * c + a2 * b, d2 * b - a2 * c,
                     c2 * d - a2 * b, c2 * c + diag, c2 * b + a2 * d,
                     b2 * d + a2 * c, b2 * c - a2 * d, b2 * b + diag], axis=1).reshape(count, 3, 3)


def haar_bloch_blocks(rng: np.random.Generator, parties: int, count: int) -> np.ndarray:
    """Real 4x4 blocks diag(1, R) of ``count`` Haar-random Bloch rotations
    per party, party 0 drawn first, shape (parties, count, 4, 4)."""
    out = np.zeros((parties, count, 4, 4))
    out[:, :, 0, 0] = 1.0
    for p in range(parties):
        out[p, :, 1:, 1:] = haar_so3_batch(rng, count)
    return out


def _pauli_coefficients(m: np.ndarray, parties: int) -> np.ndarray:
    """tr(m s_mu) for every Pauli string mu, party 0 first, as a real
    array of shape (4,) * parties."""
    return np.real(np.einsum("sab,ba->s", pauli_strings(parties), m)).reshape((4,) * parties)


def mc_moment(observable: np.ndarray, rho: np.ndarray, t: int,
              samples: int, seed: int) -> MCEstimate:
    """Plain Monte Carlo estimate of the t-th randomized-measurement moment.

    Averages tr(rho U^dag O U)^t over i.i.d. local-unitary tuples; each
    sample uses the exact expectation value, so the only randomness is the
    Haar draw.  Deterministic per seed.

    With o and r the Pauli coefficients of O and rho, a sample's value is
    2^-n sum o_nu prod_p diag(1, R_p)[nu_p, mu_p] r_mu: per party one 4x4
    real rotation in place of a dense conjugation, and no engine table.
    """
    observable = np.asarray(observable, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    parties = num_qubits(rho)
    if observable.shape != rho.shape:
        raise ValueError("observable and state dimensions differ")
    o = _pauli_coefficients(observable, parties)
    r = _pauli_coefficients(rho, parties)
    # pair each party's (nu_p, mu_p) into one index of length 16
    order = [ax for p in range(parties) for ax in (p, parties + p)]
    w = (np.multiply.outer(o, r) / 2**parties).transpose(order).reshape(-1, 16)
    rng = substream(seed, "haar_mc.mc_moment", str(t), str(samples))
    values = np.empty(samples)
    # draw in fixed-size blocks so memory stays bounded at large sample counts
    block = 20000
    done = 0
    while done < samples:
        n = min(block, samples - done)
        rots = haar_bloch_blocks(rng, parties, n).reshape(parties, n, 16)
        # contract the last party first, then peel the others off
        acc = rots[-1] @ w.T
        for p in range(parties - 2, -1, -1):
            acc = np.einsum("kij,kj->ki", acc.reshape(n, -1, 16), rots[p])
        values[done:done + n] = acc[:, 0] ** t
        done += n
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0
    return MCEstimate(mean=mean, stderr=stderr, samples=samples, seed=seed)
