"""Monte Carlo oracle for randomized-measurement moments.

Estimates the moments by direct Haar sampling of local SU(2) rotations with
exact per-sample expectation values (no shot noise), independent of the
permutation-operator engine.  Used as the statistical cross-check of every
exact result.  One kernel, ``haar_rotations``, draws the local frames of
both samplers: per party the nine entries of the Bloch rotation R of each
Haar-random U, component-major, one contiguous row per entry over the
draws.  A Monte Carlo sample contracts the Pauli coefficients that explicit
traces read from the observable and state matrices with the 10 nonzero
entries of each party's block diag(1, R); the shot sampler in
``protocol_sim`` rotates eigenprojector Pauli rows with the same entries.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .linalg import is_hermitian, num_qubits
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


def _haar_quaternions(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """Unit quaternions from one Gaussian draw of shape ``shape + (4,)``,
    component-major: rows a, b, c, d of shape (4,) + shape.  Each norm sums
    the squares in component order, as a reduction over the draw's last
    axis does."""
    q = np.moveaxis(rng.standard_normal(shape + (4,)), -1, 0).copy()
    q /= np.sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3])
    return q


def haar_su2_batch(rng: np.random.Generator, count: int) -> np.ndarray:
    """Stack of ``count`` independent Haar-random SU(2) matrices."""
    a, b, c, d = _haar_quaternions(rng, count)
    u = np.empty((count, 2, 2), dtype=complex)
    u[:, 0, 0] = a + 1j * b
    u[:, 0, 1] = c + 1j * d
    u[:, 1, 0] = -c + 1j * d
    u[:, 1, 1] = a - 1j * b
    return u


def haar_rotations(rng: np.random.Generator, parties: int, count: int) -> np.ndarray:
    """Bloch rotations R[i, j] = tr(s_i U s_j U^dag)/2 of ``count``
    Haar-random SU(2) matrices U per party, party 0 drawn first, each from
    the draws ``haar_su2_batch`` would make.  Component-major: ``out[p, i, j]``
    is the contiguous row of R_p[i, j] over the draws, shape
    (parties, 3, 3, count).

    U = a + i v.s with v = (d, c, b) gives R = (a^2 - |v|^2) 1 + 2 v v^T - 2a [v]_x.
    """
    out = np.empty((parties, 3, 3, count))
    # one draw for every party holds the draws of one call per party
    a, b, c, d = _haar_quaternions(rng, parties, count)
    a2, b2, c2, d2 = 2.0 * a, 2.0 * b, 2.0 * c, 2.0 * d
    diag = a * a - (d * d + c * c + b * b)
    ab, ac, ad = a2 * b, a2 * c, a2 * d
    add, sub = np.add, np.subtract
    for row, (x, y, op, z) in zip(out.reshape(parties, 9, count).swapaxes(0, 1), (
            (d2, d, add, diag), (d2, c, add, ab), (d2, b, sub, ac),
            (c2, d, sub, ab), (c2, c, add, diag), (c2, b, add, ad),
            (b2, d, add, ac), (b2, c, sub, ad), (b2, b, add, diag))):
        op(np.multiply(x, y, out=row), z, out=row)
    return out


def haar_so3_batch(rng: np.random.Generator, count: int) -> np.ndarray:
    """The rotations of ``haar_rotations`` for one party, as a (count, 3, 3)
    view."""
    return haar_rotations(rng, 1, count)[0].transpose(2, 0, 1)


def _pauli_coefficients(m: np.ndarray, parties: int) -> np.ndarray:
    """tr(m s_mu) for every Pauli string mu, party 0 first, as a real
    array of shape (4,) * parties."""
    return np.real(np.einsum("sab,ba->s", pauli_strings(parties), m)).reshape((4,) * parties)


# the 10 nonzero entries (nu, mu) of a party's Bloch block diag(1, R): the
# constant 1, then R row by row as haar_rotations lays it out
_BLOCK_NU = np.array([0, 1, 1, 1, 2, 2, 2, 3, 3, 3])
_BLOCK_MU = np.array([0, 1, 2, 3, 1, 2, 3, 1, 2, 3])


def mc_moment(observable: np.ndarray, rho: np.ndarray, t: int,
              samples: int, seed: int) -> MCEstimate:
    """Plain Monte Carlo estimate of the t-th randomized-measurement moment.

    Averages tr(rho U^dag O U)^t over i.i.d. local-unitary tuples; each
    sample uses the exact expectation value, so the only randomness is the
    Haar draw.  Deterministic per seed.  Raises OverflowError when the
    t-th powers, their mean or their spread overflow float64.

    With o and r the Pauli coefficients of O and rho, a sample's value is
    2^-n sum o_nu prod_p diag(1, R_p)[nu_p, mu_p] r_mu, with no dense
    conjugation and no engine table.  Only 10 of each block's 16 entries
    are nonzero, so the weights o_nu r_mu / 2^n are kept on 10^n index
    tuples and contracted with the kernel's rows of R, party by party.
    """
    observable = np.asarray(observable, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    parties = num_qubits(rho)
    if observable.shape != rho.shape:
        raise ValueError("observable and state dimensions differ")
    if not (is_hermitian(observable, tol=1e-9) and is_hermitian(rho, tol=1e-9)):
        raise ValueError("the observable and the state must be Hermitian")
    o = _pauli_coefficients(observable, parties)
    r = _pauli_coefficients(rho, parties)
    # weights o_nu r_mu / 2^n on each party's nonzero (nu_p, mu_p) entries
    w = (o[np.ix_(*[_BLOCK_NU] * parties)] * r[np.ix_(*[_BLOCK_MU] * parties)]
         / 2**parties).reshape(-1, 10)
    rng = substream(seed, "haar_mc.mc_moment", str(t), str(samples))
    values = np.empty(samples)
    # draw in fixed-size blocks so memory stays bounded at large sample counts
    block = 20000
    done = 0
    while done < samples:
        n = min(block, samples - done)
        rows = haar_rotations(rng, parties, n).reshape(parties, 9, n)
        # contract the last party first, then peel the others off; entry 0
        # of each block is the constant 1
        acc = w[:, 1:] @ rows[-1] + w[:, :1]
        for p in range(parties - 2, -1, -1):
            acc = acc.reshape(-1, 10, n)
            acc = acc[:, 0] + np.einsum("kan,an->kn", acc[:, 1:], rows[p])
        with np.errstate(over="ignore"):
            values[done:done + n] = acc[0] ** t
        done += n
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(values))
        stderr = float(np.std(values, ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0
    if not np.all(np.isfinite([mean, stderr])):
        raise OverflowError(f"t-th powers of the samples overflow float64 at t={t}")
    return MCEstimate(mean=mean, stderr=stderr, samples=samples, seed=seed)
