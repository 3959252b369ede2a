"""Monte Carlo oracle for randomized-measurement moments.

Estimates the moments by direct Haar sampling of local SU(2) rotations with
exact per-sample expectation values (no shot noise), independent of the
permutation-operator engine.  Used as the statistical cross-check of every
exact result.  One tile kernel, ``_rotation_rows``, turns a Gaussian draw
into the local frames of both samplers: per party the nine entries of the
Bloch rotation R of each Haar-random U, component-major, one contiguous row
per entry over the draws.  ``haar_rotations`` runs it over a whole draw for
the shot sampler in ``protocol_sim``, which rotates eigenprojector Pauli
rows with the entries.  ``mc_moment`` runs it on tiles of at most ``TILE``
draws and, while a tile is in cache, contracts the Pauli coefficients that
explicit traces read from the observable and state matrices with the 10
nonzero entries of each party's block diag(1, R) and raises the samples to
the t-th power.
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


def _unit_quaternions(draw: np.ndarray) -> np.ndarray:
    """Unit quaternions from a Gaussian draw of shape ``shape + (4,)``,
    component-major: rows a, b, c, d of shape (4,) + shape.  Each norm sums
    the squares in component order, as a reduction over the draw's last
    axis does."""
    q = np.moveaxis(draw, -1, 0).copy()
    q /= np.sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3])
    return q


def haar_su2_batch(rng: np.random.Generator, count: int) -> np.ndarray:
    """Stack of ``count`` independent Haar-random SU(2) matrices."""
    a, b, c, d = _unit_quaternions(rng.standard_normal((count, 4)))
    u = np.empty((count, 2, 2), dtype=complex)
    u[:, 0, 0] = a + 1j * b
    u[:, 0, 1] = c + 1j * d
    u[:, 1, 0] = -c + 1j * d
    u[:, 1, 1] = a - 1j * b
    return u


# draws per tile of mc_moment and copies per block of the drifted shot
# sampler: a two-party tile's rotation rows (590 kB) and contraction stay in
# a 2 MB L2 cache
TILE = 4096


def _rotation_rows(draw: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Bloch rotations R[i, j] = tr(s_i U s_j U^dag)/2 of the Haar-random
    SU(2) matrices U given by a Gaussian draw of shape (parties, n, 4),
    written row by row to ``out``, shape (parties, 9, n): ``out[p, 3i + j]``
    is the row of R_p[i, j] over the draws.  Returns ``out``.  Every entry is
    elementwise in the draws, so a slice of a draw gives the same bytes as
    the whole.

    U = a + i v.s with v = (d, c, b) gives R = (a^2 - |v|^2) 1 + 2 v v^T - 2a [v]_x.
    """
    a, b, c, d = _unit_quaternions(draw)
    a2, b2, c2, d2 = 2.0 * a, 2.0 * b, 2.0 * c, 2.0 * d
    diag = a * a - (d * d + c * c + b * b)
    ab, ac, ad = a2 * b, a2 * c, a2 * d
    add, sub = np.add, np.subtract
    for row, (x, y, op, z) in zip(out.swapaxes(0, 1), (
            (d2, d, add, diag), (d2, c, add, ab), (d2, b, sub, ac),
            (c2, d, sub, ab), (c2, c, add, diag), (c2, b, add, ad),
            (b2, d, add, ac), (b2, c, sub, ad), (b2, b, add, diag))):
        op(np.multiply(x, y, out=row), z, out=row)
    return out


def haar_rotations(rng: np.random.Generator, parties: int, count: int) -> np.ndarray:
    """Bloch rotations of ``count`` Haar-random SU(2) matrices per party,
    party 0 drawn first, each from the draws ``haar_su2_batch`` would make.
    Component-major: ``out[p, i, j]`` is the contiguous row of R_p[i, j]
    over the draws, shape (parties, 3, 3, count).
    """
    out = np.empty((parties, 3, 3, count))
    # one draw for every party holds the draws of one call per party
    _rotation_rows(rng.standard_normal((parties, count, 4)), out.reshape(parties, 9, count))
    return out


def _pauli_coefficients(m: np.ndarray, parties: int) -> np.ndarray:
    """tr(m s_mu) for every Pauli string mu, party 0 first, as a real
    array of shape (4,) * parties."""
    return np.real(np.einsum("sab,ba->s", pauli_strings(parties), m)).reshape((4,) * parties)


# the 10 nonzero entries (nu, mu) of a party's Bloch block diag(1, R): the
# constant 1, then R row by row as haar_rotations lays it out
_BLOCK_NU = np.array([0, 1, 1, 1, 2, 2, 2, 3, 3, 3])
_BLOCK_MU = np.array([0, 1, 2, 3, 1, 2, 3, 1, 2, 3])


def _power(x: np.ndarray, t: int) -> np.ndarray:
    """x ** t for an integer t >= 1 by square-and-multiply: about 2 log2(t)
    products per value and no call to libm ``pow``, which is slow on
    negative bases.  Each product rounds once, so the result is within about
    t units in the last place of x ** t.  No partial product exceeds |x|^t in
    size, so it overflows to +-inf where x ** t does, apart from values
    within that rounding of the largest float."""
    out = None
    while True:
        if t & 1:
            out = x if out is None else out * x
        t >>= 1
        if not t:
            return out
        x = x * x


def mc_moment(observable: np.ndarray, rho: np.ndarray, t: int,
              samples: int, seed: int) -> MCEstimate:
    """Plain Monte Carlo estimate of the t-th randomized-measurement moment.

    Averages tr(rho U^dag O U)^t over i.i.d. local-unitary tuples; each
    sample uses the exact expectation value, so the only randomness is the
    Haar draw.  Deterministic per seed.  Raises ValueError for t < 1 or
    samples < 1, and OverflowError when the t-th powers, their mean or their
    spread overflow float64.

    With o and r the Pauli coefficients of O and rho, a sample's value is
    2^-n sum o_nu prod_p diag(1, R_p)[nu_p, mu_p] r_mu, with no dense
    conjugation and no engine table.  Only 10 of each block's 16 entries
    are nonzero, so the weights o_nu r_mu / 2^n are kept on 10^n index
    tuples and contracted with the kernel's rows of R, party by party.  The
    Gaussian draws come in blocks of 20,000 per party; each block is
    rotated, contracted and powered in tiles of at most ``TILE`` draws
    through reused buffers.
    """
    if t < 1 or samples < 1:
        raise ValueError(f"t and samples must be >= 1, got t={t}, samples={samples}")
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
    # reused per tile: the rotation rows, and the last party's contraction,
    # 10^(parties - 1) rows that would otherwise be a fresh array (3.3 MB at
    # three parties) whose pages fault in again on every tile
    rows_buffer, acc_buffer = np.empty(parties * 9 * TILE), np.empty(len(w) * TILE)
    # draw in fixed-size blocks so memory stays bounded at large sample counts
    block = 20000
    for start in range(0, samples, block):
        draw = rng.standard_normal((parties, min(block, samples - start), 4))
        for lo in range(0, draw.shape[1], TILE):
            n = min(TILE, draw.shape[1] - lo)
            rows = _rotation_rows(draw[:, lo:lo + n],
                                  rows_buffer[:parties * 9 * n].reshape(parties, 9, n))
            # contract the last party first, then peel the others off; entry
            # 0 of each block is the constant 1
            acc = np.matmul(w[:, 1:], rows[-1], out=acc_buffer[:len(w) * n].reshape(-1, n))
            acc += w[:, :1]
            for p in range(parties - 2, -1, -1):
                acc = acc.reshape(-1, 10, n)
                acc = acc[:, 0] + np.einsum("kan,an->kn", acc[:, 1:], rows[p])
            with np.errstate(over="ignore"):
                values[start + lo:start + lo + n] = _power(acc[0], t)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(values))
        stderr = float(np.std(values, ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0
    if not np.all(np.isfinite([mean, stderr])):
        raise OverflowError(f"t-th powers of the samples overflow float64 at t={t}")
    return MCEstimate(mean=mean, stderr=stderr, samples=samples, seed=seed)
