"""Observable representations and tensor-rank classification.

The operator Schmidt decomposition of a bipartite observable is computed by
realigning it over the orthonormal Hermitian basis {1, sx, sy, sz}/sqrt(2)
and taking a real SVD; the singular value count is the tensor rank, which
equals the number of local measurement settings a randomized protocol must
cycle through per random frame.
"""

from dataclasses import dataclass, field

import numpy as np

from .haar_mc import haar_su2
from .linalg import is_hermitian, kron
from .paulis import PAULIS, PAULIS_NORMALIZED

RANK_TOL = 1e-9


@dataclass
class SchmidtObservable:
    """Bipartite observable O = sum_j s_j A_j x B_j with orthonormal
    Hermitian factor lists and positive weights sorted descending."""

    s: np.ndarray
    A: list
    B: list

    @property
    def rank(self) -> int:
        return len(self.s)

    def matrix(self) -> np.ndarray:
        return dense_from_terms(list(zip(self.A, self.B)), self.s, 2)

    def is_symmetric(self) -> bool:
        return all(np.max(np.abs(a - b)) <= 1e-10 for a, b in zip(self.A, self.B))


@dataclass
class TripartiteObservable:
    """Three-party observable as a list of weighted product terms.

    Factor lists are not required to be orthonormal: tensor rank is not
    computed for three parties.
    """

    terms: list  # list of (A, B, C) Hermitian 2x2 triples
    weights: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.weights is None:
            self.weights = np.ones(len(self.terms))
        self.weights = np.asarray(self.weights, dtype=float)

    def matrix(self) -> np.ndarray:
        return dense_from_terms(self.terms, self.weights, 3)


#: kron(P_mu, P_nu) of the normalized Pauli basis, at [mu, nu]
_PAULI_PAIRS = np.array([[kron(a, b) for b in PAULIS_NORMALIZED] for a in PAULIS_NORMALIZED])


def realign(o: np.ndarray) -> np.ndarray:
    """4x4 real coefficient matrix of O over the normalized Pauli basis."""
    o = np.asarray(o, dtype=complex)
    return np.real(np.trace(o @ _PAULI_PAIRS, axis1=-2, axis2=-1))


def schmidt_decompose(o: np.ndarray, rank_tolerance: float = RANK_TOL) -> SchmidtObservable:
    """Operator Schmidt decomposition of a Hermitian 4x4 observable.

    Factors come out Hermitian automatically (real combinations of the
    Hermitian basis).  The sign gauge fixes the largest-magnitude basis
    coordinate of each A_j to be positive; decompositions are only defined
    up to such gauges, so tests should compare reconstructions, not factors.
    """
    o = np.asarray(o, dtype=complex)
    if o.shape != (4, 4) or not is_hermitian(o):
        raise ValueError("schmidt_decompose expects a Hermitian 4x4 matrix")
    c = realign(o)
    u, s, vt = np.linalg.svd(c)
    cutoff = rank_tolerance * (s[0] if s[0] > 0 else 1.0)
    keep = int(np.sum(s > cutoff))
    a_list, b_list = [], []
    for j in range(keep):
        uj, vj = u[:, j].copy(), vt[j, :].copy()
        k = int(np.argmax(np.abs(uj)))
        if uj[k] < 0:
            uj, vj = -uj, -vj
        a_list.append(np.tensordot(uj, PAULIS_NORMALIZED, axes=(0, 0)))
        b_list.append(np.tensordot(vj, PAULIS_NORMALIZED, axes=(0, 0)))
    return SchmidtObservable(s=s[:keep].copy(), A=a_list, B=b_list)


def traceless_projection(a: np.ndarray) -> np.ndarray:
    """Coordinates (tr(A sigma_j / sqrt 2))_j; kills the identity component."""
    a = np.asarray(a, dtype=complex)
    return np.array([np.real(np.trace(a @ PAULIS_NORMALIZED[j])) for j in (1, 2, 3)])


def det_prefactor(obs: SchmidtObservable) -> float:
    """Coefficient of det(T) in the third moment of obs: det(M_A M_B^T)/8
    with M columns sqrt(s_j) times the traceless projections.

    Vanishes whenever the rank is at most 2, since M_A M_B^T is then
    singular.
    """
    if obs.rank == 0:
        return 0.0
    root_s = np.sqrt(obs.s)
    ma = np.column_stack([root_s[j] * traceless_projection(obs.A[j]) for j in range(obs.rank)])
    mb = np.column_stack([root_s[j] * traceless_projection(obs.B[j]) for j in range(obs.rank)])
    return float(np.linalg.det(ma @ mb.T) / 8.0)


# ---------------------------------------------------------------------------
# Named observables used by the recovery pipelines
# ---------------------------------------------------------------------------

def pauli_sum_observable() -> np.ndarray:
    """sx x sx + sy x sy + sz x sz: rank 3, third moment equals det(T)."""
    return sum(kron(PAULIS[j], PAULIS[j]) for j in (1, 2, 3))


def hodge_observable(sign: int = +1) -> np.ndarray:
    """1 x sx + sx x 1 + sy x sz +- sz x sy: the rank-4 pair whose fourth
    moments differ by a multiple of the Hodge invariant."""
    return (
        kron(PAULIS[0], PAULIS[1]) + kron(PAULIS[1], PAULIS[0])
        + kron(PAULIS[2], PAULIS[3]) + float(sign) * kron(PAULIS[3], PAULIS[2])
    )


# ---------------------------------------------------------------------------
# Random observable generators
# ---------------------------------------------------------------------------

def random_hermitian(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2.0


def random_orthonormal_hermitian(rng: np.random.Generator, count: int) -> list:
    """Random orthonormal Hermitian 2x2 matrices, tr(A_i A_j) = delta_ij.

    Drawn as the first ``count`` rows of a Haar-random orthogonal frame in
    the 4-dimensional real coordinate space over {1, sx, sy, sz}/sqrt(2).
    """
    if not 1 <= count <= 4:
        raise ValueError("count must be between 1 and 4")
    q, r = np.linalg.qr(rng.standard_normal((4, 4)))
    q = q * np.sign(np.diag(r))
    return [np.tensordot(q[:, j], PAULIS_NORMALIZED, axes=(0, 0)) for j in range(count)]


def random_rank_observable(rng: np.random.Generator, rank: int) -> SchmidtObservable:
    """Random bipartite observable of exact tensor rank ``rank`` (1..4)."""
    for _ in range(64):
        o = sum(
            kron(random_hermitian(rng), random_hermitian(rng))
            for _ in range(rank)
        )
        dec = schmidt_decompose(o)
        if dec.rank == rank:
            return dec
    raise RuntimeError(f"failed to draw a rank-{rank} observable")


def random_symmetric_observable(rng: np.random.Generator, rank: int) -> SchmidtObservable:
    """Random observable with a symmetric decomposition sum_j s_j A_j x A_j,
    weights uniform in [0.3, 2)."""
    factors = random_orthonormal_hermitian(rng, rank)
    s = rng.uniform(0.3, 2.0, rank)
    order = np.argsort(s)[::-1]
    return SchmidtObservable(
        s=s[order], A=[factors[j] for j in order], B=[factors[j] for j in order]
    )


def rotated_pauli_sum(rng: np.random.Generator, s) -> SchmidtObservable:
    """(U x U)^dag (sum_j s_j sigma_j/sqrt2 x sigma_j/sqrt2) (U x U) for
    Haar-random U, with s_j the operator Schmidt coefficients.

    The family of symmetric observables whose third moment is exactly
    (s1 s2 s3 / 8) det(T) with no other invariant present.
    """
    s = np.asarray(s, dtype=float)
    u = haar_su2(rng)
    uu = kron(u, u)
    o = sum(s[j - 1] * kron(PAULIS_NORMALIZED[j], PAULIS_NORMALIZED[j]) for j in (1, 2, 3))
    return schmidt_decompose(uu.conj().T @ o @ uu)


# ---------------------------------------------------------------------------
# JSON interchange format
# ---------------------------------------------------------------------------

def _matrix_from_json(doc) -> np.ndarray:
    raw = np.asarray(doc, dtype=float)
    if raw.shape != (2, 2, 2):
        raise ValueError("factor must be a 2x2 complex matrix as [re, im] pairs")
    return raw[..., 0] + 1j * raw[..., 1]


def observable_from_json(doc: dict):
    """Parse the term-list observable format.

    Returns ``(terms, weights)`` with each term a list of per-party 2x2
    Hermitian factors; all terms must have the same party count.
    """
    terms, weights = [], []
    for entry in doc["terms"]:
        factors = [_matrix_from_json(f) for f in entry["factors"]]
        for f in factors:
            if not is_hermitian(f, tol=1e-9):
                raise ValueError("observable factors must be Hermitian")
        terms.append(factors)
        weights.append(float(entry.get("weight", 1.0)))
    parties = {len(t) for t in terms}
    if len(parties) != 1:
        raise ValueError("all terms must act on the same number of parties")
    return terms, np.asarray(weights)


def dense_from_terms(terms, weights, parties: int) -> np.ndarray:
    """sum_k w_k F_k1 x ... x F_kn over ``parties`` qubits; zero without terms."""
    out = np.zeros((2**parties, 2**parties), dtype=complex)
    for w, term in zip(weights, terms):
        prod = term[0]
        for f in term[1:]:
            prod = kron(prod, f)
        out = out + w * prod
    return out
