"""Local-unitary invariants evaluated directly from Bloch data.

Two qubits: the Makhlin generating set, 12 continuous plus 6 discrete sign
invariants.  Three qubits: the Kempe invariant and the degree-3 companions
that appear alongside it in randomized-measurement moments.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .states import ThreeQubitState, TwoQubitState

SIGN_TOL = 1e-12


def cofactor3(m: np.ndarray) -> np.ndarray:
    """Cofactor matrix of a 3x3 matrix, det(m) m^{-T} for invertible m.

    Computed entrywise from 2x2 minors, so singular m is fine.  This is the
    convention that makes 2 <alpha, cof(T) beta> a local-unitary invariant:
    under T -> Ra T Rb^T the cofactor matrix transforms the same way as T.
    """
    m = np.asarray(m, dtype=float)
    cof = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            minor = np.delete(np.delete(m, i, axis=0), j, axis=1)
            cof[i, j] = (-1) ** (i + j) * (minor[0, 0] * minor[1, 1] - minor[0, 1] * minor[1, 0])
    return cof


def _sign(x: float) -> int:
    if abs(x) < SIGN_TOL:
        return 0
    return 1 if x > 0 else -1


@dataclass
class MakhlinRecord:
    """Values of the two-qubit local-unitary invariants.

    I1..I9, I12..I14 are the continuous invariants; I10, I11, I15..I18 are
    signs of 3x3 determinants, reported as 0 when the determinant is below
    the sign threshold.
    """

    I1: float
    I2: float
    I3: float
    I4: float
    I5: float
    I6: float
    I7: float
    I8: float
    I9: float
    I12: float
    I13: float
    I14: float
    I10: int
    I11: int
    I15: int
    I16: int
    I17: int
    I18: int

    CONTINUOUS = ("I1", "I2", "I3", "I4", "I5", "I6", "I7", "I8", "I9", "I12", "I13", "I14")
    DISCRETE = ("I10", "I11", "I15", "I16", "I17", "I18")

    def continuous(self) -> dict:
        return {name: getattr(self, name) for name in self.CONTINUOUS}

    def as_dict(self) -> dict:
        return asdict(self)


def makhlin(state: TwoQubitState) -> MakhlinRecord:
    """Evaluate the full Makhlin record; accepts non-physical Bloch records."""
    a, b, T = state.alpha, state.beta, state.T
    Tt = T.T
    TTt = T @ Tt
    TtT = Tt @ T
    det3 = lambda u, v, w: float(np.linalg.det(np.column_stack([u, v, w])))
    return MakhlinRecord(
        I1=float(np.linalg.det(T)),
        I2=float(np.trace(TtT)),
        I3=float(np.trace(TtT @ TtT)),
        I4=float(a @ a),
        I5=float((Tt @ a) @ (Tt @ a)),
        I6=float((TTt @ a) @ (TTt @ a)),
        I7=float(b @ b),
        I8=float((T @ b) @ (T @ b)),
        I9=float((TtT @ b) @ (TtT @ b)),
        I12=float(a @ T @ b),
        I13=float(a @ T @ Tt @ T @ b),
        I14=2.0 * float(a @ cofactor3(T) @ b),
        I10=_sign(det3(a, TTt @ a, TTt @ TTt @ a)),
        I11=_sign(det3(b, TtT @ b, TtT @ TtT @ b)),
        I15=_sign(det3(a, TTt @ a, T @ b)),
        I16=_sign(det3(Tt @ a, b, TtT @ b)),
        I17=_sign(det3(Tt @ a, Tt @ TTt @ a, b)),
        I18=_sign(det3(a, T @ b, TTt @ T @ b)),
    )


def _hodge_star(v: np.ndarray) -> np.ndarray:
    """Matrix of the cross product, (*v) w = v x w."""
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


def hodge_via_star(state: TwoQubitState) -> float:
    """Second route to I14 through cross-product matrices:
    tr((*alpha) T (*beta)^T T^T).  Used as an internal cross-check against
    the adjugate formula."""
    sa = _hodge_star(state.alpha)
    sb = _hodge_star(state.beta)
    return float(np.trace(sa @ state.T @ sb.T @ state.T.T))


@dataclass
class KempeRecord:
    """Kempe invariant of a three-qubit state and its companion quantities."""

    kempe: float
    trTTT: float
    w_norm_sq: float
    cross_ab_g: float  # sum_jkl W_jkl TAB_jk gamma_l
    cross_ca_b: float  # sum_jkl W_jkl TCA_lj beta_k
    cross_bc_a: float  # sum_jkl W_jkl alpha_j TBC_kl

    def as_dict(self) -> dict:
        return asdict(self)


def kempe(state: ThreeQubitState) -> KempeRecord:
    """Kempe invariant
    (1/8)[1 + |a|^2 + |b|^2 + |g|^2 + <a,TAB b> + <b,TBC g> + <g,TCA a>
          + tr(TAB TBC TCA)]
    together with the degree-3 companions used by the recovery protocol."""
    a, b, g = state.alpha, state.beta, state.gamma
    tab, tbc, tca, w = state.TAB, state.TBC, state.TCA, state.W
    tr_ttt = float(np.trace(tab @ tbc @ tca))
    value = (
        1.0 + a @ a + b @ b + g @ g
        + a @ tab @ b + b @ tbc @ g + g @ tca @ a
        + tr_ttt
    ) / 8.0
    return KempeRecord(
        kempe=float(value),
        trTTT=tr_ttt,
        w_norm_sq=float(np.sum(w * w)),
        cross_ab_g=float(np.einsum("jkl,jk,l->", w, tab, g)),
        cross_ca_b=float(np.einsum("jkl,lj,k->", w, tca, b)),
        cross_bc_a=float(np.einsum("jkl,j,kl->", w, a, tbc)),
    )
