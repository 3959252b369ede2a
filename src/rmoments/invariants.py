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

    Row i is the cross product of rows i+1 and i+2 (cyclically), so singular
    m is fine.  This is the convention that makes 2 <alpha, cof(T) beta> a
    local-unitary invariant: under T -> Ra T Rb^T the cofactor matrix
    transforms the same way as T.  Each entry is np.cross's component
    formula on scalars, so the bits match it; the result is C-ordered,
    which the matrix products of I14 need to keep their summation order.
    """
    (a, b, c), (d, e, f), (g, h, i) = np.asarray(m, dtype=float).tolist()
    return np.array([
        [e * i - f * h, f * g - d * i, d * h - e * g],
        [h * c - i * b, i * a - g * c, g * b - h * a],
        [b * f - c * e, c * d - a * f, a * e - b * d],
    ])


def _sign(x: float) -> int:
    if np.isnan(x):
        raise OverflowError("a sign invariant's determinant overflows a float")
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

    #: the continuous invariants with their degrees in the state coefficients
    DEGREES = {"I1": 3, "I2": 2, "I3": 4, "I4": 2, "I5": 4, "I6": 6,
               "I7": 2, "I8": 4, "I9": 6, "I12": 3, "I13": 5, "I14": 4}
    CONTINUOUS = tuple(DEGREES)
    DISCRETE = ("I10", "I11", "I15", "I16", "I17", "I18")

    def as_dict(self) -> dict:
        return asdict(self)


def makhlin_continuous(state: TwoQubitState) -> dict:
    """The 12 continuous Makhlin invariants keyed by
    ``MakhlinRecord.CONTINUOUS``, without the sign determinants: the
    invariant dictionaries and the fits read only these."""
    a, b, T = state.alpha, state.beta, state.T
    Tt = T.T
    TTt, TtT = T @ Tt, Tt @ T
    Tta, TTta, Tb, TtTb = Tt @ a, TTt @ a, T @ b, TtT @ b
    aT = a @ T
    return {
        "I1": float(np.linalg.det(T)),
        "I2": float(TtT.trace()),
        "I3": float((TtT @ TtT).trace()),
        "I4": float(a @ a),
        "I5": float(Tta @ Tta),
        "I6": float(TTta @ TTta),
        "I7": float(b @ b),
        "I8": float(Tb @ Tb),
        "I9": float(TtTb @ TtTb),
        "I12": float(aT @ b),
        "I13": float(aT @ Tt @ T @ b),
        "I14": 2.0 * float(a @ cofactor3(T) @ b),
    }


def makhlin(state: TwoQubitState) -> MakhlinRecord:
    """Evaluate the full Makhlin record; accepts non-physical Bloch records."""
    a, b, T = state.alpha, state.beta, state.T
    Tt = T.T
    TTt, TtT = T @ Tt, Tt @ T
    det3 = lambda u, v, w: float(np.linalg.det(np.column_stack([u, v, w])))
    return MakhlinRecord(
        **makhlin_continuous(state),
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
