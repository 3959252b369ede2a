"""Exact Haar-moment engine.

Twirling the t-fold tensor power of an observable over independent local
Haar unitaries projects each party onto the commutant of U^xt, which is
spanned by the permutation operators V_pi (Schur-Weyl duality).  For
qubits the t! operators V_pi span only C_t (Catalan) dimensions: 1, 2, 5,
14, 42, 132 for t = 1..6.  The 321-avoiding permutations B index a basis
(``symgroup.commutant_basis``), so the twirl coefficients solve the
nonsingular Gram system on B,

    G_BB x = (tr(A_{j1} x ... x A_{jt} V_b))_{b in B},   G[b, b'] = tr V_{b o b'},

exactly (LU, no pseudo-inverse).  The moment of a state follows from the
contractions tr(rho^xt V_{bA} x V_{bB}), which this module evaluates in the
Pauli basis through the cycle-product trace formula with the Pauli-trace
rows W_B of the basis -- rho^xt is never formed.

A two-party table is one factor pair (P W_B, Q W_B) with P^T Q the
coefficient table on B x B.  It has k = min(n_tuples, |B|) rows: with few
product-term index tuples n, P holds w_n x_n and Q holds y_n; otherwise
P = 1 and Q = sum_n w_n x_n y_n^T.  The moment is then the one contraction
<P W_B, R^xt (Q W_B)> / 4^t with R the state's transfer matrix.
Three-party tables (t <= 3) keep one factor triple per index tuple.  The
rows of W_B are sparse, so their contraction with R3^xt reduces, once per
table, to a short weighted sum of products of t entries of R3.

Tables over all of S_t are derived from the basis solution on request.
Embedding x_B into S_t (zeros off B) gives one solution of the full Gram
system.  Kernel vectors of the full Gram matrix are exactly the linear
dependencies among the V_pi, so projecting the embedded solution off the
kernel gives the minimum-norm table, and the kernel shift of ``gauge_fix``
gives the reduced-gauge table in which a designated set of coefficients
vanishes.
"""

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import groupby

import numpy as np

from . import symgroup as sg
from .invariants import makhlin
from .observables import SchmidtObservable, TripartiteObservable, schmidt_decompose
from .paulis import PAULIS
from .rng import substream
from .states import (
    BlochRecord,
    TwoQubitState,
    bloch_from_density,
    partial_transpose_bloch,
    random_bloch_record,
    transfer_from_bloch,
)

SOLVE_RESIDUAL_TOL = 1e-9
IMAG_TOL = 1e-8


class EngineError(RuntimeError):
    """A Gram solve or moment evaluation violated an exactness guarantee."""


# ---------------------------------------------------------------------------
# Gram-system solves on the commutant basis
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _basis_gram(t: int):
    """(G[B, B], cond G[B, B]) for the qubit commutant basis B of S_t."""
    basis = sg.commutant_basis(t)
    gram = sg.gram_block(basis, basis, 2).astype(float)
    gram.setflags(write=False)
    return gram, float(np.linalg.cond(gram))


def _solve_basis(rhs: np.ndarray, t: int):
    """Coefficients x[n] over B with G[B, B] x[n] = rhs[n]; returns the
    solutions and the largest absolute residual."""
    gram, _ = _basis_gram(t)
    b = np.ascontiguousarray(rhs.T, dtype=complex)
    x = np.ascontiguousarray(np.linalg.solve(gram, b))
    # G[B, B] is real: one real product over the interleaved real and
    # imaginary parts of x
    back = (gram @ x.view(float)).view(complex)
    residual = float(np.max(np.abs(back - b))) if rhs.size else 0.0
    if residual > SOLVE_RESIDUAL_TOL:
        raise EngineError(f"Gram solve residual {residual:.2e} above tolerance")
    return x.T, residual


def _trace_tensors(factors: np.ndarray, t: int) -> list:
    """T_k[a1..ak] = tr(F_{a1} F_{a2} ... F_{ak}) for k = 1..t."""
    f = np.asarray(factors, dtype=complex)
    tensors = [np.trace(f, axis1=1, axis2=2)]
    chain = f
    for _ in range(t - 1):
        # chain[a1..ak, :, :] -> extend by one factor
        chain = np.einsum("...ij,bjk->...bik", chain, f)
        tensors.append(np.trace(chain, axis1=-2, axis2=-1))
    return tensors


@lru_cache(maxsize=None)
def _cycle_plan(t: int) -> tuple:
    """How the cycles of the commutant basis B of S_t build its columns.

    Returns (groups, plan, widths, inverse).  ``groups`` holds, per cycle
    length, the (count, length) slots of the distinct cycles of B; in that
    order they number the cycles.  Row i of ``plan`` holds the numbers of
    the cycles of the i-th element of B sorted by descending cycle count, in
    ``cycles()`` order, so the first ``widths[j]`` rows are the elements
    with more than j cycles.  ``inverse`` restores the order of B.
    """
    basis = sg.commutant_basis(t)
    cycles = sorted({c for p in basis for c in p.cycles()}, key=lambda c: (len(c), c))
    number = {c: i for i, c in enumerate(cycles)}
    groups = [np.array(list(same)) for _, same in groupby(cycles, key=len)]
    order = sorted(range(len(basis)), key=lambda b: -basis[b].num_cycles())
    counts = [basis[b].num_cycles() for b in order]
    plan = np.zeros((len(basis), counts[0]), dtype=np.intp)
    for row, b in enumerate(order):
        plan[row, :counts[row]] = [number[c] for c in basis[b].cycles()]
    widths = [sum(n > j for n in counts) for j in range(counts[0])]
    inverse = np.argsort(order)
    for a in (*groups, plan, inverse):
        a.setflags(write=False)
    return groups, plan, widths, inverse


#: index tuples per block of a right-hand side, so that a block's traces and
#: products stay in cache
_RHS_BLOCK = 256


def _rhs_for_tuples(factors: np.ndarray, tuples: np.ndarray) -> np.ndarray:
    """rhs[n, b] = tr(F_{j1} x ... x F_{jt} V_b) for every index tuple and
    every b of the commutant basis: the product over the cycles of b of one
    trace each, taken in ``cycles()`` order starting from ones."""
    groups, plan, widths, inverse = _cycle_plan(tuples.shape[1])
    tensors = _trace_tensors(factors, tuples.shape[1])
    rhs = np.empty((len(plan), len(tuples)), dtype=complex)
    for start in range(0, len(tuples), _RHS_BLOCK):
        slots = np.ascontiguousarray(tuples[start:start + _RHS_BLOCK].T)
        # every distinct cycle's traces, one gather per cycle length from
        # the flat index of its slots' factor indices
        traces = []
        for cycles in groups:
            flat = slots[cycles[:, 0]]
            for k in cycles.T[1:]:
                flat = flat * len(factors) + slots[k]
            traces.append(np.take(tensors[cycles.shape[1] - 1], flat))
        traces = np.concatenate(traces)
        vals = np.ones((len(plan), slots.shape[1]), dtype=complex)
        for j, width in enumerate(widths):
            vals[:width] *= traces[plan[:width, j]]
        rhs[:, start:start + _RHS_BLOCK] = vals[inverse]
    return rhs.T


@lru_cache(maxsize=None)
def _basis_w(t: int) -> tuple:
    """(codes, rows): W_B[b, code] = tr(s_{mu1} x ... x s_{mut} V_b), the
    right-hand sides of the 4^t Pauli strings, kept on the 4^(t-1) strings
    whose product is proportional to the identity, the support of every row."""
    w = _rhs_for_tuples(PAULIS, _index_tuples(4, t)).T
    codes = np.flatnonzero(np.any(w != 0, axis=0))
    return codes, np.ascontiguousarray(w[:, codes])


def solve_factor_coefficients(factors) -> np.ndarray:
    """Minimum-norm coefficients x over S_t, t = len(factors), with
    sum_pi x_pi V_pi the Haar average of F_1 x ... x F_t over simultaneous
    rotations.

    Any kernel shift of the result represents the same operator.
    """
    factors = [np.asarray(f, dtype=complex) for f in factors]
    t = len(factors)
    if any(f.shape != (2, 2) for f in factors):
        raise ValueError("factors must be 2x2 matrices")
    rhs = np.array([sg.trace_with_v(factors, p) for p in sg.commutant_basis(t)])
    x, _ = _solve_basis(rhs[None, :], t)
    return _embedding(t, False) @ x[0]


# ---------------------------------------------------------------------------
# Gauge fixing and full-S_t tables
# ---------------------------------------------------------------------------

# coefficients that a kernel shift can always set to zero, leaving a
# uniquely determined reduced support
GAUGE_ZEROS = {
    3: ("(132)",),
    4: ("(132)", "(124)", "(142)", "(134)", "(143)", "(234)", "(243)",
        "(12)(34)", "(13)(24)", "(14)(23)"),
}

REDUCED_SUPPORT_T4 = (
    "()", "(12)", "(13)", "(14)", "(23)", "(24)", "(34)",
    "(123)", "(1234)", "(1243)", "(1324)", "(1342)", "(1423)", "(1432)",
)


@lru_cache(maxsize=None)
def _gauge_shift(t: int):
    """Pair (rows, shift) such that x + shift @ x[rows] zeroes the
    designated coefficients while staying in the solution set."""
    perms = sg.enumerate_group(t)
    index = {p.cycle_string(): i for i, p in enumerate(perms)}
    rows = np.array([index[name] for name in GAUGE_ZEROS[t]])
    kernel = sg.kernel_basis(sg.gram_matrix(t, 2))
    if kernel.shape[1] != len(rows):
        raise EngineError("kernel dimension does not match gauge constraint count")
    shift = -kernel @ np.linalg.inv(kernel[rows, :])
    return rows, shift


def gauge_fix(x: np.ndarray, t: int) -> np.ndarray:
    """Shift a Gram-system solution by kernel vectors so the designated
    coefficients vanish (t = 3: the long 3-cycle; t = 4: seven 3-cycles and
    the double transpositions)."""
    if t not in GAUGE_ZEROS:
        return np.asarray(x)
    rows, shift = _gauge_shift(t)
    x = np.asarray(x, dtype=complex)
    return x + x[..., rows] @ shift.T


@lru_cache(maxsize=None)
def _embedding(t: int, reduced: bool) -> np.ndarray:
    """Real (t!, |B|) map from basis coefficients to a full S_t solution:
    the minimum-norm one or, with ``reduced``, the gauge-fixed one."""
    perms = sg.enumerate_group(t)
    index = {p: i for i, p in enumerate(perms)}
    basis = sg.commutant_basis(t)
    emb = np.zeros((len(perms), len(basis)))
    emb[[index[b] for b in basis], np.arange(len(basis))] = 1.0
    if len(basis) < len(perms):
        kernel = sg.kernel_basis(sg.gram_matrix(t, 2))
        emb -= kernel @ (kernel.T @ emb)
        if reduced and t in GAUGE_ZEROS:
            rows, shift = _gauge_shift(t)
            emb += shift @ emb[rows]
    emb.setflags(write=False)
    return emb


# ---------------------------------------------------------------------------
# Coefficient tables and exact moments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EngineDiagnostics:
    """The numbers behind a table build's exactness guards."""

    basis_size: int            # |B|, the commutant dimension
    gram_condition: float      # cond(G[B, B])
    solve_residual: float      # max |G[B, B] x - rhs| over every solve


@dataclass
class TwirlCoefficients:
    """Twirl of O^xt on the commutant basis B, kept in factorized form:
    ``factors`` holds one (k, |B|) coefficient array per party, and the
    coefficient table on B^parties is sum_k p_k x q_k [x z_k].
    """

    t: int
    parties: int
    factors: tuple
    diagnostics: EngineDiagnostics
    _pauli: tuple = field(init=False, repr=False)   # factors @ W_B, full length

    def __post_init__(self):
        codes, w = _basis_w(self.t)
        self._pauli = tuple(np.zeros((len(f), 4**self.t), dtype=complex) for f in self.factors)
        for f, full in zip(self.factors, self._pauli):
            # the collapsed first factor of a many-tuple table is the identity
            identity = f.shape == (len(w), len(w)) and np.array_equal(f, np.eye(len(w)))
            full[:, codes] = w if identity else f @ w

    def dense(self, gauge: bool = False) -> np.ndarray:
        """Full coefficient table over S_t^parties: the minimum-norm table,
        or with ``gauge`` the reduced-gauge table of every party."""
        emb = _embedding(self.t, gauge)
        cols = [f @ emb.T for f in self.factors]
        if self.parties == 2:
            return cols[0].T @ cols[1]
        return np.einsum("na,nb,nc->abc", *cols)

    def moment(self, state) -> float:
        """Exact t-th randomized-measurement moment of ``state``."""
        state = as_bloch(state, parties=self.parties)
        r = transfer_from_bloch(state)
        t = self.t
        if self.parties == 2:
            pw, qw = self._pauli
            val = np.einsum("kc,kc->", pw, _apply_transfer(qw, r, t)) / 4**t
        else:
            idx, weights = self._triple_terms
            val = complex(*(weights @ np.prod(r.reshape(-1)[idx], axis=0)))
        if abs(val.imag) > IMAG_TOL * max(1.0, abs(val.real)):
            raise EngineError(f"moment has imaginary residue {val.imag:.2e}")
        return float(val.real)

    def moments(self, states) -> np.ndarray:
        return np.array([self.moment(s) for s in states])

    @cached_property
    def _triple_terms(self):
        """(idx, weights) with sum_k <wx_k x wy_k x wz_k, R3^xt> / 8^t =
        weights @ prod_s R3.flat[idx[s]] (real and imaginary row): the terms
        on the support of W_B, merged over reorderings of the t copies."""
        sup, t = _basis_w(self.t)[0], self.t
        coef = np.einsum("ka,kb,kc->abc", *(w[:, sup] for w in self._pauli)).ravel() / 8**t
        # flat R3 index (a_s, b_s, c_s) of copy s for every support triple
        d = np.array(np.unravel_index(sup, (4,) * t))
        idx = 16 * d[:, :, None, None] + 4 * d[:, None, :, None] + d[:, None, None, :]
        key = np.ravel_multi_index(np.sort(idx.reshape(t, -1)[:, coef != 0], axis=0), (64,) * t)
        uniq, inv = np.unique(key, return_inverse=True)
        weights = [np.bincount(inv, part[coef != 0], len(uniq)) for part in (coef.real, coef.imag)]
        return np.array(np.unravel_index(uniq, (64,) * t)), np.array(weights)


def _apply_transfer(w: np.ndarray, r: np.ndarray, t: int) -> np.ndarray:
    """Apply R^xt to a stack of coefficient vectors over Pauli strings."""
    n = w.shape[0]
    # r is real, so it acts on the interleaved real and imaginary parts alike
    z = np.ascontiguousarray(w, dtype=complex).view(float)
    for k in range(t):
        z = r @ z.reshape(n * 4**k, 4, -1)
    return z.reshape(n, -1).view(complex)


def as_bloch(state, parties: int = 2):
    """Coerce a density matrix or Bloch record to the Bloch form."""
    if not isinstance(state, BlochRecord):
        state = bloch_from_density(np.asarray(state, dtype=complex))
    if state.parties != parties:
        raise ValueError(f"expected {parties}-party state, got {state.parties}-party")
    return state


def _index_tuples(r: int, t: int) -> np.ndarray:
    return np.indices((r,) * t).reshape(t, -1).T


def twirl_coefficients(obs, t: int) -> TwirlCoefficients:
    """Coefficient table of the twirled observable at moment order t.

    ``obs`` may be a Hermitian 4x4 matrix, a SchmidtObservable (two
    parties, t <= 6) or a TripartiteObservable (t <= 3).
    """
    if isinstance(obs, np.ndarray):
        obs = schmidt_decompose(obs)
    if isinstance(obs, SchmidtObservable):
        values = obs.s
        per_party = [obs.A] if obs.is_symmetric() else [obs.A, obs.B]
        parties = 2
    elif isinstance(obs, TripartiteObservable):
        if t > 3:
            raise ValueError("three-party twirl supports t <= 3")
        values = obs.weights
        per_party = [[term[k] for term in obs.terms] for k in range(3)]
        parties = 3
    else:
        raise TypeError(f"unsupported observable type {type(obs)!r}")
    tuples = _index_tuples(len(values), t)
    # basis coefficients of every index tuple's factor product, per party
    solved = [_solve_basis(_rhs_for_tuples(np.stack(f), tuples), t) for f in per_party]
    factors = [x for x, _ in solved]
    if len(factors) < parties:  # symmetric decomposition, B_j = A_j
        factors.append(factors[0])
    factors[0] = np.prod(np.asarray(values)[tuples], axis=1)[:, None] * factors[0]
    gram, cond = _basis_gram(t)
    if parties == 2 and len(tuples) > len(gram):
        factors = [np.eye(len(gram)), factors[0].T @ factors[1]]
    diagnostics = EngineDiagnostics(basis_size=len(gram), gram_condition=cond,
                                    solve_residual=max(res for _, res in solved))
    return TwirlCoefficients(t, parties, tuple(factors), diagnostics)


def exact_moment(obs, state, t: int) -> float:
    """One-shot exact moment; build twirl_coefficients once when evaluating
    many states against the same observable."""
    return twirl_coefficients(obs, t).moment(state)


# ---------------------------------------------------------------------------
# Invariant dictionaries and moment decompositions
# ---------------------------------------------------------------------------

#: monomials in the continuous Makhlin invariants, keyed by total degree in
#: the state coefficients
_MAKHLIN_DEGREES = {
    "I1": 3, "I2": 2, "I3": 4, "I4": 2, "I5": 4, "I6": 6,
    "I7": 2, "I8": 4, "I9": 6, "I12": 3, "I13": 5, "I14": 4,
}


def dictionary_for(t: int) -> tuple:
    """All monomials in the continuous Makhlin invariants of total degree
    <= t, plus the constant.  The degree bound is forced: a t-th moment is a
    polynomial of degree <= t in the state coefficients."""
    names = ["1"]
    gens = sorted(_MAKHLIN_DEGREES)
    def expand(start, budget, current):
        for i in range(start, len(gens)):
            g = gens[i]
            d = _MAKHLIN_DEGREES[g]
            if d <= budget:
                mono = current + [g]
                names.append("*".join(mono))
                expand(i, budget - d, mono)
    expand(0, t, [])
    return tuple(sorted(set(names), key=lambda n: (n != "1", n)))


def eval_monomial(name: str, values: dict) -> float:
    """Evaluate a dictionary monomial from invariant values, taking a value
    stored under the monomial's own name as it is."""
    if name == "1":
        return 1.0
    if name in values:
        return float(values[name])
    out = 1.0
    for g in name.split("*"):
        out *= values[g]
    return out


def eval_monomials(names, state: TwoQubitState) -> np.ndarray:
    """Evaluate dictionary monomials on one Bloch record."""
    values = makhlin(state).continuous()
    return np.array([eval_monomial(name, values) for name in names])


@dataclass
class MomentDecomposition:
    """Affine expansion of a moment over an invariant dictionary."""

    names: tuple
    coefficients: np.ndarray
    residual: float

    def coefficient(self, name: str) -> float:
        return float(self.coefficients[self.names.index(name)])

    def as_dict(self) -> dict:
        return {
            "coefficients": {n: float(c) for n, c in zip(self.names, self.coefficients)},
            "residual": self.residual,
        }


def fit(names, design: np.ndarray, y: np.ndarray) -> MomentDecomposition:
    """Least-squares expansion of ``y`` over the columns of ``design``, one
    column per name, with the largest absolute residual of the fit."""
    sol, *_ = np.linalg.lstsq(design, y, rcond=None)
    residual = float(np.max(np.abs(design @ sol - y)))
    return MomentDecomposition(names=tuple(names), coefficients=sol, residual=residual)


def _fit_states(count: int, seed: int, label: str) -> list:
    rng = substream(seed, "twirl.fit", label)
    return [random_bloch_record(2, rng) for _ in range(count)]


def decompose(obs, t: int, dictionary=None, seed: int = 20240) -> MomentDecomposition:
    """Least-squares expansion of the exact moment over an invariant
    dictionary, fitted on random (generally non-physical) Bloch records.

    A residual above ~1e-8 means the dictionary does not span the moment;
    it is reported, not fatal.
    """
    names = tuple(dictionary) if dictionary is not None else dictionary_for(t)
    coeffs = twirl_coefficients(obs, t) if not isinstance(obs, TwirlCoefficients) else obs
    states = _fit_states(max(3 * len(names), 24), seed, f"decompose-t{t}-{len(names)}")
    design = np.array([eval_monomials(names, s) for s in states])
    return fit(names, design, coeffs.moments(states))


def odd_part(obs, state, t: int) -> float:
    """PT-odd half of the moment, (R(rho) - R(rho^T2)) / 2.

    Only det(T) and the Hodge invariant survive among the continuous
    invariants of degree <= 4, so for t <= 4 this isolates their combined
    contribution exactly.
    """
    coeffs = twirl_coefficients(obs, t) if not isinstance(obs, TwirlCoefficients) else obs
    state = as_bloch(state, parties=2)
    return (coeffs.moment(state) - coeffs.moment(partial_transpose_bloch(state))) / 2.0


def odd_fit(obs, t: int):
    """Fit the PT-odd part over {det T, Hodge}; returns a decomposition
    whose names are ("I1", "I14")."""
    names = ("I1", "I14")
    coeffs = twirl_coefficients(obs, t) if not isinstance(obs, TwirlCoefficients) else obs
    states = _fit_states(12, 31400, f"oddfit-t{t}")
    design = np.array([eval_monomials(names, s) for s in states])
    return fit(names, design, np.array([odd_part(coeffs, s, t) for s in states]))


# ---------------------------------------------------------------------------
# Tripartite coefficient classes (Kempe analysis)
# ---------------------------------------------------------------------------

def chat_vector(coeffs: TwirlCoefficients) -> np.ndarray:
    """Aggregated transposition-class sums of a three-party twirl at t = 3.

    The five classes track, in order, the coefficients multiplying
    ||W||^2, the three W-correlation cross terms, and tr(TAB TBC TCA) in
    the moment (each with a 1/8 trace normalization handled separately).
    """
    if coeffs.parties != 3 or coeffs.t != 3:
        raise ValueError("chat_vector needs a three-party t=3 table")
    dense = coeffs.dense(gauge=True)
    perms = sg.enumerate_group(3)
    idx = {p.cycle_string(): i for i, p in enumerate(perms)}
    swaps = ["(12)", "(13)", "(23)"]
    def val(a, b, c):
        return dense[idx[a], idx[b], idx[c]]
    total = np.zeros(5, dtype=complex)
    total[0] = sum(val(s, s, s) for s in swaps)
    total[1] = sum(val(p, p, q) for p in swaps for q in swaps if q != p)
    total[2] = sum(val(p, q, p) for p in swaps for q in swaps if q != p)
    total[3] = sum(val(q, p, p) for p in swaps for q in swaps if q != p)
    total[4] = sum(
        val(a, b, c)
        for a in swaps for b in swaps for c in swaps
        if len({a, b, c}) == 3
    )
    if np.max(np.abs(total.imag)) > 1e-10:
        raise EngineError("aggregated class sums have imaginary residue")
    return total.real
