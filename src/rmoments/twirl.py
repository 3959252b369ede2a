"""Exact Haar-moment engine.

Twirling the t-fold tensor power of an observable over independent local
Haar unitaries projects each party onto the commutant of U^xt, which is
spanned by the permutation operators V_pi (Schur-Weyl duality).  For
qubits the t! operators V_pi span only C_t (Catalan) dimensions: 1, 2, 5,
14, 42, 132 for t = 1..6.  The 321-avoiding permutations B index a basis
(``symgroup.commutant_basis``), so the twirl coefficients solve the
nonsingular Gram system on B,

    G_BB x = (tr(A_{j1} x ... x A_{jt} V_b))_{b in B},   G[b, b'] = tr V_{b o b'},

with the inverse of G_BB, cached once per t, and one step of iterative
refinement per solution, which brings the residual to an LU solve's level;
every residual is checked relative to max(1, max|rhs|).  The moment of a
state follows from the contractions tr(rho^xt V_{bA} x V_{bB}), which this
module evaluates in the Pauli basis through the cycle-product trace formula
with the Pauli-trace rows W_B of the basis -- rho^xt is never formed.

A table's rows run over the multisets of product-term indices, not over
every index tuple: one sorted representative per multiset, its weight
multiplied by the multinomial count of its orderings.  This is exact.
Permuting the copies of a tuple conjugates every party's factor product,
and so its twirl, by the same V_sigma, and rho^xt commutes with
V_sigma x V_sigma (x V_sigma), so every ordering contributes the same
moment, for physical and non-physical Bloch records alike.  A rank-r
observable then needs C(t+r-1, t) rows instead of r^t: 84 instead of 4,096
at t = 6, rank 4.

A two-party table is one factor pair (P W_B, Q W_B) with P^T Q the
coefficient table on B x B.  It has k = min(n_rows, |B|) rows: with few
multisets n, P holds w_n x_n and Q holds y_n; otherwise P = 1 and
Q = sum_n w_n x_n y_n^T.  The moment is then the one contraction
<P W_B, R^xt (Q W_B)> / 4^t with R the state's transfer matrix.  Both
Pauli factors are kept string-major on the 4^(t-1) support rows of W_B, as
(4^(t-1), k) columns, and contracted in column tiles of at most
_TILE_ENTRIES complex entries at full length: each tile is scattered into
zero-padded (4^t, n) columns and R acts on one copy's index at a time over
the trailing 4^(t-1-j) n columns, so each of the t steps is one wide product
on contiguous blocks (the mode-by-mode Kronecker product of Van Loan,
J. Comput. Appl. Math. 123 (2000)) whose temporaries stay in cache.  A
table of one tile scatters its pair once and reuses it.
Three-party tables (t <= 3) keep one factor triple per multiset.  The
rows of W_B are sparse, so their contraction with R3^xt reduces, once per
table, to a short weighted sum of products of t entries of R3.

Tables over all of S_t are derived from the basis solution on request.
Such a table is invariant under conjugation by V_sigma x V_sigma only once
it sums every ordering, so it is rebuilt from every index tuple.
Embedding x_B into S_t (zeros off B) gives one solution of the full Gram
system.  Kernel vectors of the full Gram matrix are exactly the linear
dependencies among the V_pi, so projecting the embedded solution off the
kernel gives the minimum-norm table, and the kernel shift of ``gauge_fix``
gives the reduced-gauge table in which a designated set of coefficients
vanishes.
"""

import cmath
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import groupby

import numpy as np

from . import symgroup as sg
from .invariants import MakhlinRecord, makhlin_continuous
from .linalg import nullspace
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
    """(G[B, B], G[B, B]^-1, cond G[B, B]) for the qubit commutant basis B
    of S_t, read-only."""
    basis = sg.commutant_basis(t)
    gram = sg.gram_block(basis, basis, 2).astype(float)
    inverse = np.linalg.inv(gram)
    gram.setflags(write=False)
    inverse.setflags(write=False)
    return gram, inverse, float(np.linalg.cond(gram))


def _solve_basis(rhs: np.ndarray, t: int):
    """Coefficients x[n] over B with G[B, B] x[n] = rhs[n]; returns the
    solutions and the largest absolute residual.

    x = G^-1 rhs, refined once by x += G^-1 (rhs - G x) (Higham, Accuracy
    and Stability of Numerical Algorithms, ch. 12): the residual falls to an
    LU solve's level, without factoring G on every call.  The residual is
    checked against SOLVE_RESIDUAL_TOL * max(1, max|rhs|): the right-hand
    sides carry the factors' scale to the t-th power, so a good solve's
    residual scales with them."""
    gram, inverse, _ = _basis_gram(t)
    # G[B, B] is real: every product runs over the interleaved real and
    # imaginary parts of the right-hand sides
    b = np.ascontiguousarray(rhs.T, dtype=complex).view(float)
    x = inverse @ b
    x += inverse @ (b - gram @ x)
    residual = float(np.max(np.abs((gram @ x - b).view(complex)), initial=0.0))
    bound = SOLVE_RESIDUAL_TOL * float(np.max(np.abs(rhs), initial=1.0))
    if residual > bound:
        raise EngineError(f"Gram solve residual {residual:.2e} above tolerance {bound:.2e}")
    return x.view(complex).T, residual


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
    x, _ = _solve_basis(_rhs_for_tuples(np.array(factors), np.arange(t)[None]), t)
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


@lru_cache(maxsize=None)
def _gram_kernel(t: int) -> np.ndarray:
    """Orthonormal kernel of the full Gram matrix of S_t, one column per
    linear dependency among the V_pi."""
    kernel = nullspace(sg.gram_matrix(t, 2))
    kernel.setflags(write=False)
    return kernel


@lru_cache(maxsize=None)
def _gauge_shift(t: int):
    """Pair (rows, shift) such that x + shift @ x[rows] zeroes the
    designated coefficients while staying in the solution set."""
    rows = np.array([sg.cycle_index(t)[name] for name in GAUGE_ZEROS[t]])
    kernel = _gram_kernel(t)
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
    if reduced:
        # each column is a solution over S_t: gauge-fix the rows of the transpose
        emb = np.ascontiguousarray(gauge_fix(_embedding(t, False).T, t).real.T)
    else:
        index, basis = sg.cycle_index(t), sg.commutant_basis(t)
        emb = np.zeros((len(index), len(basis)))
        emb[[index[b.cycle_string()] for b in basis], np.arange(len(basis))] = 1.0
        kernel = _gram_kernel(t)
        emb -= kernel @ (kernel.T @ emb)
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
    coefficient table on B^parties is sum_k p_k x q_k [x z_k].  The rows
    run over the multisets of term indices, each weighted by its number of
    orderings; this sum gives every moment exactly but is not the table
    over S_t^parties, which ``dense`` rebuilds from the observable's
    per-party factor ``stacks`` and term ``weights``.
    """

    t: int
    parties: int
    factors: tuple
    diagnostics: EngineDiagnostics
    stacks: tuple
    weights: np.ndarray
    _pauli: tuple = field(init=False, repr=False)   # (factors @ W_B)^T on the support rows

    def __post_init__(self):
        w = _basis_w(self.t)[1]
        # the collapsed first factor of a many-row table is the identity
        self._pauli = tuple(
            w.T if f.shape == (len(w), len(w)) and np.array_equal(f, np.eye(len(w)))
            else (f @ w).T for f in self.factors)

    def dense(self, gauge: bool = False) -> np.ndarray:
        """Full coefficient table over S_t^parties: the minimum-norm table,
        or with ``gauge`` the reduced-gauge table of every party."""
        tuples = _index_tuples(len(self.weights), self.t)
        factors, _ = _factor_rows(self.stacks, self.weights, self.parties, tuples, 1)
        emb = _embedding(self.t, gauge)
        cols = [f @ emb.T for f in factors]
        if self.parties == 2:
            return cols[0].T @ cols[1]
        return np.einsum("na,nb,nc->abc", *cols)

    def moment(self, state) -> float:
        """Exact t-th randomized-measurement moment of ``state``."""
        state = as_bloch(state, parties=self.parties)
        r = transfer_from_bloch(state)
        t = self.t
        if self.parties == 2:
            val = self._contract(r)
        else:
            idx, weights = self._triple_terms
            val = complex(*(weights @ np.prod(r.reshape(-1)[idx], axis=0)))
        # a finite table can still overflow on a large non-physical record
        if not cmath.isfinite(val):
            raise OverflowError(f"the order-{t} moment of this state overflows a float")
        if self.parties == 2:
            val /= 4**t
        if abs(val.imag) > IMAG_TOL * max(1.0, abs(val.real)):
            raise EngineError(f"moment has imaginary residue {val.imag:.2e}")
        return float(val.real)

    def moments(self, states) -> np.ndarray:
        return np.array([self.moment(s) for s in states])

    def _contract(self, r: np.ndarray) -> complex:
        """<P W_B, R^xt (Q W_B)>, over column tiles of at most
        _TILE_ENTRIES // 4^t columns, each scattered to full length and the
        partial sums added in tile order."""
        t, (p, q) = self.t, self._pauli
        cols = _TILE_ENTRIES // 4**t
        if p.shape[1] <= cols:
            pw, qw = self._columns
            return np.einsum("ck,ck->", pw, _apply_transfer(qw, r, t))
        val = 0j
        for start in range(0, p.shape[1], cols):
            pw, qw = (_full_length(x[:, start:start + cols], t) for x in (p, q))
            val += np.einsum("ck,ck->", pw, _apply_transfer(qw, r, t))
        return val

    @cached_property
    def _columns(self):
        """The full-length factor pair of a one-tile table, scattered once."""
        return tuple(_full_length(x, self.t) for x in self._pauli)

    @cached_property
    def _triple_terms(self):
        """(idx, weights) with sum_k <wx_k x wy_k x wz_k, R3^xt> / 8^t =
        weights @ prod_s R3.flat[idx[s]] (real and imaginary row): the terms
        on the support of W_B, merged over reorderings of the t copies."""
        sup, t = _basis_w(self.t)[0], self.t
        coef = np.einsum("ak,bk,ck->abc", *self._pauli).ravel() / 8**t
        # flat R3 index (a_s, b_s, c_s) of copy s for every support triple
        d = np.array(np.unravel_index(sup, (4,) * t))
        idx = 16 * d[:, :, None, None] + 4 * d[:, None, :, None] + d[:, None, None, :]
        key = np.ravel_multi_index(np.sort(idx.reshape(t, -1)[:, coef != 0], axis=0), (64,) * t)
        uniq, inv = np.unique(key, return_inverse=True)
        weights = [np.bincount(inv, part[coef != 0], len(uniq)) for part in (coef.real, coef.imag)]
        return np.array(np.unravel_index(uniq, (64,) * t)), np.array(weights)


#: complex entries of one full-length tile of Pauli factor columns (512 kB):
#: 8 columns at t = 6, 32 at t = 5, every table at t <= 4
_TILE_ENTRIES = 2**15


def _full_length(rows: np.ndarray, t: int) -> np.ndarray:
    """(4^t, n) columns over every Pauli string, zero off the support rows."""
    full = np.zeros((4**t, rows.shape[1]), dtype=complex)
    full[_basis_w(t)[0]] = rows
    return full


def _apply_transfer(w: np.ndarray, r: np.ndarray, t: int) -> np.ndarray:
    """Apply R^xt to the (4^t, n) columns of coefficient vectors over Pauli
    strings, one copy's index at a time over contiguous trailing blocks."""
    n = w.shape[1]
    # r is real, so it acts on the interleaved real and imaginary parts alike
    z = np.ascontiguousarray(w, dtype=complex).view(float)
    # every shape spelled out, as a zero-column stack leaves no -1 to infer
    for j in range(t):
        z = r @ z.reshape(4**j, 4, 4 ** (t - 1 - j) * 2 * n)
    return z.reshape(4**t, 2 * n).view(complex)


def as_bloch(state, parties: int = 2):
    """Coerce a density matrix or Bloch record to the Bloch form."""
    if not isinstance(state, BlochRecord):
        state = bloch_from_density(np.asarray(state, dtype=complex))
    if state.parties != parties:
        raise ValueError(f"expected {parties}-party state, got {state.parties}-party")
    return state


def _index_tuples(r: int, t: int) -> np.ndarray:
    return np.indices((r,) * t).reshape(t, -1).T


@lru_cache(maxsize=None)
def _multisets(r: int, t: int) -> tuple:
    """(tuples, counts): the sorted representative of every multiset of t
    indices below r, in lexicographic order, and its number of orderings."""
    tuples, counts = np.unique(np.sort(_index_tuples(r, t), axis=1), axis=0, return_counts=True)
    tuples.setflags(write=False)
    counts.setflags(write=False)
    return tuples, counts


def _factor_rows(stacks, weights, parties: int, tuples: np.ndarray, counts) -> tuple:
    """(factors, residual): the basis coefficients of each index tuple's
    factor product, per party, with the tuple's weight times ``counts``
    folded into the first party; a two-party table with more rows than |B|
    collapses to [1, P^T Q].  ``residual`` is the largest solve residual."""
    t = tuples.shape[1]
    solved = [_solve_basis(_rhs_for_tuples(f, tuples), t) for f in stacks]
    factors = [x for x, _ in solved]
    if len(factors) < parties:  # symmetric decomposition, B_j = A_j
        factors.append(factors[0])
    factors[0] = (counts * np.prod(weights[tuples], axis=1))[:, None] * factors[0]
    size = factors[0].shape[1]
    if parties == 2 and len(tuples) > size:
        factors = [np.eye(size), factors[0].T @ factors[1]]
    return tuple(factors), max(res for _, res in solved)


def twirl_coefficients(obs, t: int) -> TwirlCoefficients:
    """Coefficient table of the twirled observable at moment order t.

    ``obs`` may be a Hermitian 4x4 matrix, a SchmidtObservable (two
    parties, t <= 6) or a TripartiteObservable (t <= 3).
    """
    if isinstance(obs, np.ndarray):
        obs = schmidt_decompose(obs)
    if isinstance(obs, SchmidtObservable):
        weights = np.asarray(obs.s)
        per_party = [obs.A] if obs.is_symmetric() else [obs.A, obs.B]
        parties = 2
    elif isinstance(obs, TripartiteObservable):
        if t > 3:
            raise ValueError("three-party twirl supports t <= 3")
        weights = np.asarray(obs.weights)
        per_party = [[term[k] for term in obs.terms] for k in range(3)]
        parties = 3
    else:
        raise TypeError(f"unsupported observable type {type(obs)!r}")
    # reshape, not stack: a rank-0 observable has no factors, and its table no rows
    stacks = tuple(np.reshape(f, (-1, 2, 2)) for f in per_party)
    gram, _, cond = _basis_gram(t)
    # a table scales as the t-th power of the weights: an overflow in its
    # factor rows or their Pauli factors is an error, with no RuntimeWarning
    with np.errstate(over="ignore", invalid="ignore"):
        factors, residual = _factor_rows(stacks, weights, parties, *_multisets(len(weights), t))
        diagnostics = EngineDiagnostics(basis_size=len(gram), gram_condition=cond,
                                        solve_residual=residual)
        coeffs = TwirlCoefficients(t, parties, factors, diagnostics, stacks, weights)
    if not all(np.all(np.isfinite(a)) for a in (*factors, *coeffs._pauli)):
        raise OverflowError(f"the order-{t} table of these weights overflows a float")
    return coeffs


def exact_moment(obs, state, t: int) -> float:
    """One-shot exact moment; build twirl_coefficients once when evaluating
    many states against the same observable."""
    return twirl_coefficients(obs, t).moment(state)


# ---------------------------------------------------------------------------
# Invariant dictionaries and moment decompositions
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def dictionary_for(t: int) -> tuple:
    """All monomials in the continuous Makhlin invariants of total degree
    <= t, plus the constant.  The degree bound is forced: a t-th moment is a
    polynomial of degree <= t in the state coefficients."""
    names = ["1"]
    gens = sorted(MakhlinRecord.DEGREES)
    def expand(start, budget, current):
        for i in range(start, len(gens)):
            g = gens[i]
            d = MakhlinRecord.DEGREES[g]
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
    values = makhlin_continuous(state)
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
    idx = sg.cycle_index(3)
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
