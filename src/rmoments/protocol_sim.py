"""Finite-shot simulation of randomized measurement protocols and
end-to-end invariant recovery pipelines.

A protocol run draws K random local frames; within each frame it cycles
through the product terms of the observable (one measurement setting per
term), estimates each term's expectation from M projective shots, sums the
settings, raises to the t-th power and averages over frames.  Powering the
per-frame mean introduces an O(1/M) bias, controlled by M.  The frames are
the Bloch rotations R of ``haar_mc.haar_rotations``: a factor's
eigenprojector P_o has Pauli row (c_o0, c_o'), U^dag P_o U has
(c_o0, c_o' R), and contracting every party's rotated rows into the
state's Pauli tensor gives all frames' outcome probabilities.  Frame drift
turns each party about a fixed axis by the same angle theta, so a drifted
copy's outcome probabilities are a trigonometric polynomial of degree 2n in
theta/2: each frame gets a table of 2n + 1 coefficient columns per outcome,
and every copy of a setting is sampled from that table in one batch.

Recovery pipelines implement the known optimal observable per invariant.
Calibration constants are never taken from an external table: each
pipeline's moment is fitted against an invariant dictionary with the exact
engine (``twirl.fit``).  One evaluator runs every pipeline: it recovers the
prerequisite invariants first, measures the pipeline's moment, inverts the
fitted affine relation and propagates the errors to first order.  It takes
an embedding: none, for a two-qubit state, or a pair AB, BC or AC of a
three-qubit state, which is how Kempe recovery reuses the two-qubit
pipelines.  On a pair the shot protocol measures the identity-padded
settings on the whole state, while the exact path runs the two-party tables
on the pair's marginal: twirling the identity on the third party leaves the
identity, so the padded observable's moment is the marginal's moment.
"""

from dataclasses import asdict, dataclass, field, replace
from functools import lru_cache
from itertools import product

import numpy as np

from . import twirl
from .haar_mc import TILE, MCEstimate, haar_rotations
from .invariants import kempe as kempe_record
from .invariants import makhlin_continuous
from .linalg import is_hermitian, kron_all
from .observables import TripartiteObservable, dense_from_terms
from .paulis import PAULIS, pauli_strings
from .rng import substream
from .states import (BlochRecord, ThreeQubitState, TwoQubitState, pauli_transfer,
                     random_bloch_record, transfer_from_bloch)

_I, _X, _Y, _Z = PAULIS
RECOVERY_TOL = 1e-8
BORN_TOL = 1e-9   # rounding allowance below 0 for a Born-rule probability


@dataclass
class ProtocolConfig:
    """Sampling plan: K random frames, M shots per setting, moment t.

    ``drift_rate`` advances a fixed-axis frame rotation by that many radians
    per prepared copy; ``setting_change_cost`` charges extra drift ticks
    whenever the measured setting changes, modelling the slow reconfiguration
    that makes multi-setting protocols fragile while single-setting ones
    absorb the drift into the random frame.
    """

    unitary_count: int
    shots_per_setting: int
    moment: int
    drift_rate: float = 0.0   # radians of frame drift per prepared copy
    setting_change_cost: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.unitary_count < 1 or self.shots_per_setting < 1:
            raise ValueError("unitary_count and shots_per_setting must be >= 1")
        if self.moment < 1:
            raise ValueError(f"moment must be >= 1, got {self.moment}")
        if self.setting_change_cost < 0 or not np.isfinite(self.drift_rate):
            raise ValueError("setting_change_cost must be >= 0 and drift_rate finite")


@dataclass
class RecoveryReport:
    invariant: str
    estimate: float
    stderr: float
    reference: float
    settings_used: int
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = asdict(self)
        if not self.details:
            del out["details"]
        return out


# ---------------------------------------------------------------------------
# Finite-shot moment estimation
# ---------------------------------------------------------------------------

def _drift_expansion(rho: np.ndarray, n_parties: int) -> np.ndarray:
    """Operators M_e, e = 0..2n, with D rho D^dag = sum_e c^(2n-e) s^e M_e.

    Party p drifts about the fixed axis sigma_(1 + p % 3) (x, y, z cycling),
    so D = prod_p (c - i s sigma_(a_p)) = sum_S c^(n-|S|) (-i s)^|S| sigma_S
    with c = cos(theta/2), s = sin(theta/2), and M_e sums
    (-i)^|S| i^|S'| sigma_S rho sigma_S' over |S| + |S'| = e.
    """
    strings = []
    for subset in product((0, 1), repeat=n_parties):
        factors = [PAULIS[1 + p % 3] if bit else _I for p, bit in enumerate(subset)]
        strings.append((sum(subset), kron_all(factors)))
    out = np.zeros((2 * n_parties + 1,) + rho.shape, dtype=complex)
    for left, sl in strings:
        for right, sr in strings:
            out[left + right] += (-1j) ** left * 1j ** right * (sl @ rho @ sr)
    return out


def simulate_moment(terms, rho, cfg: ProtocolConfig, label: str = "moment",
                    collect_trace: bool = False):
    """Finite-shot estimate of the t-th moment of a sum of product terms.

    Each term must be a product observable (one factor per party); terms
    are measured in separate settings within the same random frame.  With a
    nonzero drift rate the state is conjugated by a slowly advancing local
    rotation D(theta), one increment per prepared copy; single-setting
    protocols absorb the drift into the random frame, multi-setting ones do
    not.  With D rho D^dag = sum_e c^(2n-e) s^e M_e, the traces tr(P M_e)
    per frame and outcome form the table behind every copy's probabilities.
    """
    if len(terms) == 0:
        raise ValueError("simulate_moment needs at least one product term")
    n_parties = len(terms[0])
    for term in terms:
        if len(term) != n_parties or any(np.shape(f) != (2, 2) for f in term):
            raise ValueError(
                "each setting must be a product term: one 2x2 factor per party"
            )
    r = transfer_from_bloch(rho) if isinstance(rho, BlochRecord) else pauli_transfer(rho)
    if not isinstance(rho, BlochRecord) and not is_hermitian(rho, tol=1e-9):
        raise ValueError("the state matrix must be Hermitian")
    if r.ndim != n_parties:
        raise ValueError(f"{r.ndim}-qubit state does not match {n_parties} parties")
    n_set = len(terms)
    k_count, m_shots, t = cfg.unitary_count, cfg.shots_per_setting, cfg.moment
    factors = [[_eigenrows(np.asarray(f, dtype=complex).tobytes()) for f in term]
               for term in terms]
    rng = substream(cfg.seed, "protocol.simulate", label)

    # random frames: per party the entries of R, the Bloch rotation of U,
    # as (3, 3 * frames) rows
    frames = haar_rotations(rng, n_parties, k_count).reshape(n_parties, 3, -1)

    # the state's Pauli tensor, or with drift those of its expansion in the
    # drift angle, each over 2^n
    ops = r[None]
    if cfg.drift_rate != 0.0:
        rho = np.tensordot(r.reshape(-1), pauli_strings(n_parties), 1) / 2**n_parties
        ops = np.array([pauli_transfer(m) for m in _drift_expansion(rho, n_parties)])
    ops = ops.reshape(-1, 4) / 2**n_parties
    estimates = np.empty((k_count, n_set))
    for j, term in enumerate(factors):
        # Born-rule traces for every frame: U^dag P_o U has the Pauli
        # coefficients (c_o0, c_o' R) when P_o has (c_o0, c_o'); contract each
        # party's rotated rows into the operators, last party first, to
        # (outcomes, columns, frames) with party 0's outcome slowest
        acc = ops @ _rotated_rows(term[-1][1], frames[-1])
        for (_, rows), rot in zip(term[-2::-1], frames[-2::-1]):
            acc = np.einsum("ojk,qxjk->oqxk", _rotated_rows(rows, rot),
                            acc.reshape(len(acc), -1, 4, k_count))
            acc = acc.reshape(-1, acc.shape[2], k_count)
        lam_prod = np.ones(1)
        for vals, _ in term:
            lam_prod = np.multiply.outer(lam_prod, vals).ravel()

        if cfg.drift_rate == 0.0:
            probs = _normalised(_born(acc[:, 0]))
            counts = rng.multinomial(m_shots, probs.T)
            estimates[:, j] = counts @ lam_prod / m_shots
        else:
            estimates[:, j] = _drifted_setting(rng, acc.transpose(2, 0, 1), lam_prod,
                                               cfg, j, n_set)

    per_frame = estimates.sum(axis=1) ** t
    mean = float(np.mean(per_frame))
    stderr = float(np.std(per_frame, ddof=1) / np.sqrt(k_count)) if k_count > 1 else 0.0
    est = MCEstimate(mean=mean, stderr=stderr, samples=k_count, seed=cfg.seed)
    if collect_trace:
        return est, estimates
    return est


@lru_cache(maxsize=64)
def _eigenrows(key: bytes) -> tuple:
    """Eigenvalues of a 2x2 factor, given by its complex bytes, and the
    Pauli rows tr(P_o s_mu) of its eigenprojectors, shape (2, 4); both
    read-only.  Raises ValueError for a factor that is not Hermitian."""
    factor = np.frombuffer(key, dtype=complex).reshape(2, 2)
    if not is_hermitian(factor, tol=1e-9):
        raise ValueError("each measured factor must be Hermitian")
    vals, vecs = np.linalg.eigh(factor)
    rows = np.real(np.einsum("ao,sab,bo->os", vecs.conj(), PAULIS, vecs))
    vals.flags.writeable = rows.flags.writeable = False
    return vals, rows


def _rotated_rows(rows: np.ndarray, rot: np.ndarray) -> np.ndarray:
    """Eigenprojector Pauli rows in every frame, (2, 4, frames): the
    identity coefficient, then the Bloch part times the frames' rotation
    entries ``rot``, (3, 3 * frames)."""
    out = np.empty((2, 4, rot.shape[1] // 3))
    out[:, 0] = rows[:, :1]
    out[:, 1:] = (rows[:, 1:] @ rot).reshape(2, 3, -1)
    return out


def _drifted_setting(rng, table, lam_prod, cfg, setting, n_set):
    """Per-frame estimates of one setting when every prepared copy sees an
    advanced drift rotation; outcomes sampled shot by shot.  A copy drifted
    by theta in frame k has outcome probabilities
    sum_e c^(2n-e) s^e table[k, :, e], c = cos(theta/2), s = sin(theta/2).
    Frames go in blocks of at most ``haar_mc.TILE`` copies (one frame when a
    frame has more), one uniform draw per copy in frame-then-shot order.  A
    block holds one plane over its copies per power and per outcome, and
    keeps the association of a per-copy row: powers are repeated products
    ((c c) c) ..., totals those of ``probs.sum(axis=-1)``.  Every step is
    per copy or per frame, so the block size moves no bit of the trace."""
    k_count, m = cfg.unitary_count, cfg.shots_per_setting
    columns = table.shape[2]
    block = m + cfg.setting_change_cost
    shot_idx = np.arange(m)
    step = max(1, TILE // m)
    out = np.empty(k_count)
    for k0 in range(0, k_count, step):
        ks = np.arange(k0, min(k0 + step, k_count))
        counters = ((ks[:, None] * n_set + setting) * block
                    + cfg.setting_change_cost + shot_idx)
        half = (cfg.drift_rate * counters).ravel() / 2.0
        powers = np.empty((columns, 2, half.size))
        powers[0], powers[1] = 1.0, (np.cos(half), np.sin(half))
        for e in range(2, columns):
            np.multiply(powers[e - 1], powers[1], out=powers[e])
        weights = (powers[::-1, 0] * powers[:, 1]).reshape(columns, len(ks), m)
        probs = _born(table[ks] @ weights.transpose(1, 0, 2))
        draws = rng.uniform(size=(len(ks), m))
        picked = _sample_outcomes(_normalised(probs.transpose(1, 0, 2)), draws)
        out[ks] = lam_prod[picked].mean(axis=1)
    return out


def _born(probs: np.ndarray) -> np.ndarray:
    """Outcome probabilities with rounding below 0 clipped away; one below
    -BORN_TOL means the record is not a state and cannot be sampled."""
    if (low := probs.min()) < -BORN_TOL:
        raise ValueError(f"Born-rule probability {low:.3g} < 0: "
                         "the state record is not a density matrix")
    return np.clip(probs, 0.0, None)


def _normalised(planes: np.ndarray) -> np.ndarray:
    """Outcome planes ``(outcomes, ...)`` divided in place by their total,
    added as numpy adds a short contiguous row: in order ((p0 + p1) + p2) ...
    below 8 outcomes, as ((p0 + p1) + (p2 + p3)) + ((p4 + p5) + (p6 + p7)) at 8."""
    p = list(planes)
    if len(p) == 8:
        p = [(p[0] + p[1]) + (p[2] + p[3]), (p[4] + p[5]) + (p[6] + p[7])]
    planes /= sum(p[1:], p[0])
    return planes


def _sample_outcomes(planes: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Inverse-CDF outcome index for uniform draws in [0, 1) from normalised
    outcome planes.  The last CDF entry is taken as 1: a total rounded just
    below 1 would otherwise let a draw above it index past the last outcome."""
    cdf, picked = planes[0].copy(), (draws > planes[0]).astype(np.intp)
    for plane in planes[1:-1]:
        picked += draws > np.add(cdf, plane, out=cdf)
    return picked


# ---------------------------------------------------------------------------
# Two-qubit recovery pipelines (optimal observables per invariant)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Pipeline:
    name: str
    t: int
    terms: tuple            # measurement settings: product terms, 2 parties
    dictionary: tuple       # monomial names spanning the (combined) moment
    target: str             # dictionary entry being recovered
    prerequisites: tuple    # invariants recovered first
    difference: tuple = None  # optional second observable; recover from R1 - R2


def _t(*factors):
    return tuple(np.asarray(f, dtype=complex) for f in factors)


PIPELINES = {
    "I2": Pipeline("I2", 2, (_t(3 * _Z, _Z),), ("1", "I2"), "I2", ()),
    "I4": Pipeline("I4", 2, (_t(np.sqrt(3) * _Z, _I),), ("1", "I4"), "I4", ()),
    "I7": Pipeline("I7", 2, (_t(np.sqrt(3) * _I, _Z),), ("1", "I7"), "I7", ()),
    "I3": Pipeline("I3", 4, (_t(_Z, _Z),),
                   ("1", "I2", "I2*I2", "I3"), "I3", ("I2",)),
    "I5": Pipeline("I5", 4, (_t(_Z, _I + _Z),),
                   ("1", "I2", "I3", "I4", "I2*I2", "I2*I4", "I4*I4", "I5"),
                   "I5", ("I2", "I3", "I4")),
    "I8": Pipeline("I8", 4, (_t(_I + _Z, _Z),),
                   ("1", "I2", "I3", "I7", "I2*I2", "I2*I7", "I7*I7", "I8"),
                   "I8", ("I2", "I3", "I7")),
    "I12": Pipeline("I12", 3, (_t(_I + _Z, _I + _Z),),
                    ("1", "I2", "I4", "I7", "I12"), "I12", ("I2", "I4", "I7")),
    "I13": Pipeline("I13", 5, (_t(_I + _Z, _I + _Z),),
                    ("1", "I2", "I4", "I7", "I12", "I3", "I5", "I8",
                     "I2*I2", "I2*I4", "I2*I7", "I4*I4", "I4*I7", "I7*I7",
                     "I12*I2", "I12*I4", "I12*I7", "I13"),
                    "I13", ("I2", "I3", "I4", "I5", "I7", "I8", "I12")),
    # auxiliary: det(T)^2 is type-1 accessible and feeds the sixth-moment rows
    "detsq": Pipeline("detsq", 6, (_t(_Z, _Z),),
                      ("1", "I2*I3", "I2*I2*I2", "I1*I1"), "I1*I1", ("I2", "I3")),
    "I6": Pipeline("I6", 6, (_t(_Z, _I + _Z),),
                   ("1", "I1*I1", "I2*I3", "I2*I2*I2", "I2*I2*I4", "I2*I4*I4",
                    "I4*I4*I4", "I3*I4", "I2*I5", "I4*I5", "I6"),
                   "I6", ("I2", "I3", "I4", "I5", "detsq")),
    "I9": Pipeline("I9", 6, (_t(_I + _Z, _Z),),
                   ("1", "I1*I1", "I2*I3", "I2*I2*I2", "I2*I2*I7", "I2*I7*I7",
                    "I7*I7*I7", "I3*I7", "I2*I8", "I7*I8", "I9"),
                   "I9", ("I2", "I3", "I7", "I8", "detsq")),
    "det": Pipeline("det", 3, (_t(_X, _X), _t(_Y, _Y), _t(_Z, _Z)),
                    ("1", "I2", "I4", "I7", "I12", "I1"), "I1", ()),
    "hodge": Pipeline("hodge", 4,
                      (_t(_I, _X), _t(_X, _I), _t(_Y, _Z), _t(_Z, _Y)),
                      ("1", "I14"), "I14", (),
                      difference=(_t(_I, _X), _t(_X, _I), _t(_Y, _Z), _t(-_Z, _Y))),
}

TABLE_ROWS = ("I2", "I3", "I4", "I5", "I6", "I7", "I8", "I9", "I12", "I13", "det", "hodge")

#: tensor rank each full recovery procedure cycles through
EXPECTED_SETTINGS = {
    "I2": 1, "I3": 1, "I4": 1, "I5": 1, "I6": 1, "I7": 1, "I8": 1, "I9": 1,
    "I12": 1, "I13": 1, "det": 3, "hodge": 4,
}


@lru_cache(maxsize=None)
def _pipeline_engines(name: str):
    """Exact coefficient tables for each measurement setting group."""
    pipe = PIPELINES[name]
    groups = (pipe.terms,) if pipe.difference is None else (pipe.terms, pipe.difference)
    return tuple(twirl.twirl_coefficients(dense_from_terms(terms, np.ones(len(terms)), 2), pipe.t)
                 for terms in groups)


@lru_cache(maxsize=None)
def calibrate(name: str) -> tuple:
    """Fitted affine expansion of the pipeline's (combined) moment over its
    dictionary; raises if the dictionary does not span the moment."""
    pipe = PIPELINES[name]
    engines = _pipeline_engines(name)
    states = twirl._fit_states(max(3 * len(pipe.dictionary), 24), 977, f"pipeline-{name}")
    design = np.array([twirl.eval_monomials(pipe.dictionary, s) for s in states])
    y = engines[0].moments(states)
    if pipe.difference is not None:
        y = y - engines[1].moments(states)
    dec = twirl.fit(pipe.dictionary, design, y)
    if dec.residual > RECOVERY_TOL:
        raise twirl.EngineError(
            f"pipeline {name}: dictionary does not span the moment (residual {dec.residual:.2e})"
        )
    return tuple(dec.coefficients)


COEFF_NEGLIGIBLE = 1e-9


def _measure(name: str, state, cfg: ProtocolConfig, pair: str, cache: dict):
    """(value, stderr) of pipeline ``name``'s moment, combined over its
    difference observable: exact with ``cfg = None``, else finite-shot.
    ``pair`` embeds the pipeline into that pair of a three-qubit state,
    whose marginal record the exact path builds once into ``cache`` under
    ``("marginal", pair)``.  A finite-shot run keeps the per-(frame,
    setting) estimates of its primary observable in ``cache`` under
    ``("trace", name, pair)``."""
    pipe = PIPELINES[name]
    if cfg is None:
        if pair is not None:
            if ("marginal", pair) not in cache:
                cache["marginal", pair] = marginal_bloch(state, pair)
            state = cache["marginal", pair]
        engines = _pipeline_engines(name)
        value = engines[0].moment(state)
        if pipe.difference is not None:
            value -= engines[1].moment(state)
        return value, 0.0
    run = replace(cfg, moment=pipe.t)
    label = name if pair is None else f"{name}-{pair}"
    est, cache[("trace", name, pair)] = simulate_moment(
        _pad_terms(pipe.terms, pair), state, run, label=label, collect_trace=True)
    value, err = est.mean, est.stderr
    if pipe.difference is not None:
        est2 = simulate_moment(_pad_terms(pipe.difference, pair), state, run,
                               label=label + "-minus")
        value -= est2.mean
        err = float(np.hypot(err, est2.stderr))
    return value, err


def _evaluate(name: str, state, cfg: ProtocolConfig, pair: str, cache: dict):
    """(estimate, stderr, settings) of pipeline ``name`` on ``state`` or on
    its ``pair``.  Prerequisites are recovered first and shared through
    ``cache``; ``settings`` is the largest tensor rank of the procedure."""
    key = (name, pair)
    if key in cache:
        return cache[key]
    pipe = PIPELINES[name]
    known_values, known_errs, settings = {}, {}, len(pipe.terms)
    for pre in pipe.prerequisites:
        value, err, pre_settings = _evaluate(pre, state, cfg, pair, cache)
        monomial = PIPELINES[pre].target
        known_values[monomial] = value
        known_errs[monomial] = err
        settings = max(settings, pre_settings)
    coeffs = calibrate(name)
    rest, err = _measure(name, state, cfg, pair, cache)
    for nm, c in zip(pipe.dictionary, coeffs):
        if nm != pipe.target and abs(c) > COEFF_NEGLIGIBLE:
            rest -= c * twirl.eval_monomial(nm, known_values)
            err += abs(c) * _monomial_error(nm, known_values, known_errs)
    target_c = coeffs[pipe.dictionary.index(pipe.target)]
    cache[key] = (float(rest / target_c), float(err / abs(target_c)), settings)
    return cache[key]


def recover_invariant(name: str, state, cfg: ProtocolConfig = None,
                      _cache: dict = None) -> RecoveryReport:
    """Recover one invariant from randomized-measurement moments.

    With ``cfg = None`` moments come from the exact engine, which isolates
    the pipeline algebra from statistical noise; otherwise every moment
    (including prerequisite ones) is estimated by the finite-shot protocol.
    ``settings_used`` reports the largest tensor rank the full procedure
    cycles through.  ``_cache`` shares prerequisites and the reference
    Makhlin record between calls on the same state.
    """
    if name not in PIPELINES:
        raise KeyError(f"unknown invariant pipeline {name!r}")
    state = twirl.as_bloch(state, parties=2)
    cache = {} if _cache is None else _cache
    estimate, stderr, settings = _evaluate(name, state, cfg, None, cache)
    if "makhlin" not in cache:
        cache["makhlin"] = makhlin_continuous(state)
    rec = cache["makhlin"]
    return RecoveryReport(
        invariant=name,
        estimate=estimate,
        stderr=stderr,
        reference=float(rec["I1"]**2 if name == "detsq" else rec[PIPELINES[name].target]),
        settings_used=settings,
    )


def _monomial_error(name: str, values: dict, errors: dict) -> float:
    """First-order error propagation through a product of recovered values;
    zero for the constant and for monomials fixed without error."""
    if name in errors:
        return errors[name]
    gens = name.split("*")
    total = 0.0
    for i, g in enumerate(gens):
        partial = 1.0
        for j, h in enumerate(gens):
            if j != i:
                partial *= abs(values[h])
        total += partial * errors.get(g, 0.0)
    return total


def recover_all(state, cfg: ProtocolConfig = None) -> dict:
    """Recover every Table row, sharing prerequisite recoveries."""
    state = twirl.as_bloch(state, parties=2)
    cache = {}
    return {name: recover_invariant(name, state, cfg, _cache=cache) for name in TABLE_ROWS}


# ---------------------------------------------------------------------------
# Kempe recovery (three qubits)
# ---------------------------------------------------------------------------

THREE_QUBIT_MONOMIALS = (
    "1", "a2", "b2", "g2", "Tab2", "Tbc2", "Tca2",
    "aTABb", "bTBCg", "gTCAa",
    "W2", "WABg", "WCAb", "WBCa", "TTT",
    "detAB", "detBC", "detCA",
)

KEMPE_TARGETS = ("W2", "WABg", "WCAb", "WBCa", "TTT")


def eval_three_qubit_monomials(names, state: ThreeQubitState) -> np.ndarray:
    rec = kempe_record(state)
    vals = {
        "1": 1.0,
        "a2": float(state.alpha @ state.alpha),
        "b2": float(state.beta @ state.beta),
        "g2": float(state.gamma @ state.gamma),
        "Tab2": float(np.trace(state.TAB.T @ state.TAB)),
        "Tbc2": float(np.trace(state.TBC.T @ state.TBC)),
        "Tca2": float(np.trace(state.TCA.T @ state.TCA)),
        "aTABb": float(state.alpha @ state.TAB @ state.beta),
        "bTBCg": float(state.beta @ state.TBC @ state.gamma),
        "gTCAa": float(state.gamma @ state.TCA @ state.alpha),
        "W2": rec.w_norm_sq,
        "WABg": rec.cross_ab_g,
        "WCAb": rec.cross_ca_b,
        "WBCa": rec.cross_bc_a,
        "TTT": rec.trTTT,
        "detAB": float(np.linalg.det(state.TAB)),
        "detBC": float(np.linalg.det(state.TBC)),
        "detCA": float(np.linalg.det(state.TCA)),
    }
    return np.array([vals[n] for n in names])


def kempe_observables() -> dict:
    """The tensor-rank-2 observable set that decouples the five degree-3
    companions, plus the rank-1 product that measures their fixed
    combination."""
    d = _I - _X
    e = _I + _Z
    return {
        "w_norm": TripartiteObservable([(_I, _I, _I), (_Z, _Z, _Z)]),
        "cross_c": TripartiteObservable([(_I, _I, d), (_Z, _Z, d)]),
        "cross_b": TripartiteObservable([(_I, d, _I), (_Z, d, _Z)]),
        "cross_a": TripartiteObservable([(d, _I, _I), (d, _Z, _Z)]),
        "combo": TripartiteObservable([(e, e, e)]),
    }


@lru_cache(maxsize=None)
def _kempe_calibration() -> tuple:
    """Exact table and three-qubit dictionary fit of each Kempe observable, keyed
    like ``kempe_observables``; the read-only target-coefficient matrix theta; its pinv."""
    rng = substream(977, "kempe.calibration")
    states = [random_bloch_record(3, rng) for _ in range(4 * len(THREE_QUBIT_MONOMIALS))]
    design = np.array([eval_three_qubit_monomials(THREE_QUBIT_MONOMIALS, s) for s in states])
    out = {}
    for key, obs in kempe_observables().items():
        table = twirl.twirl_coefficients(obs, 3)
        dec = twirl.fit(THREE_QUBIT_MONOMIALS, design, table.moments(states))
        if dec.residual > RECOVERY_TOL:
            raise twirl.EngineError(f"Kempe calibration residual {dec.residual:.2e} for {key}")
        out[key] = (table, dec.coefficients)
    targets = [THREE_QUBIT_MONOMIALS.index(t) for t in KEMPE_TARGETS]
    theta = np.array([[coeffs[i] for i in targets] for _, coeffs in out.values()])
    theta_inv = np.linalg.pinv(theta)
    theta.flags.writeable = theta_inv.flags.writeable = False
    return out, theta, theta_inv


def _pad_terms(terms, pair: str):
    """Embed two-party product terms into three parties, identity on the
    party missing from ``pair`` (one of AB, BC, AC); ``None`` keeps them."""
    if pair is None:
        return terms
    gap = {"AB": 2, "BC": 0, "AC": 1}[pair]
    return tuple(tuple(term[:gap]) + (_I,) + tuple(term[gap:]) for term in terms)


def marginal_bloch(state: ThreeQubitState, pair: str) -> TwoQubitState:
    if pair == "AB":
        return TwoQubitState(state.alpha, state.beta, state.TAB)
    if pair == "BC":
        return TwoQubitState(state.beta, state.gamma, state.TBC)
    if pair == "AC":
        return TwoQubitState(state.alpha, state.gamma, state.TCA.T)
    raise ValueError("pair must be AB, BC or AC")


#: the pipeline and pair whose recovered value is each marginal monomial
_MARGINAL_MONOMIALS = {
    "a2": ("I4", "AB"), "b2": ("I7", "AB"), "g2": ("I7", "BC"),
    "Tab2": ("I2", "AB"), "Tbc2": ("I2", "BC"), "Tca2": ("I2", "AC"),
    "aTABb": ("I12", "AB"), "bTBCg": ("I12", "BC"), "gTCAa": ("I12", "AC"),
}


def recover_kempe(state, cfg: ProtocolConfig = None) -> RecoveryReport:
    """Recover the Kempe invariant with tensor-rank-2 settings.

    The five rank-<=2 observables isolate ||W||^2, the three W-correlation
    cross terms and tr(TAB TBC TCA); all remaining ingredients are
    recovered through rank-1 two-qubit pipelines on single pairs.
    """
    state = twirl.as_bloch(state, parties=3)
    calib, theta, theta_inv = _kempe_calibration()
    names = THREE_QUBIT_MONOMIALS

    # rank-1 pair recoveries feeding the linear system and the final sum
    cache = {}
    known = {"1": 1.0, "detAB": 0.0, "detBC": 0.0, "detCA": 0.0}
    known_err = {}
    for nm, (pipeline, pair) in _MARGINAL_MONOMIALS.items():
        known[nm], known_err[nm], _ = _evaluate(pipeline, state, cfg, pair, cache)

    # linear system Theta @ targets = R - known part, R the moments of the
    # five decoupling observables
    rhs, rhs_err = np.empty((2, len(calib)))
    for row, (key, obs) in enumerate(kempe_observables().items()):
        if cfg is None:
            rest, err = calib[key][0].moment(state), 0.0
        else:
            est = simulate_moment(obs.terms, state, replace(cfg, moment=3),
                                  label=f"kempe-{key}")
            rest, err = est.mean, est.stderr
        for nm, c in zip(names, calib[key][1]):
            if nm not in KEMPE_TARGETS:
                rest -= c * known[nm]
                err += abs(c) * _monomial_error(nm, known, known_err)
        rhs[row], rhs_err[row] = rest, err
    targets, *_ = np.linalg.lstsq(theta, rhs, rcond=None)
    target_vals = dict(zip(KEMPE_TARGETS, targets))
    target_errs = dict(zip(KEMPE_TARGETS, np.abs(theta_inv) @ rhs_err))

    estimate = (
        1.0 + known["a2"] + known["b2"] + known["g2"]
        + known["aTABb"] + known["bTBCg"] + known["gTCAa"]
        + target_vals["TTT"]
    ) / 8.0
    stderr = (
        sum(known_err[k] for k in ("a2", "b2", "g2", "aTABb", "bTBCg", "gTCAa"))
        + target_errs["TTT"]
    ) / 8.0
    ref = kempe_record(state)
    return RecoveryReport(
        invariant="kempe",
        estimate=float(estimate),
        stderr=float(stderr),
        reference=ref.kempe,
        settings_used=2,
        details={
            "w_norm_sq": float(target_vals["W2"]),
            "w_norm_sq_reference": ref.w_norm_sq,
            "trTTT": float(target_vals["TTT"]),
            "trTTT_reference": ref.trTTT,
        },
    )
