"""One-command numerical verification of the package's structural claims.

Every check exercises a mathematical statement at desk scale -- exact-zero
claims are tested in floating point against tolerances sitting well above
accumulated solver error -- and reports a machine-readable pass/fail entry.
Checks are independent, deterministic per seed, and runnable in isolation.
"""

import functools
import time
from dataclasses import dataclass, field
from itertools import product as _product

import numpy as np

from . import protocol_sim as ps
from . import symgroup as sg
from . import twirl
from .haar_mc import mc_moment
from .invariants import makhlin_continuous
from .linalg import kron, nullspace
from .observables import (
    TripartiteObservable,
    det_prefactor,
    pauli_sum_observable,
    random_hermitian,
    random_orthonormal_hermitian,
    random_rank_observable,
    random_symmetric_observable,
    rotated_pauli_sum,
)
from .paulis import PAULIS
from .rng import substream
from .states import (
    bell_state,
    bloch_from_density,
    density_from_bloch,
    ghz_state,
    partial_transpose_bloch,
    random_bloch_record,
    random_state,
)

_I, _X, _Y, _Z = PAULIS


@dataclass
class CheckResult:
    claim: str
    statement: str
    trials: int
    max_deviation: float
    tolerance: float
    passed: bool
    seconds: float

    def as_dict(self) -> dict:
        return {
            "claim": self.claim,
            "statement": self.statement,
            "trials": int(self.trials),
            "max_deviation": float(self.max_deviation),
            "tolerance": float(self.tolerance),
            "passed": bool(self.passed),
            "seconds": round(float(self.seconds), 3),
        }


@dataclass
class VerificationReport:
    seed: int
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(bool(c.passed) for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "passed": bool(self.passed),
            "checks": [c.as_dict() for c in self.checks],
        }


#: claim id -> registered check, in definition order
ALL_CHECKS = {}


def register(claim: str, statement: str, tolerance: float):
    """Register the decorated check body under ``claim``.

    The body takes the seed (and optional size keywords) and returns
    ``(trials, max_deviation, passed)``.  The registered check times the
    body and returns its ``CheckResult``; it keeps the body's name, so
    ``verify.check_x(seed, ...)`` and ``ALL_CHECKS[claim](seed)`` are the
    same callable.
    """
    def wrap(body):
        @functools.wraps(body)
        def check(seed: int, **sizes) -> CheckResult:
            t0 = time.perf_counter()
            trials, dev, passed = body(seed, **sizes)
            return CheckResult(claim, statement, trials, dev, tolerance, passed,
                               time.perf_counter() - t0)

        ALL_CHECKS[claim] = check
        return check

    return wrap


_T3_NAMES = ("1", "I4", "I7", "I2", "I12", "I1")


def _t3_fit_setup(rng, count=24):
    states = [random_bloch_record(2, rng) for _ in range(count)]
    design = np.array([twirl.eval_monomials(_T3_NAMES, s) for s in states])
    return states, design


# ---------------------------------------------------------------------------
# registered checks
# ---------------------------------------------------------------------------

@register("gram_values", "permutation Gram matrix at t=3, d=2 equals the exact integer table", 0.0)
def check_gram_values(seed: int):
    expected = np.array([
        [8, 4, 4, 4, 2, 2],
        [4, 8, 2, 2, 4, 4],
        [4, 2, 8, 2, 4, 4],
        [4, 2, 2, 8, 4, 4],
        [2, 4, 4, 4, 2, 8],
        [2, 4, 4, 4, 8, 2],
    ])
    g = sg.gram_matrix(3, 2)
    dev = float(np.max(np.abs(g - expected)))
    return 1, dev, dev == 0.0


#: kernel combinations of permutation operators at t=4, d=2, encoded as
#: {cycle string: coefficient}; each must satisfy sum_pi k_pi V_pi = 0
KERNEL_COMBOS_T4 = (
    {"()": 3, "(12)": -1, "(13)": -2, "(14)": -1, "(23)": -1, "(24)": -2,
     "(34)": -1, "(12)(34)": -1, "(13)(24)": 1, "(14)(23)": -1,
     "(123)": 1, "(124)": 1, "(134)": 1, "(234)": 1, "(1432)": 2},
    {"()": 1, "(12)": -1, "(14)": -1, "(23)": 1, "(34)": -1, "(12)(34)": 1,
     "(13)(24)": -1, "(14)(23)": -1, "(123)": -1, "(124)": 1, "(134)": 1,
     "(234)": -1, "(1423)": 2},
    {"()": 1, "(12)": -1, "(14)": -1, "(23)": -1, "(34)": 1, "(12)(34)": -1,
     "(13)(24)": -1, "(14)(23)": 1, "(123)": 1, "(124)": 1, "(134)": -1,
     "(234)": -1, "(1342)": 2},
    {"()": 1, "(12)": -1, "(14)": 1, "(23)": -1, "(34)": -1, "(12)(34)": 1,
     "(13)(24)": -1, "(14)(23)": -1, "(123)": 1, "(124)": -1, "(134)": -1,
     "(234)": 1, "(1324)": 2},
    {"()": 1, "(12)": 1, "(14)": -1, "(23)": -1, "(34)": -1, "(12)(34)": -1,
     "(13)(24)": -1, "(14)(23)": 1, "(123)": -1, "(124)": -1, "(134)": 1,
     "(234)": 1, "(1243)": 2},
    {"()": -1, "(12)": 1, "(14)": 1, "(23)": 1, "(34)": 1, "(12)(34)": -1,
     "(13)(24)": 1, "(14)(23)": -1, "(123)": -1, "(124)": -1, "(134)": -1,
     "(234)": -1, "(1234)": 2},
    {"()": 1, "(23)": -1, "(24)": -1, "(34)": -1, "(234)": 1, "(243)": 1},
    {"()": 1, "(13)": -1, "(14)": -1, "(34)": -1, "(134)": 1, "(143)": 1},
    {"()": 1, "(12)": -1, "(14)": -1, "(24)": -1, "(124)": 1, "(142)": 1},
    {"()": 1, "(12)": -1, "(13)": -1, "(23)": -1, "(123)": 1, "(132)": 1},
)


@register("kernel_facts", "t=3 Gram kernel is one-dimensional spanning (1,-1,-1,-1,1,1); "
          "t=4 kernel is 10-dimensional containing the listed operator identities", 1e-9)
def check_kernel_facts(seed: int):
    devs = []
    g3 = sg.gram_matrix(3, 2)
    k3 = nullspace(g3)
    devs.append(abs(k3.shape[1] - 1))
    v = k3[:, 0] / k3[0, 0]
    devs.append(float(np.max(np.abs(v - np.array([1, -1, -1, -1, 1, 1])))))
    # the kernel vector is an operator identity
    op = sum(c * sg.v_matrix(p, 2) for c, p in zip(v, sg.enumerate_group(3)))
    devs.append(float(np.max(np.abs(op))))

    g4 = sg.gram_matrix(4, 2)
    k4 = nullspace(g4)
    devs.append(abs(k4.shape[1] - 10))
    perms4, index = sg.enumerate_group(4), sg.cycle_index(4)
    proj = k4 @ k4.T  # orthogonal projector onto the kernel
    for combo in KERNEL_COMBOS_T4:
        vec = np.zeros(24)
        for name, c in combo.items():
            vec[index[name]] = c
        devs.append(float(np.max(np.abs(proj @ vec - vec))))
        op = sum(c * sg.v_matrix(perms4[index[nm]], 2) for nm, c in combo.items())
        devs.append(float(np.max(np.abs(op))))
    dev = float(max(devs))
    return len(KERNEL_COMBOS_T4) + 2, dev, dev <= 1e-9


@register("det_identity", "third moment of the Pauli-sum observable equals det(T) exactly", 1e-10)
def check_det_identity(seed: int):
    co = twirl.twirl_coefficients(pauli_sum_observable(), 3)
    dev = 0.0
    n = 100
    for i in range(n):
        kind = "pure" if i % 2 else "mixed"
        st = bloch_from_density(random_state(kind, 2, seed * 100003 + i))
        dev = max(dev, abs(co.moment(st) - float(np.linalg.det(st.T))))
    return n, dev, dev <= 1e-10


@register("engine_vs_mc", "exact moments match plain Monte Carlo within 3 standard errors "
          "in at least 95% of random (observable, state, t<=4) triples", 0.05)
def check_engine_vs_mc(seed: int, triples: int = 50, samples: int = 100_000):
    rng = substream(seed, "verify", "engine_vs_mc")
    hits = 0
    worst_pull = 0.0
    for i in range(triples):
        t = int(rng.integers(1, 5))
        rank = int(rng.integers(1, 5))
        obs = random_rank_observable(rng, rank)
        rho = random_state("mixed" if i % 2 else "pure", 2, seed * 7919 + i)
        exact = twirl.twirl_coefficients(obs, t).moment(bloch_from_density(rho))
        est = mc_moment(obs.matrix(), rho, t, samples, seed=seed * 31 + i)
        pull = abs(exact - est.mean) / est.stderr if est.stderr > 0 else 0.0
        worst_pull = max(worst_pull, pull)
        if abs(exact - est.mean) <= 3.0 * est.stderr:
            hits += 1
    frac = hits / triples
    return triples, 1.0 - frac, frac >= 0.95


@register("pt_product_invariance", "product-observable moments are invariant under partial "
          "transposition of the state for all t <= 4", 1e-10)
def check_pt_product_invariance(seed: int, pairs: int = 100):
    rng = substream(seed, "verify", "pt_product_invariance")
    dev = 0.0
    for i in range(pairs):
        obs = kron(random_hermitian(rng), random_hermitian(rng))
        st = random_bloch_record(2, rng)
        stp = partial_transpose_bloch(st)
        for t in (1, 2, 3, 4):
            co = twirl.twirl_coefficients(obs, t)
            dev = max(dev, abs(co.moment(st) - co.moment(stp)))
    return pairs * 4, dev, dev <= 1e-10


@register("pt_invariant_flips", "partial transposition flips exactly det(T) and the Hodge "
          "invariant among the continuous invariants", 1e-10)
def check_pt_invariant_flips(seed: int, count: int = 100):
    rng = substream(seed, "verify", "pt_invariant_flips")
    dev = 0.0
    even = [n for n in ("I2", "I3", "I4", "I5", "I6", "I7", "I8", "I9", "I12", "I13")]
    for _ in range(count):
        st = random_bloch_record(2, rng)
        a = makhlin_continuous(st)
        b = makhlin_continuous(partial_transpose_bloch(st))
        dev = max(dev, abs(a["I1"] + b["I1"]), abs(a["I14"] + b["I14"]))
        for nm in even:
            dev = max(dev, abs(a[nm] - b[nm]))
    return count, dev, dev <= 1e-10


@register("det_type3_lower", "tensor rank <= 2 forces a vanishing det(T) coefficient in "
          "third moments", 1e-9)
def check_det_type3_lower(seed: int, count: int = 1000):
    rng = substream(seed, "verify", "det_type3_lower")
    states, design = _t3_fit_setup(rng)
    dev = 0.0
    for _ in range(count):
        rank = 1 + int(rng.integers(0, 2))
        co = twirl.twirl_coefficients(random_rank_observable(rng, rank), 3)
        dev = max(dev, abs(twirl.fit(_T3_NAMES, design, co.moments(states)).coefficient("I1")))
    return count, dev, dev <= 1e-9


@register("det_prefactor_formula", "the fitted det(T) coefficient equals the Gram-determinant "
          "prefactor formula for tensor ranks 1 through 4", 1e-8)
def check_det_prefactor_formula(seed: int, count: int = 200):
    rng = substream(seed, "verify", "det_prefactor_formula")
    states, design = _t3_fit_setup(rng)
    dev = 0.0
    for i in range(count):
        rank = 1 + i % 4
        obs = random_rank_observable(rng, rank)
        co = twirl.twirl_coefficients(obs, 3)
        sol = twirl.fit(_T3_NAMES, design, co.moments(states))
        dev = max(dev, abs(sol.coefficient("I1") - det_prefactor(obs)))
    return count, dev, dev <= 1e-8


@register("det_only_symmetric", "rotated Pauli sums measure s1 s2 s3 det(T)/8 and nothing else; "
          "no symmetric rank-4 observable measures the determinant alone", 1e-9)
def check_det_only_symmetric(seed: int, family: int = 50, generic: int = 500):
    rng = substream(seed, "verify", "det_only_symmetric")
    states, design = _t3_fit_setup(rng)
    dev = 0.0
    non_det_cols = [_T3_NAMES.index(n) for n in ("1", "I4", "I7", "I2", "I12")]
    for _ in range(family):
        s = rng.uniform(0.5, 2.5, 3)
        obs = rotated_pauli_sum(rng, s)
        sol = twirl.fit(_T3_NAMES, design, twirl.twirl_coefficients(obs, 3).moments(states))
        dev = max(dev, abs(sol.coefficient("I1") - np.prod(s) / 8.0))
        dev = max(dev, float(np.max(np.abs(sol.coefficients[non_det_cols]))))
    floor = np.inf
    for _ in range(generic):
        obs = random_symmetric_observable(rng, 4)
        sol = twirl.fit(_T3_NAMES, design, twirl.twirl_coefficients(obs, 3).moments(states))
        floor = min(floor, float(np.max(np.abs(sol.coefficients[non_det_cols[1:]]))))
    passed = dev <= 1e-9 and floor > 1e-6
    return (family + generic,
            float(dev if dev > 1e-9 else (0.0 if floor > 1e-6 else 1e-6 - floor)), passed)


_FOUR_CYCLE_INVERSES = {"(1234)": "(1432)", "(1243)": "(1342)", "(1324)": "(1423)"}


@register("det_t4_nogo", "tensor rank <= 2 kills the PT-odd sector of fourth moments; "
          "reduced-gauge coefficients are symmetric under 4-cycle inversion", 1e-9)
def check_det_t4_nogo(seed: int, count: int = 200):
    rng = substream(seed, "verify", "det_t4_nogo")
    dev = 0.0
    for i in range(count):
        rank = 1 + i % 2
        obs = random_rank_observable(rng, rank)
        fit = twirl.odd_fit(obs, 4)
        dev = max(dev, float(np.max(np.abs(fit.coefficients))), fit.residual)
    # coefficient symmetry under 4-cycle inversion, reduced gauge, rank 2
    index = sg.cycle_index(4)
    for _ in range(20):
        frame = random_orthonormal_hermitian(rng, 2)
        for jj in _product(range(2), repeat=4):
            x = twirl.gauge_fix(twirl.solve_factor_coefficients([frame[j] for j in jj]), 4)
            for a, b in _FOUR_CYCLE_INVERSES.items():
                dev = max(dev, abs(x[index[a]] - x[index[b]]))
    return count + 20 * 16, dev, dev <= 1e-9


def _condition_expressions(a, b, c):
    """The six trace conditions whose vanishing blocks a Hodge term at t=4
    for tensor rank <= 3 (orthonormal {a, b, c})."""
    tr = lambda m: complex(np.trace(m))
    comm = b @ c - c @ b
    return (
        -2 * tr(a) ** 4 + 6 * tr(a) ** 2 - 4 * tr(a @ a @ a) * tr(a),
        -2 * tr(a) ** 3 * tr(b) + 6 * tr(a) * tr(b) - 4 * tr(a @ a @ a) * tr(b),
        -2 * tr(a) ** 3 * tr(b) + 2 * tr(a) * tr(b) - 4 * tr(a @ a @ b) * tr(a),
        -2 * tr(a) ** 2 * tr(b) ** 2 + 2 * tr(b) ** 2 - 4 * tr(a @ a @ b) * tr(b),
        -2 * tr(a) ** 2 * tr(b) * tr(c) - 4 * tr(a @ b @ c) * tr(a) + 2 * tr(a @ a @ comm),
        -2 * tr(a) ** 2 * tr(b) * tr(c) + 2 * tr(b) * tr(c) - 4 * tr(a @ a @ b) * tr(c),
    )


@register("hodge_t4_nogo", "[known false at rank 3] tensor rank <= 3 forces a vanishing "
          "Hodge coefficient at t=4; the six orthonormal-trace conditions "
          "vanish and the gauge-fixed 3-cycle coefficient matches its "
          "closed form", 1e-9)
def check_hodge_t4_nogo(seed: int, count: int = 200):
    """Tests the claim that tensor rank <= 3 forces a vanishing Hodge
    coefficient in fourth moments.  The claim is FALSE for rank 3: the
    fixpoint-free 4-cycle pairs (pi, pi) and (pi, pi^-1) carry the odd
    combination -(6 det T + Hodge)/16 (see check_hodge_rank3_structure),
    so any rank-3 observable with a fourth-moment det dependence carries
    the Hodge invariant in the fixed 1:6 ratio with it.  The check is kept
    as stated and reports the honest failure; the companion structure
    check pins the corrected statement.
    """
    rng = substream(seed, "verify", "hodge_t4_nogo")
    dev_coeff = 0.0
    for i in range(count):
        rank = 1 + i % 3
        obs = random_rank_observable(rng, rank)
        fit = twirl.odd_fit(obs, 4)
        dev_coeff = max(dev_coeff, abs(fit.coefficient("I14")), fit.residual)
    dev_cond = 0.0
    index = sg.cycle_index(4)
    for _ in range(30):
        a, b, c = random_orthonormal_hermitian(rng, 3)
        dev_cond = max(dev_cond, max(abs(e) for e in _condition_expressions(a, b, c)))
    # gauge-fixed 3-cycle coefficient against its closed form
    dev_closed = 0.0
    for _ in range(6):
        frame = random_orthonormal_hermitian(rng, 3)
        for jj in _product(range(3), repeat=4):
            f = [frame[j] for j in jj]
            x = twirl.gauge_fix(twirl.solve_factor_coefficients(f), 4)
            tau = [complex(np.trace(m)) for m in f]
            dd = lambda p, q: 1.0 if jj[p] == jj[q] else 0.0
            comm = lambda p, q: f[p] @ f[q] - f[q] @ f[p]
            rhs = (
                -2 * tau[0] * tau[1] * tau[2] * tau[3]
                + 2 * (tau[2] * tau[3] * dd(0, 1) + tau[1] * tau[3] * dd(0, 2)
                       + tau[0] * tau[3] * dd(1, 2))
                - 4 * np.trace(f[0] @ f[1] @ f[2]) * tau[3]
                + np.trace(f[0] @ comm(1, 2) @ f[3])
                + np.trace(f[2] @ comm(0, 1) @ f[3])
                + np.trace(f[1] @ comm(2, 0) @ f[3])
            )
            dev_closed = max(dev_closed, abs(6 * x[index["(123)"]] - rhs))
    dev = max(dev_coeff, dev_cond, dev_closed)
    return (count + 30 + 6 * 81, dev,
            dev_coeff <= 1e-9 and dev_cond <= 1e-10 and dev_closed <= 1e-9)


@register("hodge_rank3_structure",
          "the PT-odd sector of rank-<=3 fourth moments is spanned by the "
          "single combination 6 det(T) + Hodge, generically nonzero at rank 3", 1e-9)
def check_hodge_rank3_structure(seed: int, count: int = 120):
    """The corrected fourth-moment statement: the PT-odd sector of a
    tensor-rank-3 observable is exactly proportional to 6 det(T) + Hodge
    (empty for rank <= 2, two-dimensional only at rank 4), because the
    fixpoint-free pairs (pi, pi) and (pi, pi^-1) of 4-cycles contribute
    -+(6 det T + Hodge)/16 to tr(rho^x4 V_piA x V_piB)."""
    rng = substream(seed, "verify", "hodge_rank3_structure")
    states = [random_bloch_record(2, rng) for _ in range(16)]
    combo = np.array([6.0 * v["I1"] + v["I14"] for v in map(makhlin_continuous, states)])
    design = combo[:, None]
    dev = 0.0
    seen_nonzero = 0.0
    for i in range(count):
        rank = 1 + i % 3
        obs = random_rank_observable(rng, rank)
        co = twirl.twirl_coefficients(obs, 4)
        sol = twirl.fit(("6*I1+I14",), design, np.array([twirl.odd_part(co, s, 4) for s in states]))
        dev = max(dev, sol.residual)
        if rank == 3:
            seen_nonzero = max(seen_nonzero, abs(sol.coefficient("6*I1+I14")))
    # the 4-cycle trace pairs carry exactly -+(6 det + Hodge)/16; verified
    # with explicit 256x256 permutation matrices, independent of the engine
    byname = {p.cycle_string(): p for p in sg.enumerate_group(4)}
    pair_ops = {}
    for pb_name, sign in (("(1234)", -1.0), ("(1432)", +1.0)):
        images = [0] * 8
        for k in range(4):
            images[2 * k] = 2 * byname["(1234)"].images[k]
            images[2 * k + 1] = 2 * byname[pb_name].images[k] + 1
        pair_ops[sign] = sg.v_matrix(sg.Permutation(tuple(images)), 2)
    for s, c in zip(states[:6], combo):
        stp = partial_transpose_bloch(s)
        rho = density_from_bloch(s)
        rho_pt = density_from_bloch(stp)
        rho4 = np.kron(np.kron(rho, rho), np.kron(rho, rho))
        rho4_pt = np.kron(np.kron(rho_pt, rho_pt), np.kron(rho_pt, rho_pt))
        expect = c / 16.0
        for sign, op in pair_ops.items():
            odd = (np.trace(rho4 @ op) - np.trace(rho4_pt @ op)).real / 2.0
            dev = max(dev, abs(odd - sign * expect))
    passed = dev <= 1e-9 and seen_nonzero > 1e-3
    return count + 12, dev, passed


@register("hodge_recoverable", "the rank-4 observable pair difference recovers the Hodge "
          "invariant through the exact engine with 4 settings", 1e-8)
def check_hodge_recoverable(seed: int, count: int = 100):
    dev = 0.0
    for i in range(count):
        st = bloch_from_density(random_state("mixed" if i % 2 else "pure", 2, seed * 5 + i))
        rep = ps.recover_invariant("hodge", st)
        dev = max(dev, abs(rep.estimate - rep.reference))
        if rep.settings_used != 4:
            dev = max(dev, 1.0)
    return count, dev, dev <= 1e-8


@register("x123_vanishing", "the 3-cycle coefficient vanishes for every factor tuple drawn "
          "from an orthonormal pair, via both trace identities and solver", 1e-10)
def check_x123_vanishing(seed: int, count: int = 200):
    rng = substream(seed, "verify", "x123_vanishing")
    dev = 0.0
    index = sg.cycle_index(3)
    for _ in range(count):
        a, b = random_orthonormal_hermitian(rng, 2)
        ta, tb = np.trace(a), np.trace(b)
        dev = max(dev, abs(-2 * ta**3 + 6 * ta - 4 * np.trace(a @ a @ a)))
        dev = max(dev, abs(-2 * ta**2 * tb + 2 * tb - 4 * np.trace(a @ a @ b)))
        for jj in _product(range(2), repeat=3):
            x = twirl.gauge_fix(twirl.solve_factor_coefficients([(a, b)[j] for j in jj]), 3)
            dev = max(dev, abs(x[index["(123)"]]))
    return count, dev, dev <= 1e-10


@register("kempe_rank1_obstruction",
          "product three-party observables only reach the five degree-3 "
          "companions in the fixed (3,6,6,6,6) combination", 1e-10)
def check_kempe_rank1_obstruction(seed: int, count: int = 200):
    rng = substream(seed, "verify", "kempe_rank1_obstruction")
    pattern = np.array([3.0, 6.0, 6.0, 6.0, 6.0])
    dev = 0.0
    for _ in range(count):
        obs = TripartiteObservable(
            [(random_hermitian(rng), random_hermitian(rng), random_hermitian(rng))]
        )
        chat = twirl.chat_vector(twirl.twirl_coefficients(obs, 3))
        xi = chat[0] / 3.0
        dev = max(dev, float(np.max(np.abs(chat - xi * pattern))))
    return count, dev, dev <= 1e-10


@register("kempe_rank2_recovery", "the rank-2 observable set has the exact aggregated coefficient "
          "vectors and recovers the Kempe invariant (1/4 on GHZ) with 2 settings", 1e-8)
def check_kempe_rank2_recovery(seed: int, count: int = 100):
    obs = ps.kempe_observables()
    chat_w = twirl.chat_vector(twirl.twirl_coefficients(obs["w_norm"], 3))
    chat_c = twirl.chat_vector(twirl.twirl_coefficients(obs["cross_c"], 3))
    dev_chat = float(np.max(np.abs(chat_w - np.array([8 / 9, 0, 0, 0, 0]))))
    dev_chat = max(dev_chat, float(np.max(np.abs(chat_c - np.array([8 / 9, 16 / 9, 0, 0, 0])))))
    dev_rec = 0.0
    settings_ok = True
    for i in range(count):
        rho = random_state("mixed" if i % 2 else "pure", 3, seed * 11 + i)
        rep = ps.recover_kempe(bloch_from_density(rho))
        dev_rec = max(dev_rec, abs(rep.estimate - rep.reference))
        settings_ok = settings_ok and rep.settings_used == 2
    ghz = ps.recover_kempe(bloch_from_density(ghz_state()))
    dev_ghz = abs(ghz.estimate - 0.25)
    dev = max(dev_chat, dev_rec, dev_ghz)
    return (count + 3, dev,
            dev_chat <= 1e-12 and dev_rec <= 1e-8 and dev_ghz <= 1e-8 and settings_ok)


@register("table_I_types", "every continuous invariant is recovered through its optimal "
          "observable with the expected settings count (ten type-1 rows, "
          "determinant type 3, Hodge type 4)", 1e-8)
def check_table_types(seed: int, count: int = 25):
    dev = 0.0
    settings_ok = True
    for i in range(count):
        rho = random_state("mixed" if i % 2 else "pure", 2, seed * 13 + i)
        reports = ps.recover_all(bloch_from_density(rho))
        for name, rep in reports.items():
            dev = max(dev, abs(rep.estimate - rep.reference))
            settings_ok = settings_ok and rep.settings_used == ps.EXPECTED_SETTINGS[name]
    return count * 12, dev, dev <= 1e-8 and settings_ok


@register("protocol_statistics", "the finite-shot protocol lands within 4 standard errors of the "
          "Bell-state determinant and its error scales as K^(-1/2)", 1.0)
def check_protocol_statistics(seed: int):
    terms = [[_X, _X], [_Y, _Y], [_Z, _Z]]
    cfg = ps.ProtocolConfig(2000, 200, 3, seed=seed)
    est = ps.simulate_moment(terms, bell_state(), cfg, label="acceptance")
    pull = abs(est.mean + 1.0) / est.stderr
    ks = (500, 2000, 8000)
    errs = [
        ps.simulate_moment(terms, bell_state(),
                           ps.ProtocolConfig(k, 200, 3, seed=seed + 1),
                           label=f"slope-{k}").stderr
        for k in ks
    ]
    slope = float(np.polyfit(np.log(ks), np.log(errs), 1)[0])
    passed = pull <= 4.0 and abs(slope + 0.5) <= 0.1
    return 4, float(max(pull / 4.0, abs(slope + 0.5) / 0.1)), passed


@register("drift_robustness", "slow reference-frame drift with costly setting changes leaves "
          "single-setting protocols unbiased while multi-setting protocols "
          "acquire a clear bias", 4.0)
def check_drift_robustness(seed: int):
    st = bell_state()
    single = [[3 * _Z, _Z]]
    multi = [[_X, _X], [_Y, _Y], [_Z, _Z]]
    kw = dict(drift_rate=1e-3, setting_change_cost=600)
    e_single = ps.simulate_moment(
        single, st, ps.ProtocolConfig(800, 100, 2, seed=seed, **kw), "drift-1"
    )
    e_multi = ps.simulate_moment(
        multi, st, ps.ProtocolConfig(800, 100, 3, seed=seed, **kw), "drift-3"
    )
    bias_single = abs(e_single.mean - 3.0) / e_single.stderr
    bias_multi = abs(e_multi.mean + 1.0) / e_multi.stderr
    passed = bias_single <= 4.0 and bias_multi > 4.0
    return 2, float(bias_single), passed


def run_suite(selection=None, seed: int = 2024, workers: int = 1) -> VerificationReport:
    """Run the registered checks (all by default), deterministic per seed.

    A claim that does not hold becomes a report entry with ``passed``
    false; an exception raised inside a check propagates to the caller.
    With ``workers > 1`` checks run in a process pool of at most one worker
    per selected check; results are merged in registration order so the
    report is identical regardless of worker count.
    """
    names = list(ALL_CHECKS) if selection is None else list(selection)
    for nm in names:
        if nm not in ALL_CHECKS:
            raise KeyError(f"unknown claim id {nm!r}")
    report = VerificationReport(seed=seed)
    workers = min(workers, len(names))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {nm: pool.submit(ALL_CHECKS[nm], seed) for nm in names}
            for nm in names:
                report.checks.append(futures[nm].result())
    else:
        for nm in names:
            report.checks.append(ALL_CHECKS[nm](seed))
    return report

