"""Acceptance suite: the package's exit criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
on success).  Criterion 5a is expected to FAIL: the vanishing statement it
encodes is numerically false -- the PT-odd sector of rank-3 fourth moments
is exactly proportional to 6 det(T) + Hodge rather than empty (see
``rmoments verify --claim hodge_rank3_structure`` for the corrected law and
the pinned verification of it).  It is kept as stated rather than weakened.
"""

import time

import numpy as np
from rmoments import protocol_sim as ps
from rmoments import symgroup as sg
from rmoments import twirl
from rmoments.haar_mc import mc_moment
from rmoments.invariants import makhlin
from rmoments.linalg import kron, nullspace
from rmoments.observables import (
    det_prefactor,
    pauli_sum_observable,
    random_hermitian,
    random_rank_observable,
)
from rmoments.paulis import PAULIS
from rmoments.rng import substream
from rmoments.states import (
    bell_state,
    bloch_from_density,
    ghz_state,
    partial_transpose_bloch,
    random_bloch_record,
    random_state,
)
from rmoments.verify import KERNEL_COMBOS_T4

I, X, Y, Z = PAULIS
SEED = 20240


def report(number, label, passed, detail):
    flag = "PASS" if passed else "FAIL"
    print(f"[{flag}] criterion {number:>3}: {label} -- {detail}")
    return passed


def test_criterion_01_det_identity():
    t0 = time.time()
    co = twirl.twirl_coefficients(pauli_sum_observable(), 3)
    dev = 0.0
    for i in range(100):
        st = bloch_from_density(random_state("mixed" if i % 2 else "pure", 2, SEED + i))
        dev = max(dev, abs(co.moment(st) - float(np.linalg.det(st.T))))
    elapsed = time.time() - t0
    ok = dev <= 1e-10 and elapsed < 5.0
    assert report(1, "third moment of the Pauli sum equals det(T)", ok,
                  f"max dev {dev:.2e}, {elapsed:.2f}s")


def test_criterion_02_engine_vs_monte_carlo():
    t0 = time.time()
    rng = substream(SEED, "acceptance", "mc")
    hits = 0
    triples = 50
    for i in range(triples):
        t = int(rng.integers(1, 5))
        obs = random_rank_observable(rng, int(rng.integers(1, 5)))
        rho = random_state("mixed" if i % 2 else "pure", 2, SEED * 3 + i)
        exact = twirl.twirl_coefficients(obs, t).moment(bloch_from_density(rho))
        est = mc_moment(obs.matrix(), rho, t, 100_000, seed=SEED + i)
        if abs(exact - est.mean) <= 3 * est.stderr:
            hits += 1
    elapsed = time.time() - t0
    ok = hits >= 0.95 * triples and elapsed < 180.0
    assert report(2, "exact engine vs Monte Carlo (3 sigma, 95%)", ok,
                  f"{hits}/{triples} within 3 sigma, {elapsed:.1f}s")


def test_criterion_03_rank2_det_nogo():
    t0 = time.time()
    rng = substream(SEED, "acceptance", "rank2")
    names = ("1", "I4", "I7", "I2", "I12", "I1")
    states = [random_bloch_record(2, rng) for _ in range(24)]
    design = np.array([twirl.eval_monomials(names, s) for s in states])
    dev3 = 0.0
    for i in range(1000):
        co = twirl.twirl_coefficients(random_rank_observable(rng, 1 + i % 2), 3)
        sol, *_ = np.linalg.lstsq(design, co.moments(states), rcond=None)
        dev3 = max(dev3, abs(sol[names.index("I1")]))
    dev4 = 0.0
    for i in range(200):
        fit = twirl.odd_fit(random_rank_observable(rng, 1 + i % 2), 4)
        dev4 = max(dev4, float(np.max(np.abs(fit.coefficients))), fit.residual)
    elapsed = time.time() - t0
    ok = dev3 <= 1e-9 and dev4 <= 1e-9 and elapsed < 300.0
    assert report(3, "tensor rank <= 2 reaches no det(T) at t = 3 or 4", ok,
                  f"t3 dev {dev3:.2e}, t4 dev {dev4:.2e}, {elapsed:.1f}s")


def test_criterion_04_det_prefactor_formula():
    rng = substream(SEED, "acceptance", "prefactor")
    names = ("1", "I4", "I7", "I2", "I12", "I1")
    states = [random_bloch_record(2, rng) for _ in range(24)]
    design = np.array([twirl.eval_monomials(names, s) for s in states])
    dev = 0.0
    for i in range(200):
        obs = random_rank_observable(rng, 1 + i % 4)
        sol, *_ = np.linalg.lstsq(
            design, twirl.twirl_coefficients(obs, 3).moments(states), rcond=None
        )
        dev = max(dev, abs(sol[names.index("I1")] - det_prefactor(obs)))
    ok = dev <= 1e-8
    assert report(4, "det prefactor formula across ranks 1-4", ok, f"max dev {dev:.2e}")


def test_criterion_05a_hodge_rank3_vanishing_as_stated():
    # Known-false claim, kept as stated: rank-3 fourth moments do carry the
    # Hodge invariant, locked to det(T) in the fixed combination
    # 6 det(T) + Hodge (module docstring; ledger; hodge_rank3_structure).
    rng = substream(SEED, "acceptance", "hodge-nogo")
    dev = 0.0
    for i in range(200):
        fit = twirl.odd_fit(random_rank_observable(rng, 1 + i % 3), 4)
        dev = max(dev, abs(fit.coefficient("I14")))
    ok = dev <= 1e-9
    assert report("5a", "rank <= 3 Hodge coefficient vanishes at t = 4 (as stated)",
                  ok, f"max |Hodge coeff| {dev:.2e}")


def test_criterion_05b_hodge_recovery_via_rank4_pair():
    dev = 0.0
    settings_ok = True
    for i in range(100):
        st = bloch_from_density(random_state("mixed" if i % 2 else "pure", 2, SEED * 7 + i))
        rep = ps.recover_invariant("hodge", st)
        dev = max(dev, abs(rep.estimate - rep.reference))
        settings_ok = settings_ok and rep.settings_used == 4
    ok = dev <= 1e-8 and settings_ok
    assert report("5b", "rank-4 pair recovers the Hodge invariant", ok,
                  f"max dev {dev:.2e}, settings 4: {settings_ok}")


def test_criterion_06_kernel_facts():
    k3 = nullspace(sg.gram_matrix(3, 2))
    ok = k3.shape[1] == 1
    v = k3[:, 0] / k3[0, 0]
    dev = float(np.max(np.abs(v - np.array([1, -1, -1, -1, 1, 1]))))
    k4 = nullspace(sg.gram_matrix(4, 2))
    ok = ok and k4.shape[1] == 10
    proj = k4 @ k4.T
    index = {p.cycle_string(): i for i, p in enumerate(sg.enumerate_group(4))}
    for combo in KERNEL_COMBOS_T4:
        vec = np.zeros(24)
        for nm, c in combo.items():
            vec[index[nm]] = c
        dev = max(dev, float(np.max(np.abs(proj @ vec - vec))))
    ok = ok and dev <= 1e-9
    assert report(6, "Gram kernels: dim 1 at t=3, dim 10 at t=4 with listed vectors",
                  ok, f"max dev {dev:.2e}")


def test_criterion_07_gram_integers():
    expected = np.array([
        [8, 4, 4, 4, 2, 2],
        [4, 8, 2, 2, 4, 4],
        [4, 2, 8, 2, 4, 4],
        [4, 2, 2, 8, 4, 4],
        [2, 4, 4, 4, 2, 8],
        [2, 4, 4, 4, 8, 2],
    ])
    ok = np.array_equal(sg.gram_matrix(3, 2), expected)
    assert report(7, "t=3 Gram matrix equals the exact integer table", ok,
                  "exact integer comparison")


def test_criterion_08_kempe_protocol():
    obs = ps.kempe_observables()
    chat_w = twirl.chat_vector(twirl.twirl_coefficients(obs["w_norm"], 3))
    chat_c = twirl.chat_vector(twirl.twirl_coefficients(obs["cross_c"], 3))
    dev_chat = max(
        float(np.max(np.abs(chat_w - np.array([8 / 9, 0, 0, 0, 0])))),
        float(np.max(np.abs(chat_c - np.array([8 / 9, 16 / 9, 0, 0, 0])))),
    )
    dev_rec = 0.0
    settings_ok = True
    for i in range(100):
        st = bloch_from_density(random_state("mixed" if i % 2 else "pure", 3, SEED + i))
        rep = ps.recover_kempe(st)
        dev_rec = max(dev_rec, abs(rep.estimate - rep.reference))
        settings_ok = settings_ok and rep.settings_used == 2
    ghz_dev = abs(ps.recover_kempe(bloch_from_density(ghz_state())).estimate - 0.25)
    ok = dev_chat <= 1e-12 and dev_rec <= 1e-8 and ghz_dev <= 1e-8 and settings_ok
    assert report(8, "Kempe rank-2 protocol (class vectors, recovery, GHZ)", ok,
                  f"chat dev {dev_chat:.2e}, recovery dev {dev_rec:.2e}, "
                  f"GHZ dev {ghz_dev:.2e}, settings 2: {settings_ok}")


def test_criterion_09_table_end_to_end():
    dev = 0.0
    settings_ok = True
    for i in range(50):
        st = bloch_from_density(random_state("mixed" if i % 2 else "pure", 2, SEED * 11 + i))
        for name, rep in ps.recover_all(st).items():
            dev = max(dev, abs(rep.estimate - rep.reference))
            settings_ok = settings_ok and rep.settings_used == ps.EXPECTED_SETTINGS[name]
    ok = dev <= 1e-8 and settings_ok
    assert report(9, "all continuous invariants recovered with listed settings", ok,
                  f"max dev {dev:.2e}, settings match: {settings_ok}")


def test_criterion_10_statistical_protocol():
    cfg = ps.ProtocolConfig(2000, 200, 3, seed=SEED)
    est = ps.simulate_moment([[X, X], [Y, Y], [Z, Z]], bell_state(), cfg, "acc10")
    pull = abs(est.mean + 1.0) / est.stderr
    ks = (500, 2000, 8000)
    errs = [
        ps.simulate_moment([[X, X], [Y, Y], [Z, Z]], bell_state(),
                           ps.ProtocolConfig(k, 200, 3, seed=SEED + 1),
                           f"acc10-{k}").stderr
        for k in ks
    ]
    slope = float(np.polyfit(np.log(ks), np.log(errs), 1)[0])
    ok = pull <= 4.0 and abs(slope + 0.5) <= 0.1
    assert report(10, "finite-shot protocol statistics", ok,
                  f"pull {pull:.2f} sigma, stderr slope {slope:+.3f}")


def test_criterion_11_partial_transpose_symmetry():
    rng = substream(SEED, "acceptance", "pt")
    dev_mom = 0.0
    for _ in range(100):
        obs = kron(random_hermitian(rng), random_hermitian(rng))
        st = random_bloch_record(2, rng)
        stp = partial_transpose_bloch(st)
        for t in (1, 2, 3, 4):
            co = twirl.twirl_coefficients(obs, t)
            dev_mom = max(dev_mom, abs(co.moment(st) - co.moment(stp)))
    dev_inv = 0.0
    for _ in range(100):
        st = random_bloch_record(2, rng)
        a, b = makhlin(st), makhlin(partial_transpose_bloch(st))
        dev_inv = max(dev_inv, abs(a.I1 + b.I1), abs(a.I14 + b.I14))
        for nm in ("I2", "I3", "I4", "I5", "I6", "I7", "I8", "I9", "I12", "I13"):
            dev_inv = max(dev_inv, abs(getattr(a, nm) - getattr(b, nm)))
    ok = dev_mom <= 1e-10 and dev_inv <= 1e-10
    assert report(11, "partial-transpose symmetry of moments and invariants", ok,
                  f"moment dev {dev_mom:.2e}, invariant dev {dev_inv:.2e}")
