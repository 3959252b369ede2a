import tracemalloc
from collections import Counter
from functools import lru_cache
from math import comb, factorial, prod

import numpy as np
import pytest

from conftest import brute_trace
from rmoments import invariants
from rmoments import protocol_sim as ps
from rmoments import symgroup as sg
from rmoments import twirl, verify
from rmoments.haar_mc import haar_su2, mc_moment
from rmoments.invariants import makhlin
from rmoments.linalg import kron, nullspace
from rmoments.observables import (
    TripartiteObservable,
    hodge_observable,
    pauli_sum_observable,
    random_hermitian,
    random_orthonormal_hermitian,
    random_rank_observable,
    random_symmetric_observable,
    schmidt_decompose,
)
from rmoments.paulis import PAULIS
from rmoments.states import (
    ThreeQubitState,
    TwoQubitState,
    bell_state,
    bloch_from_density,
    density_from_bloch,
    ghz_state,
    maximally_mixed,
    partial_transpose_bloch,
    random_bloch_record,
    random_state,
    transfer_from_bloch,
)

I, X, Y, Z = PAULIS


def joint_v(pa, pb, t):
    """Interleaved two-party permutation operator, brute-force oracle."""
    images = [0] * (2 * t)
    for k in range(t):
        images[2 * k] = 2 * pa.images[k]
        images[2 * k + 1] = 2 * pb.images[k] + 1
    return sg.v_matrix(sg.Permutation(tuple(images)), 2)


def _pauli_product_table():
    """(idx, phase) with s_a s_b = phase[a, b] s_{idx[a, b]}."""
    idx = np.zeros((4, 4), dtype=np.int64)
    phase = np.zeros((4, 4), dtype=complex)
    for a in range(4):
        for b in range(4):
            prod = PAULIS[a] @ PAULIS[b]
            for c in range(4):
                coeff = np.trace(PAULIS[c].conj().T @ prod) / 2.0
                if abs(coeff) > 0.5:
                    idx[a, b], phase[a, b] = c, coeff
                    break
    return idx, phase


MULT_IDX, MULT_PHASE = _pauli_product_table()


@lru_cache(maxsize=None)
def _digit_table(t):
    """digits[k, code] = mu_k of the big-endian base-4 code."""
    codes = np.arange(4**t)
    digits = np.empty((t, 4**t), dtype=np.int64)
    rem = codes.copy()
    for k in range(t - 1, -1, -1):
        digits[k] = rem % 4
        rem //= 4
    return digits


def _w_rows(perms, t):
    """W[row, code] = tr(s_{mu1} x ... x s_{mut} V_pi) for each pi of
    ``perms`` and all Pauli strings: a product over cycles of single
    Pauli-string traces, evaluated with the Pauli multiplication table, as
    an independent reference for the engine's W_B."""
    digits = _digit_table(t)
    w = np.empty((len(perms), 4**t), dtype=complex)
    for row, p in enumerate(perms):
        total = np.ones(4**t, dtype=complex)
        for cyc in p.cycles():
            idx = digits[cyc[0]].copy()
            phase = np.ones(4**t, dtype=complex)
            for slot in cyc[1:]:
                nxt = digits[slot]
                phase *= MULT_PHASE[idx, nxt]
                idx = MULT_IDX[idx, nxt]
            total *= np.where(idx == 0, 2.0 * phase, 0.0)
        w[row] = total
    return w


# ---------------------------------------------------------------------------
# factor-coefficient solves
# ---------------------------------------------------------------------------

def test_solve_identity_factors():
    x = twirl.solve_factor_coefficients([np.eye(2)] * 3)
    op = sum(c * sg.v_matrix(p, 2) for c, p in zip(x, sg.enumerate_group(3)))
    np.testing.assert_allclose(op, np.eye(8), atol=1e-10)


def test_solve_pauli_triple_matches_known_solution():
    x = twirl.solve_factor_coefficients([PAULIS[1], PAULIS[2], PAULIS[3]])
    np.testing.assert_allclose(x, [0, 0, 0, 0, -1j / 3, 1j / 3], atol=1e-10)
    x_rev = twirl.solve_factor_coefficients([PAULIS[1], PAULIS[3], PAULIS[2]])
    np.testing.assert_allclose(x_rev, [0, 0, 0, 0, 1j / 3, -1j / 3], atol=1e-10)


def test_solve_resubstitution_property(rng):
    factors = [random_hermitian(rng) for _ in range(3)]
    x = twirl.solve_factor_coefficients(factors)
    g = sg.gram_matrix(3, 2)
    rhs = np.array([brute_trace(factors, p) for p in sg.enumerate_group(3)])
    assert np.max(np.abs(g @ x - rhs)) <= 1e-10


def test_single_product_is_a_table_row(rng):
    # a single product's coefficients are the row that the table kernel
    # gives its index tuple, bit for bit; the kernel's traces and the
    # solution agree with the dense traces at every order
    for t in range(1, 7):
        factors = np.array([random_hermitian(rng) + 1j * random_hermitian(rng)
                            for _ in range(t)])
        x = twirl.solve_factor_coefficients(factors)
        rows, _ = twirl._factor_rows((factors,), np.ones(t), 2, np.arange(t)[None], 1)
        assert np.array_equal(_bits(x), _bits(twirl._embedding(t, False) @ rows[0][0]))
        rhs = twirl._rhs_for_tuples(factors, np.arange(t)[None])[0]
        want = [brute_trace(factors, b) for b in sg.commutant_basis(t)]
        np.testing.assert_allclose(rhs, want, rtol=0, atol=1e-12)
        brute = np.array([brute_trace(factors, p) for p in sg.enumerate_group(t)])
        residual = np.max(np.abs(sg.gram_matrix(t, 2) @ x - brute))
        assert residual <= 1e-12 * np.max(np.abs(brute)), t


def test_solve_rejects_non_qubit_factors():
    with pytest.raises(ValueError):
        twirl.solve_factor_coefficients([np.eye(2), np.eye(3)])


def test_basis_solve_matches_lu(rng):
    # the cached inverse with one refinement step gives the LU solution of
    # G[B, B] x = rhs, with a residual at the LU solve's level, for the
    # multiset rows of orthonormal Hermitian factors (as a Schmidt
    # decomposition gives them) at unit scale and scaled by 3
    for t in range(1, 7):
        gram, inverse, _ = twirl._basis_gram(t)
        assert not inverse.flags.writeable and not gram.flags.writeable
        for rank in (1, 2, 3, 4):
            for scale in (1.0, 3.0):
                factors = scale * np.array(random_orthonormal_hermitian(rng, rank))
                rhs = twirl._rhs_for_tuples(factors, twirl._multisets(rank, t)[0])
                x, residual = twirl._solve_basis(rhs, t)
                want = np.linalg.solve(gram, rhs.T).T
                assert x.shape == rhs.shape
                assert np.max(np.abs(x - want)) <= 1e-11 * np.max(np.abs(want)), (t, rank)
                assert residual <= 1e-13 * np.max(np.abs(rhs)), (t, rank)


def test_basis_solve_guard_is_relative_to_the_right_hand_sides(rng, monkeypatch):
    # six random Hermitian factors scaled by 10 put max|rhs| near 1e7 at
    # t=6; the solve is as good as LU's relative to that scale, while its
    # absolute residual (~1e-8) exceeds SOLVE_RESIDUAL_TOL
    gram, inverse, cond = twirl._basis_gram(6)
    for _ in range(5):
        factors = 10.0 * np.array([random_hermitian(rng) for _ in range(6)])
        rhs = twirl._rhs_for_tuples(factors, np.arange(6)[None])
        x, residual = twirl._solve_basis(rhs, 6)
        want = np.linalg.solve(gram, rhs.T).T
        assert np.max(np.abs(x - want)) <= 1e-11 * np.max(np.abs(want))
        assert residual <= twirl.SOLVE_RESIDUAL_TOL * np.max(np.abs(rhs))
        twirl.solve_factor_coefficients(factors)
    # an inverse off by a factor 1 + 1e-4 leaves a relative residual near
    # 1e-8 after refinement: rejected at unit scale and at scale 10
    monkeypatch.setattr(twirl, "_basis_gram", lambda t: (gram, inverse * (1 + 1e-4), cond))
    for scale in (1.0, 10.0):
        factors = scale * np.array([random_hermitian(rng) for _ in range(6)])
        with pytest.raises(twirl.EngineError, match="Gram solve residual"):
            twirl._solve_basis(twirl._rhs_for_tuples(factors, np.arange(6)[None]), 6)


def test_basis_solve_of_no_right_hand_sides():
    # a rank-0 table has no rows to solve
    for t in range(1, 7):
        size = len(sg.commutant_basis(t))
        x, residual = twirl._solve_basis(np.zeros((0, size), dtype=complex), t)
        assert x.shape == (0, size) and residual == 0.0


def _svd_minimum_norm_embedding(t):
    """The minimum-norm map through the SVD kernel K of the full Gram
    matrix: the basis embedded into S_t (zeros off B), projected off K."""
    emb = np.zeros((factorial(t), len(sg.commutant_basis(t))))
    index = {p: i for i, p in enumerate(sg.enumerate_group(t))}
    emb[[index[b] for b in sg.commutant_basis(t)], np.arange(emb.shape[1])] = 1.0
    kernel = nullspace(sg.gram_matrix(t, 2))
    return emb - kernel @ (kernel.T @ emb), kernel


def test_reduced_embedding_is_the_gauge_fixed_minimum_norm_map():
    # the reduced embedding agrees with the SVD kernel shift of the
    # minimum-norm map that zeroes GAUGE_ZEROS; it is exactly zero there,
    # and since det R[S] is 1 at t = 3 and 4 at t = 4 its entries are
    # integers and quarters
    for t, denominator in ((3, 1), (4, 4)):
        emb, kernel = _svd_minimum_norm_embedding(t)
        names = [p.cycle_string() for p in sg.enumerate_group(t)]
        rows = np.array([names.index(name) for name in twirl.GAUGE_ZEROS[t]])
        emb += -kernel @ np.linalg.solve(kernel[rows, :], emb[rows])
        got = twirl._embedding(t, True)
        assert got.dtype == float and not got.flags.writeable
        assert np.max(np.abs(got - emb)) <= 1e-12 * np.max(np.abs(emb)), t
        assert np.all(got[rows] == 0.0), t
        assert np.array_equal(got * denominator, np.rint(got * denominator)), t


def test_straightening_matrix_is_certified():
    # V_pi = sum_b R[pi, b] V_b with R integer, R[B] = I, the certificate
    # R G[B, B] = G[:, B] exact in integers, and null(R^T) the SVD kernel of
    # the full Gram matrix, the linear dependencies among the V_pi
    bounds, kernel_dims = (1, 1, 1, 2, 3, 6), (0, 0, 1, 10, 78, 588)
    for t, bound, kernel_dim in zip(range(1, 7), bounds, kernel_dims):
        r = twirl._straightening(t)
        group, basis = sg.enumerate_group(t), sg.commutant_basis(t)
        on_basis = [sg.cycle_index(t)[b.cycle_string()] for b in basis]
        assert r.shape == (factorial(t), len(basis)) and not r.flags.writeable
        assert np.array_equal(r, np.rint(r)) and np.max(np.abs(r)) == bound, t
        assert np.array_equal(r[on_basis], np.eye(len(basis)))
        gram = sg.gram_matrix(t, 2).astype(np.int64)
        ints = r.astype(np.int64)
        assert np.array_equal(ints @ gram[np.ix_(on_basis, on_basis)], gram[:, on_basis]), t
        kernel = nullspace(gram)
        assert kernel.shape[1] == kernel_dim == factorial(t) - len(basis)
        assert np.max(np.abs(r.T @ kernel), initial=0.0) <= 1e-12, t
        if t <= 4:
            for row, p in zip(ints, group):
                op = sum(c * sg.v_matrix(b, 2) for c, b in zip(row, basis) if c)
                assert np.array_equal(op, sg.v_matrix(p, 2)), (t, p)


def test_minimum_norm_embedding_matches_the_svd_projection():
    # pinv(R)^T solves R^T c = x_B with the smallest norm, as does the
    # projection of the embedded basis off the SVD kernel
    for t in range(1, 7):
        emb, _ = _svd_minimum_norm_embedding(t)
        got = twirl._embedding(t, False)
        assert got.dtype == float and not got.flags.writeable
        assert np.max(np.abs(got - emb)) <= 1e-12 * np.max(np.abs(emb)), t
        np.testing.assert_allclose(twirl._straightening(t).T @ got, np.eye(got.shape[1]),
                                   rtol=0, atol=1e-12)
    for t in (1, 2):
        assert np.array_equal(twirl._embedding(t, False), np.eye(t))
        assert np.array_equal(twirl._embedding(t, True), np.eye(t))


def test_straightening_matrix_stays_off_the_build_and_moment_path(rng):
    # every benchmark operation and set-up (pipeline tables, calibrations,
    # moments, fits, recoveries) runs without building R
    twirl._straightening.cache_clear()
    twirl._basis_gram.cache_clear()
    state2, state3 = random_bloch_record(2, rng), random_bloch_record(3, rng)
    for name in ps.PIPELINES:
        for table in ps._pipeline_engines.__wrapped__(name):
            table.moment(state2)
        ps.calibrate.__wrapped__(name)
    ps._kempe_calibration.__wrapped__()
    ps.recover_all(state2)
    ps.recover_kempe(state3)
    for t in range(1, 7):
        co = twirl.twirl_coefficients(random_rank_observable(rng, 4), t)
        co.moment(state2)
    twirl.decompose(pauli_sum_observable(), 3)
    twirl.odd_fit(hodge_observable(+1), 4)
    assert twirl._straightening.cache_info().currsize == 0


def test_gauge_fix_zeroes_designated_entries(rng):
    x3 = twirl.gauge_fix(twirl.solve_factor_coefficients(
        [random_hermitian(rng) for _ in range(3)]), 3)
    names3 = [p.cycle_string() for p in sg.enumerate_group(3)]
    assert x3[names3.index("(132)")] == 0
    x4 = twirl.gauge_fix(twirl.solve_factor_coefficients(
        [random_hermitian(rng) for _ in range(4)]), 4)
    names4 = [p.cycle_string() for p in sg.enumerate_group(4)]
    for nm in twirl.GAUGE_ZEROS[4]:
        assert x4[names4.index(nm)] == 0
    # the shift stays inside the solution set: same operator either way
    raw = twirl.solve_factor_coefficients([random_hermitian(rng) for _ in range(3)])
    fixed = twirl.gauge_fix(raw, 3)
    op_raw = sum(c * sg.v_matrix(p, 2) for c, p in zip(raw, sg.enumerate_group(3)))
    op_fix = sum(c * sg.v_matrix(p, 2) for c, p in zip(fixed, sg.enumerate_group(3)))
    np.testing.assert_allclose(op_raw, op_fix, atol=1e-10)


# ---------------------------------------------------------------------------
# exact moments
# ---------------------------------------------------------------------------

def test_pauli_sum_third_moment_is_det(bell_record):
    co = twirl.twirl_coefficients(pauli_sum_observable(), 3)
    assert co.moment(bell_record) == pytest.approx(-1.0, abs=1e-10)
    for i in range(20):
        st = bloch_from_density(random_state("mixed", 2, 40 + i))
        assert co.moment(st) == pytest.approx(np.linalg.det(st.T), abs=1e-10)


def test_moment_on_maximally_mixed(rng):
    ob = random_rank_observable(rng, 4)
    mm = bloch_from_density(maximally_mixed(2))
    for t in (1, 2, 3, 4):
        expected = (np.trace(ob.matrix()).real / 4.0) ** t
        assert twirl.exact_moment(ob, mm, t) == pytest.approx(expected, abs=1e-10)


def test_second_moment_of_zz_is_i2():
    co = twirl.twirl_coefficients(3 * kron(Z, Z), 2)
    for i in range(100):
        st = bloch_from_density(random_state("mixed", 2, 1000 + i))
        assert co.moment(st) == pytest.approx(makhlin(st).I2, abs=1e-10)


def test_moment_lu_invariance(rng):
    ob = random_rank_observable(rng, 3)
    co = twirl.twirl_coefficients(ob, 3)
    rho = random_state("mixed", 2, 5)
    u = kron(haar_su2(rng), haar_su2(rng))
    assert co.moment(bloch_from_density(u @ rho @ u.conj().T)) == pytest.approx(
        co.moment(bloch_from_density(rho)), abs=1e-9
    )


def test_moment_matches_mc(rng):
    ob = random_rank_observable(rng, 2)
    rho = random_state("mixed", 2, 77)
    for t in (2, 3, 4):
        exact = twirl.twirl_coefficients(ob, t).moment(bloch_from_density(rho))
        est = mc_moment(ob.matrix(), rho, t, 40000, seed=t)
        assert abs(exact - est.mean) <= 4 * est.stderr


def test_dense_table_of_pauli_sum_matches_closed_form():
    dense = twirl.twirl_coefficients(pauli_sum_observable(), 3).dense(gauge=True)
    w = np.array([1, -1, -1, -1, 2, 0])  # 3-cycle difference rewritten in the gauge
    np.testing.assert_allclose(dense, -2.0 / 3.0 * np.outer(w, w), atol=1e-12)


# ---------------------------------------------------------------------------
# Bloch-form trace table at t = 3
# ---------------------------------------------------------------------------

# Closed-form reference for tr(rho^x3 V_{piA} x V_{piB}), checked against
# explicit permutation operators below.  Rows: the ten equivalence classes
# of permutation pairs; columns: the invariant vector
# (1, |a|^2, |b|^2, tr T^T T, <a, T b>, det T), all / 16.
T3_TRACE_CLASSES = (
    "id,id", "id,swap", "swap,id", "id,cycle", "cycle,id",
    "swap,same", "swap,other", "swap,cycle", "cycle,swap", "cycle,cycle",
)
T3_TRACE_MATRIX = np.array([
    [16, 0, 0, 0, 0, 0],
    [8, 0, 8, 0, 0, 0],
    [8, 8, 0, 0, 0, 0],
    [4, 0, 12, 0, 0, 0],
    [4, 12, 0, 0, 0, 0],
    [4, 4, 4, 4, 0, 0],
    [4, 4, 4, 0, 4, 0],
    [2, 2, 6, 2, 4, 0],
    [2, 6, 2, 2, 4, 0],
    [1, 3, 3, 3, 6, -6],
]) / 16.0


def trace_invariant_vector_t3(state):
    """(1, |alpha|^2, |beta|^2, tr(T^T T), <alpha, T beta>, det T)."""
    a, b, T = state.alpha, state.beta, state.T
    return np.array([
        1.0, float(a @ a), float(b @ b),
        float(np.trace(T.T @ T)), float(a @ T @ b), float(np.linalg.det(T)),
    ])


def t3_trace_classes(state):
    """The ten class values of tr(rho^x3 V_{piA} x V_{piB})."""
    vals = T3_TRACE_MATRIX @ trace_invariant_vector_t3(state)
    return dict(zip(T3_TRACE_CLASSES, vals))


def test_trace_invariant_vector(bell_record):
    vec = trace_invariant_vector_t3(bell_record)
    np.testing.assert_allclose(vec, [1, 0, 0, 3, 0, -1], atol=1e-12)


def test_t3_trace_classes_examples(rng):
    st = random_bloch_record(2, rng)
    classes = t3_trace_classes(st)
    assert classes["id,id"] == pytest.approx(1.0)
    alpha_sq = st.alpha @ st.alpha
    assert classes["swap,id"] == pytest.approx((1 + alpha_sq) / 2, abs=1e-12)
    bell = bloch_from_density(bell_state())
    assert t3_trace_classes(bell)["cycle,cycle"] == pytest.approx(1.0)


def test_t3_trace_classes_brute_force(rng):
    st = random_bloch_record(2, rng)
    rho = density_from_bloch(st)
    rho3 = np.kron(np.kron(rho, rho), rho)
    classes = t3_trace_classes(st)
    byname = {p.cycle_string(): p for p in sg.enumerate_group(3)}
    picks = {
        "id,swap": ("()", "(13)"),
        "cycle,id": ("(123)", "()"),
        "swap,same": ("(12)", "(12)"),
        "swap,other": ("(23)", "(12)"),
        "swap,cycle": ("(13)", "(123)"),
        "cycle,swap": ("(123)", "(23)"),
        "cycle,cycle": ("(123)", "(123)"),
    }
    for cls, (na, nb) in picks.items():
        brute = np.trace(rho3 @ joint_v(byname[na], byname[nb], 3)).real
        assert classes[cls] == pytest.approx(brute, abs=1e-12)


def test_pair_trace_matches_engine_contraction(rng):
    # the Pauli contraction equals the explicit joint permutation operator
    st = random_bloch_record(2, rng)
    rho = density_from_bloch(st)
    r = transfer_from_bloch(st)
    for t in (3, 4):
        rhot = rho
        for _ in range(t - 1):
            rhot = np.kron(rhot, rho)
        perms = sg.enumerate_group(t)
        w = _w_rows(perms, t)
        for _ in range(8):
            ia, ib = rng.integers(0, len(perms), 2)
            brute = np.trace(rhot @ joint_v(perms[ia], perms[ib], t))
            z = twirl._apply_transfer(w[ib][:, None], r, t)[:, 0]
            assert (w[ia] @ z) / 4**t == pytest.approx(brute, abs=1e-12)


# ---------------------------------------------------------------------------
# decompositions
# ---------------------------------------------------------------------------

def test_decompose_pauli_sum():
    dec = twirl.decompose(pauli_sum_observable(), 3)
    assert dec.residual <= 1e-10
    assert dec.coefficient("I1") == pytest.approx(1.0, abs=1e-10)
    for name in ("1", "I2", "I4", "I7", "I12"):
        assert dec.coefficient(name) == pytest.approx(0.0, abs=1e-10)


def test_decompose_zz_against_t3_dictionary():
    dec = twirl.decompose(3 * kron(Z, Z), 2, dictionary=twirl.dictionary_for(3))
    assert dec.residual <= 1e-10
    assert dec.coefficient("I2") == pytest.approx(1.0, abs=1e-10)


def test_t3_decomposition_always_spans(rng):
    for rank in (1, 2, 3, 4):
        dec = twirl.decompose(random_rank_observable(rng, rank), 3)
        assert dec.residual <= 1e-8


def test_rank2_observables_have_no_det(rng):
    for _ in range(25):
        dec = twirl.decompose(random_rank_observable(rng, 1 + int(rng.integers(0, 2))), 3)
        assert abs(dec.coefficient("I1")) <= 1e-9


def test_det_coefficient_matches_prefactor_formula(rng):
    from rmoments.observables import det_prefactor

    for rank in (1, 2, 3, 4):
        ob = random_rank_observable(rng, rank)
        dec = twirl.decompose(ob, 3)
        assert dec.coefficient("I1") == pytest.approx(det_prefactor(ob), abs=1e-9)


def test_dictionary_sizes():
    assert len(twirl.dictionary_for(2)) == 4
    assert len(twirl.dictionary_for(3)) == 6
    assert len(twirl.dictionary_for(4)) == 16
    assert len(twirl.dictionary_for(5)) == 23
    assert len(twirl.dictionary_for(6)) == 50
    # built once per order: every decomposition shares the names
    assert twirl.decompose(pauli_sum_observable(), 3).names is twirl.dictionary_for(3)


def test_fit_designs_evaluate_no_sign_determinant(monkeypatch, rng):
    # the designs and the recovery reference read only the continuous
    # invariants; the six sign determinants of the full record stay out
    def no_sign(x):
        raise AssertionError("a sign invariant was evaluated")

    monkeypatch.setattr(invariants, "_sign", no_sign)
    ob = random_rank_observable(rng, 3)
    assert twirl.decompose(ob, 4).residual <= 1e-8
    assert twirl.odd_fit(ob, 4).residual <= 1e-8
    for name in ps.PIPELINES:
        ps.calibrate.__wrapped__(name)  # cold, past the cache
    ps.recover_all(bloch_from_density(bell_state()))
    verify._t3_fit_setup(rng)
    with pytest.raises(AssertionError, match="sign invariant"):
        invariants.makhlin(random_bloch_record(2, rng))


# ---------------------------------------------------------------------------
# PT-odd structure at t <= 4
# ---------------------------------------------------------------------------

def test_odd_part_vanishes_for_product_observables(rng):
    ob = kron(random_hermitian(rng), random_hermitian(rng))
    for t in (2, 3, 4):
        co = twirl.twirl_coefficients(ob, t)
        for _ in range(5):
            st = random_bloch_record(2, rng)
            assert twirl.odd_part(co, st, t) == pytest.approx(0.0, abs=1e-10)


def test_prebuilt_table_must_match_the_order(rng):
    # a table passed with another moment order used to give that order's
    # moments silently: odd_part(table_t4, state, 3) was the t=4 odd part
    state = random_bloch_record(2, rng)
    co = twirl.twirl_coefficients(pauli_sum_observable(), 4)
    for call in (lambda: twirl.odd_part(co, state, 3), lambda: twirl.odd_fit(co, 3),
                 lambda: twirl.decompose(co, 3)):
        with pytest.raises(ValueError, match="order-4 table"):
            call()
    assert twirl.odd_part(co, state, 4) == twirl.odd_part(pauli_sum_observable(), state, 4)


def test_odd_part_pauli_sum_bell(bell_record):
    assert twirl.odd_part(pauli_sum_observable(), bell_record, 3) == pytest.approx(-1.0, abs=1e-10)


def test_odd_sector_structure_by_rank(rng):
    """Fourth-moment PT-odd law: empty for rank <= 2, exactly proportional
    to 6 det(T) + Hodge at rank 3, two-dimensional only at rank 4."""
    states = [random_bloch_record(2, rng) for _ in range(12)]
    combo = np.array([6 * makhlin(s).I1 + makhlin(s).I14 for s in states])
    seen_rank3 = 0.0
    for rank in (1, 2, 3):
        for _ in range(6):
            co = twirl.twirl_coefficients(random_rank_observable(rng, rank), 4)
            y = np.array([twirl.odd_part(co, s, 4) for s in states])
            sol, *_ = np.linalg.lstsq(combo[:, None], y, rcond=None)
            assert np.max(np.abs(combo * sol[0] - y)) <= 1e-9
            if rank <= 2:
                assert abs(sol[0]) <= 1e-9
            else:
                seen_rank3 = max(seen_rank3, abs(sol[0]))
    assert seen_rank3 > 1e-3  # rank 3 generically reaches the combination
    # rank 4 escapes the one-dimensional combination
    escaped = 0.0
    for _ in range(4):
        co = twirl.twirl_coefficients(random_rank_observable(rng, 4), 4)
        y = np.array([twirl.odd_part(co, s, 4) for s in states])
        sol, *_ = np.linalg.lstsq(combo[:, None], y, rcond=None)
        escaped = max(escaped, float(np.max(np.abs(combo * sol[0] - y))))
    assert escaped > 1e-3


def test_hodge_pair_difference_is_pure_hodge(rng):
    plus = twirl.twirl_coefficients(hodge_observable(+1), 4)
    minus = twirl.twirl_coefficients(hodge_observable(-1), 4)
    for _ in range(10):
        st = random_bloch_record(2, rng)
        diff = plus.moment(st) - minus.moment(st)
        assert diff == pytest.approx(-4.0 / 3.0 * makhlin(st).I14, abs=1e-9)


def test_odd_fit_hodge_pair():
    fit = twirl.odd_fit(hodge_observable(+1), 4)
    assert fit.residual <= 1e-10
    assert fit.coefficient("I1") == pytest.approx(0.0, abs=1e-10)
    assert fit.coefficient("I14") == pytest.approx(-2.0 / 3.0, abs=1e-10)


# ---------------------------------------------------------------------------
# symmetric closed form and tripartite classes
# ---------------------------------------------------------------------------

# Closed-form reference for a symmetric twirl at t = 3, compared with the
# engine's Gram solve below.  The seven coefficient classes are taken in
# the gauge where the long-3-cycle coefficients vanish per party.
SYM_T3_CLASSES = (
    "id,id", "id,swap", "id,cycle", "swap,same", "swap,other",
    "swap,cycle", "cycle,cycle",
)

_SYM_T3_B = np.array([
    [4, 0, -8, 0, 0, 0, 4],
    [0, -2, 4, 0, 0, 2, -4],
    [-4, 12, -4, 0, 0, -12, 8],
    [0, 0, 0, 3, -2, -4, 4],
    [0, 0, 0, -1, 2, -4, 4],
    [0, 2, -4, -2, -4, 16, -8],
    [4, -24, 16, 12, 24, -48, 16],
]) / 144.0


def symmetric_coefficients_t3(obs):
    """Per-member values of the seven coefficient classes of a symmetric
    observable's twirl at t = 3, from the closed-form moment table of the
    factor traces (no Gram solve)."""
    if not obs.is_symmetric():
        raise ValueError("symmetric decomposition required (A_j = B_j)")
    s = np.asarray(obs.s, dtype=float)
    a = np.stack(obs.A)
    tau = np.real(np.trace(a, axis1=1, axis2=2))
    t2 = tau**2
    tr3 = np.einsum("aij,bjk,cki->abc", a, a, a)   # tr(A_a A_b A_c)
    tr_aab = np.einsum("aij,ajk,bki->ab", a, a, a)  # tr(A_a^2 A_b)
    st = s * tau
    v = np.array([
        (s @ t2) ** 3,
        (s**2 @ t2) * (s @ t2),
        np.einsum("a,b,c,abc->", st, st, st, tr3),
        (s @ s) * (s @ t2),
        s**3 @ t2,
        np.einsum("a,b,ab->", s**2, st, tr_aab),
        np.einsum("a,b,c,abc->", s, s, s, tr3**2),
    ], dtype=complex)
    return np.real(_SYM_T3_B @ v)


def aggregate_sym_classes_t3(coeffs, tol=1e-9):
    """Extract the seven symmetric class values from an engine-built,
    gauge-fixed coefficient table, asserting members agree within tol."""
    dense = coeffs.dense(gauge=True)
    perms = sg.enumerate_group(3)
    names = [p.cycle_string() for p in perms]
    idx = {n: i for i, n in enumerate(names)}
    swaps = ["(12)", "(13)", "(23)"]
    groups = {
        "id,id": [("()", "()")],
        "id,swap": [("()", s) for s in swaps] + [(s, "()") for s in swaps],
        "id,cycle": [("()", "(123)"), ("(123)", "()")],
        "swap,same": [(s, s) for s in swaps],
        "swap,other": [(s1, s2) for s1 in swaps for s2 in swaps if s1 != s2],
        "swap,cycle": [(s, "(123)") for s in swaps] + [("(123)", s) for s in swaps],
        "cycle,cycle": [("(123)", "(123)")],
    }
    out = np.empty(len(SYM_T3_CLASSES))
    for i, cls in enumerate(SYM_T3_CLASSES):
        members = np.array([dense[idx[a], idx[b]] for a, b in groups[cls]])
        if np.max(np.abs(members.imag)) > tol or np.ptp(members.real) > tol:
            raise twirl.EngineError(f"class {cls} members disagree: {members}")
        out[i] = members.real.mean()
    return out


def test_symmetric_classes_pauli_sum():
    sym = symmetric_coefficients_t3(schmidt_decompose(pauli_sum_observable()))
    expected = np.array([-2, 2, -4, -2, -2, 4, -8]) / 3.0
    np.testing.assert_allclose(sym, expected, atol=1e-12)


def test_symmetric_classes_match_engine(rng):
    for _ in range(10):
        ob = random_symmetric_observable(rng, 1 + int(rng.integers(0, 4)))
        closed = symmetric_coefficients_t3(ob)
        engine = aggregate_sym_classes_t3(twirl.twirl_coefficients(ob, 3))
        np.testing.assert_allclose(closed, engine, atol=1e-10)


def test_symmetric_classes_reject_asymmetric(rng):
    ob = random_rank_observable(rng, 3)
    with pytest.raises(ValueError):
        symmetric_coefficients_t3(ob)


def test_chat_vectors_of_kempe_observables():
    o2 = TripartiteObservable([(I, I, I), (Z, Z, Z)])
    chat = twirl.chat_vector(twirl.twirl_coefficients(o2, 3))
    np.testing.assert_allclose(chat, [8 / 9, 0, 0, 0, 0], atol=1e-12)
    d = I - X
    o3 = TripartiteObservable([(I, I, d), (Z, Z, d)])
    chat3 = twirl.chat_vector(twirl.twirl_coefficients(o3, 3))
    np.testing.assert_allclose(chat3, [8 / 9, 16 / 9, 0, 0, 0], atol=1e-12)


def test_tripartite_moment_against_mc(rng):
    obs3 = TripartiteObservable(
        [(random_hermitian(rng), random_hermitian(rng), random_hermitian(rng)),
         (random_hermitian(rng), random_hermitian(rng), random_hermitian(rng))]
    )
    rho = random_state("mixed", 3, 11)
    exact = twirl.twirl_coefficients(obs3, 3).moment(bloch_from_density(rho))
    est = mc_moment(obs3.matrix(), rho, 3, 60000, seed=8)
    assert abs(exact - est.mean) <= 4 * est.stderr


def test_moment_of_state_vs_pt_state_product(rng):
    ob = kron(random_hermitian(rng), random_hermitian(rng))
    co = twirl.twirl_coefficients(ob, 3)
    st = random_bloch_record(2, rng)
    assert co.moment(st) == pytest.approx(co.moment(partial_transpose_bloch(st)), abs=1e-10)


def test_higher_moments_supported():
    # rank-1 observables evaluate through t = 6
    co = twirl.twirl_coefficients(kron(Z, I + Z), 6)
    mm = bloch_from_density(maximally_mixed(2))
    assert co.moment(mm) == pytest.approx((np.trace(kron(Z, I + Z)).real / 4) ** 6, abs=1e-10)


def test_moment_rejects_a_density_matrix_of_the_wrong_party_count(ghz_record):
    # a record and its density matrix are checked alike, after conversion
    co = twirl.twirl_coefficients(pauli_sum_observable(), 2)
    for state in (ghz_state(), ghz_record):
        with pytest.raises(ValueError, match="expected 2-party state, got 3-party"):
            co.moment(state)


def test_tripartite_rejects_high_moment():
    with pytest.raises(ValueError):
        twirl.twirl_coefficients(TripartiteObservable([(I, I, I)]), 4)


# ---------------------------------------------------------------------------
# fourth-moment sign table and closed forms
# ---------------------------------------------------------------------------

SIGN_TABLE_T4 = {
    # identity-placement signs per 4-cycle, rows: slot of the identity factor
    "(1234)": (+1, +1, +1, +1),
    "(1243)": (-1, -1, +1, +1),
    "(1324)": (-1, +1, +1, -1),
    "(1342)": (+1, +1, -1, -1),
    "(1423)": (+1, -1, -1, +1),
    "(1432)": (-1, -1, -1, -1),
}


def test_t4_sign_table_and_survival_rule(rng):
    """Brute-force contraction of the four identity placements against each
    4-cycle pair reproduces the sign table; the placement signs only survive
    summation for pairs (pi, pi) and (pi, pi^-1)."""
    perms = sg.enumerate_group(4)
    index = {p.cycle_string(): i for i, p in enumerate(perms)}
    w = _w_rows(perms, 4)
    digits = np.array(np.unravel_index(np.arange(4**4), (4,) * 4))
    t_mat = rng.uniform(-1, 1, (3, 3))
    det = np.linalg.det(t_mat)
    cycles4 = list(SIGN_TABLE_T4)
    for slot in range(4):
        keep = (digits[slot] == 0) & np.all(
            digits[[k for k in range(4) if k != slot]] != 0, axis=0
        )
        codes = np.nonzero(keep)[0]
        sub = digits[:, codes]
        prod_t = np.ones((len(codes), len(codes)))
        for k in range(4):
            if k != slot:
                prod_t *= t_mat[np.ix_(sub[k] - 1, sub[k] - 1)]
        for pa in cycles4:
            for pb in cycles4:
                total = np.real(
                    w[index[pa]][codes] @ prod_t @ w[index[pb]][codes]
                )
                expect = SIGN_TABLE_T4[pa][slot] * SIGN_TABLE_T4[pb][slot] * (-24.0) * det
                assert total == pytest.approx(expect, abs=1e-9)
    # survival rule of the placement-summed signs
    inverse = {"(1234)": "(1432)", "(1243)": "(1342)", "(1324)": "(1423)",
               "(1342)": "(1243)", "(1423)": "(1324)", "(1432)": "(1234)"}
    for pa in cycles4:
        for pb in cycles4:
            summed = sum(SIGN_TABLE_T4[pa][s] * SIGN_TABLE_T4[pb][s] for s in range(4))
            if pb == pa:
                assert summed == 4
            elif pb == inverse[pa]:
                assert summed == -4
            else:
                assert summed == 0


def test_t3_closed_form_matches_solver(rng):
    """Gauge-fixed 3-cycle coefficient at t=3 equals
    (-2 tr tr tr + 2 [pair-trace terms] - 4 tr(ABC)) / 12."""
    from itertools import product as iproduct

    perms = sg.enumerate_group(3)
    index = {p.cycle_string(): i for i, p in enumerate(perms)}
    frame = random_orthonormal_hermitian(rng, 3)
    for jj in iproduct(range(3), repeat=3):
        f = [frame[j] for j in jj]
        x = twirl.gauge_fix(twirl.solve_factor_coefficients(f), 3)
        tau = [np.trace(m) for m in f]
        pair = lambda a, b: np.trace(f[a] @ f[b])
        rhs = (-2 * tau[0] * tau[1] * tau[2]
               + 2 * (pair(0, 1) * tau[2] + pair(0, 2) * tau[1] + pair(1, 2) * tau[0])
               - 4 * np.trace(f[0] @ f[1] @ f[2])) / 12.0
        assert x[index["(123)"]] == pytest.approx(rhs, abs=1e-12)


def test_symmetric_table_is_symmetric(rng):
    ob = random_symmetric_observable(rng, 3)
    dense = twirl.twirl_coefficients(ob, 3).dense()
    np.testing.assert_allclose(dense, dense.T, atol=1e-12)


def test_t5_moment_against_mc():
    ob = kron(I + Z, I + Z)
    co = twirl.twirl_coefficients(ob, 5)
    rho = random_state("mixed", 2, 51)
    exact = co.moment(bloch_from_density(rho))
    est = mc_moment(ob, rho, 5, 200_000, seed=9)
    assert abs(exact - est.mean) <= 4 * est.stderr


def test_three_party_trace_identities(rng):
    """tr(rho^x3 V_a x V_b x V_c) for the transposition classes carries the
    degree-3 companions with the 1/8 normalization; explicit 512x512
    permutation-matrix oracle against the Bloch formulas."""
    from rmoments.invariants import kempe as kempe_record
    from rmoments.states import random_bloch_record

    st = random_bloch_record(3, rng)
    rho = density_from_bloch(st)
    rho3 = np.kron(np.kron(rho, rho), rho)
    byname = {p.cycle_string(): p for p in sg.enumerate_group(3)}

    def joint3(na, nb, nc):
        pa, pb, pc = byname[na], byname[nb], byname[nc]
        images = [0] * 9
        for k in range(3):
            images[3 * k] = 3 * pa.images[k]
            images[3 * k + 1] = 3 * pb.images[k] + 1
            images[3 * k + 2] = 3 * pc.images[k] + 2
        return sg.v_matrix(sg.Permutation(tuple(images)), 2)

    rec = kempe_record(st)
    a2 = st.alpha @ st.alpha
    b2 = st.beta @ st.beta
    g2 = st.gamma @ st.gamma
    pair_norms = (
        np.trace(st.TAB.T @ st.TAB) + np.trace(st.TBC.T @ st.TBC)
        + np.trace(st.TCA.T @ st.TCA)
    )
    base = 1 + a2 + b2 + g2
    # all three transpositions equal: the W-norm class
    val = np.trace(rho3 @ joint3("(12)", "(12)", "(12)")).real
    assert val == pytest.approx((base + pair_norms + rec.w_norm_sq) / 8, abs=1e-12)
    # third party differs: W-TAB-gamma cross term
    val = np.trace(rho3 @ joint3("(12)", "(12)", "(13)")).real
    expect = (base + np.trace(st.TAB.T @ st.TAB)
              + st.alpha @ st.TCA.T @ st.gamma + st.beta @ st.TBC @ st.gamma
              + rec.cross_ab_g) / 8
    assert val == pytest.approx(expect, abs=1e-12)
    # all three distinct: the tr(TAB TBC TCA) class
    val = np.trace(rho3 @ joint3("(12)", "(23)", "(13)")).real
    expect = (base + st.alpha @ st.TAB @ st.beta
              + st.alpha @ st.TCA.T @ st.gamma + st.beta @ st.TBC @ st.gamma
              + rec.trTTT) / 8
    assert val == pytest.approx(expect, abs=1e-12)


# ---------------------------------------------------------------------------
# commutant basis against a full-S_t pseudo-inverse reference
# ---------------------------------------------------------------------------

CATALAN = (1, 2, 5, 14, 42, 132)


def test_commutant_basis_is_catalan_sized_and_independent():
    for t, size in zip(range(1, 7), CATALAN):
        basis = sg.commutant_basis(t)
        assert len(basis) == size
        assert {p.inverse() for p in basis} == set(basis)
        gram = sg.gram_block(basis, basis, 2)
        assert np.linalg.matrix_rank(gram.astype(float)) == size
    # qutrits: the basis size is the rank of the full Gram matrix
    for t in range(1, 6):
        basis = sg.commutant_basis(t, 3)
        full = np.linalg.matrix_rank(sg.gram_matrix(t, 3).astype(float))
        block = sg.gram_block(basis, basis, 3).astype(float)
        assert len(basis) == full == np.linalg.matrix_rank(block)


def _ref_trace_tensors(factors, t):
    f = np.asarray(factors, dtype=complex)
    tensors = [np.trace(f, axis1=1, axis2=2)]
    chain = f
    for _ in range(t - 1):
        chain = np.einsum("...ij,bjk->...bik", chain, f)
        tensors.append(np.trace(chain, axis1=-2, axis2=-1))
    return tensors


def _ref_rhs(factors, tuples, perms):
    """rhs[n, col] = tr(F_{j1} x ... x F_{jt} V_pi) for every pi of
    ``perms``: one permutation at a time, one cycle at a time."""
    tensors = _ref_trace_tensors(factors, tuples.shape[1])
    rhs = np.empty((len(tuples), len(perms)), dtype=complex)
    for col, p in enumerate(perms):
        vals = np.ones(len(tuples), dtype=complex)
        for cyc in p.cycles():
            vals = vals * tensors[len(cyc) - 1][tuple(tuples[:, slot] for slot in cyc)]
        rhs[:, col] = vals
    return rhs


def _ref_solve(factors, tuples, t):
    """Minimum-norm coefficients over all of S_t: rhs over every
    permutation, times the pseudo-inverse of the full Gram matrix."""
    rhs = _ref_rhs(factors, tuples, sg.enumerate_group(t))
    gram, pinv, _ = _ref_gram(t)
    x = _times_real(rhs, pinv)
    assert np.max(np.abs(_times_real(x, gram) - rhs)) <= twirl.SOLVE_RESIDUAL_TOL
    return x


def _times_real(z, m):
    return z.real @ m + 1j * (z.imag @ m)


@lru_cache(maxsize=None)
def _ref_gram(t):
    """Full Gram matrix, its pseudo-inverse and an orthonormal kernel basis."""
    gram = sg.gram_matrix(t, 2).astype(float)
    _, sv, vt = np.linalg.svd(gram)
    kernel = vt[int(np.sum(sv > 1e-9 * sv[0])):].T
    return gram, np.linalg.pinv(gram, rcond=1e-9), kernel


def _ref_tables(obs, t):
    """Per-party minimum-norm coefficient rows over S_t, one row per index
    tuple, with the tuple weights folded into the first party."""
    if isinstance(obs, TripartiteObservable):
        per_party = [np.stack([term[k] for term in obs.terms]) for k in range(3)]
        values = obs.weights
    else:
        per_party = [np.stack(obs.A), np.stack(obs.B)]
        values = obs.s
    tuples = np.indices((len(values),) * t).reshape(t, -1).T
    rows = []
    for f in per_party:
        same = rows and np.array_equal(f, per_party[len(rows) - 1])
        rows.append(rows[-1] if same else _ref_solve(f, tuples, t))
    rows[0] = np.prod(np.asarray(values)[tuples], axis=1)[:, None] * rows[0]
    return rows


def _ref_apply(rows, r, t):
    """Contract every Pauli slot of each row with r's second index; r may
    map one slot to a joint (4 x 4) slot of size 16."""
    z = rows.reshape((len(rows),) + (4,) * t)
    for _ in range(t):
        z = np.tensordot(z, r, axes=([1], [0]))
    return z.reshape(len(rows), -1)


def _ref_state_side(state, t):
    """The full Pauli-trace table W over S_t with, for two parties, the
    pair traces tr(rho^xt V_a x V_b) and, for three, the transfer tensor."""
    w = _w_rows(sg.enumerate_group(t), t)
    r = transfer_from_bloch(state)
    if isinstance(state, ThreeQubitState):
        return w, r
    return w, w @ _ref_apply(w, r.T, t).T / 4**t


def _ref_moment(rows, dense, side, t):
    w, state_side = side
    if len(rows) == 2:
        # sum_{a,b} D[a, b] tr(rho^xt V_a x V_b), D the dense table
        return np.sum(dense * state_side)
    wx, wy, wz = (x @ w for x in rows)
    n = len(wx)
    z = _ref_apply(wx, state_side.reshape(4, 16), t).reshape((n,) + (4, 4) * t)
    wy, wz = wy.reshape((n,) + (4,) * t), wz.reshape((n,) + (4,) * t)
    spec = {1: "nab,na,nb->", 2: "nabcd,nac,nbd->", 3: "nabcdef,nace,nbdf->"}[t]
    return np.einsum(spec, z, wy, wz) / 8**t


def _ref_reduced(rows, t):
    """Per-party gauge fix of reference rows with a kernel basis of the
    full Gram matrix: the designated coefficients set to zero."""
    if t not in twirl.GAUGE_ZEROS:
        return rows
    names = [p.cycle_string() for p in sg.enumerate_group(t)]
    zero = [names.index(n) for n in twirl.GAUGE_ZEROS[t]]
    kernel = _ref_gram(t)[2]
    return [x - np.linalg.solve(kernel[zero], x[:, zero].T).T @ kernel.T for x in rows]


def _dense(rows):
    if len(rows) == 2:
        return rows[0].T @ rows[1]
    return np.einsum("na,nb,nc->abc", *rows)


def _engine_cases(rng):
    """(t, observable) pairs: t = 1..6 at ranks 1-4, generic and symmetric,
    and three parties at t <= 3."""
    for t in range(1, 7):
        for rank in (1, 2, 3, 4):
            yield t, random_rank_observable(rng, rank)
            yield t, random_symmetric_observable(rng, rank)
    for t in (1, 2, 3):
        for terms in (1, 2):
            yield t, TripartiteObservable(
                [tuple(random_hermitian(rng) for _ in range(3)) for _ in range(terms)],
                rng.uniform(0.5, 1.5, terms),
            )


def _bits(z):
    # a view of a non-contiguous array would read the wrong words
    return np.ascontiguousarray(z).view(np.uint64)


def test_rhs_matches_per_permutation_loop(rng):
    # the cycle plan reads each distinct cycle's traces once and multiplies
    # them in cycles() order from ones, as the one-permutation loop does; at
    # t = 6 the rank-3 and rank-4 tuples span several blocks, one partial
    for t, obs in _engine_cases(rng):
        if isinstance(obs, TripartiteObservable):
            per_party = [[term[k] for term in obs.terms] for k in range(3)]
            rank = len(obs.terms)
        else:
            per_party, rank = (obs.A, obs.B), obs.rank
        tuples = twirl._index_tuples(rank, t)
        for factors in map(np.stack, per_party):
            got = twirl._rhs_for_tuples(factors, tuples)
            want = _ref_rhs(factors, tuples, sg.commutant_basis(t))
            assert got.shape == want.shape
            assert np.array_equal(_bits(got), _bits(want)), (t, rank)


def test_cycle_plan_covers_the_basis():
    for t, distinct in zip(range(1, 7), (1, 3, 7, 17, 40, 104)):
        basis = sg.commutant_basis(t)
        groups, plan, widths, inverse = twirl._cycle_plan(t)
        cycles = [tuple(c) for g in groups for c in g]
        assert len(cycles) == len(set(cycles)) == distinct
        ordered = [basis[b] for b in np.argsort(inverse)]
        assert [p.num_cycles() for p in ordered] == sorted(
            (p.num_cycles() for p in basis), reverse=True)
        for row, p in enumerate(ordered):
            assert [cycles[i] for i in plan[row, :p.num_cycles()]] == list(p.cycles())
            assert [row < w for w in widths] == [j < p.num_cycles() for j in range(len(widths))]


def test_engine_matches_full_group_reference(rng):
    states = {2: [random_bloch_record(2, rng) for _ in range(2)],
              3: [random_bloch_record(3, rng) for _ in range(2)]}
    sides = {}
    for t, obs in _engine_cases(rng):
        co = twirl.twirl_coefficients(obs, t)
        ref = _ref_tables(obs, t)
        dense = _dense(ref)
        for i, st in enumerate(states[co.parties]):
            key = (t, co.parties, i)
            if key not in sides:
                sides[key] = _ref_state_side(st, t)
            want = _ref_moment(ref, dense, sides[key], t)
            assert abs(want.imag) <= 1e-10 * max(1.0, abs(want.real))
            assert co.moment(st) == pytest.approx(want.real, rel=1e-10, abs=1e-12)
        if t <= 4:
            for gauge, want in ((False, dense), (True, _dense(_ref_reduced(ref, t)))):
                scale = max(1.0, np.max(np.abs(want)))
                np.testing.assert_allclose(co.dense(gauge=gauge), want, atol=1e-12 * scale)


def test_factor_rows_are_capped_at_basis_size(rng):
    for rank in (1, 4):
        co = twirl.twirl_coefficients(random_rank_observable(rng, rank), 6)
        assert [f.shape for f in co.factors] == [(min(comb(6 + rank - 1, 6), 132), 132)] * 2


def test_multisets_are_sorted_with_multinomial_counts():
    for r in range(1, 5):
        for t in range(1, 7):
            tuples, counts = twirl._multisets(r, t)
            rows = [tuple(row) for row in tuples.tolist()]
            assert all(list(row) == sorted(row) for row in rows)
            assert rows == sorted(set(rows)) and len(rows) == comb(t + r - 1, t)
            for row, count in zip(rows, counts):
                assert count == factorial(t) // prod(map(factorial, Counter(row).values()))
            assert counts.sum() == r**t


def _full_tuple_factors(obs, t):
    """Factor rows over every ordered index tuple, weights folded into the
    first party, collapsed to [1, P^T Q] past |B| rows for two parties."""
    if isinstance(obs, TripartiteObservable):
        per_party = [[term[k] for term in obs.terms] for k in range(3)]
        values, parties = obs.weights, 3
    else:
        per_party = [obs.A] if obs.is_symmetric() else [obs.A, obs.B]
        values, parties = obs.s, 2
    tuples = twirl._index_tuples(len(values), t)
    factors = [twirl._solve_basis(twirl._rhs_for_tuples(np.stack(f), tuples), t)[0]
               for f in per_party]
    if len(factors) < parties:
        factors.append(factors[0])
    factors[0] = np.prod(np.asarray(values)[tuples], axis=1)[:, None] * factors[0]
    size = len(sg.commutant_basis(t))
    if parties == 2 and len(tuples) > size:
        factors = [np.eye(size), factors[0].T @ factors[1]]
    return factors


def test_multiset_rows_match_every_index_tuple(rng):
    # every ordering of a multiset gives the same moment, so the multiset
    # rows agree with the rows of every tuple on physical and non-physical
    # records; the S_t tables are the full-tuple ones, bit for bit
    states = {p: [random_bloch_record(p, rng),
                  bloch_from_density(random_state("mixed", p, int(rng.integers(1000))))]
              for p in (2, 3)}
    for t, obs in _engine_cases(rng):
        co = twirl.twirl_coefficients(obs, t)
        factors = _full_tuple_factors(obs, t)
        full = twirl.TwirlCoefficients(t, co.parties, tuple(factors), co.diagnostics,
                                       co.stacks, co.weights)
        for st in states[co.parties]:
            assert co.moment(st) == pytest.approx(full.moment(st), rel=1e-10, abs=1e-12)
        for gauge in (False, True):
            want = _dense([f @ twirl._embedding(t, gauge).T for f in factors])
            assert np.array_equal(_bits(co.dense(gauge=gauge)), _bits(want)), (t, gauge)


def test_diagnostics_record(rng):
    co = twirl.twirl_coefficients(random_rank_observable(rng, 3), 5)
    diag = co.diagnostics
    basis = sg.commutant_basis(5)
    assert diag.basis_size == len(basis) == 42
    gram = sg.gram_block(basis, basis, 2).astype(float)
    assert diag.gram_condition == pytest.approx(np.linalg.cond(gram), rel=1e-9)
    assert 0.0 <= diag.solve_residual <= twirl.SOLVE_RESIDUAL_TOL
    with pytest.raises(AttributeError):
        diag.basis_size = 0


def test_pauli_factors_match_the_full_trace_table(rng):
    # W_B, built by the right-hand-side kernel and kept on its support
    # columns, equals the multiplication-table reference (in value: some zero
    # imaginary parts differ in sign); the factors built from it, kept on the
    # same support rows, equal the products with the full reference table
    # there, the collapsed identity included
    from rmoments import protocol_sim as ps

    full = {t: _w_rows(sg.commutant_basis(t), t) for t in range(1, 7)}
    for t, w in full.items():
        codes, rows = twirl._basis_w(t)
        assert len(codes) == 4 ** (t - 1)
        assert not np.any(np.delete(w, codes, axis=1))
        assert np.array_equal(rows, w[:, codes])
    tables = [twirl.twirl_coefficients(random_rank_observable(rng, rank), t)
              for t, rank in ((1, 2), (2, 1), (3, 2), (4, 3), (5, 1), (6, 1), (6, 3))]
    tables += [co for name in ps.PIPELINES for co in ps._pipeline_engines(name)]
    for co in tables:
        codes = twirl._basis_w(co.t)[0]
        for f, p in zip(co.factors, co._pauli):
            assert p.shape == (4 ** (co.t - 1), len(f))
            assert np.array_equal(p, (f @ full[co.t]).T[codes])


def _row_major_transfer(w, r, t):
    """R^xt on (n, 4^t) rows, copy by copy over n 4^k leading blocks: the
    row-major reference for the engine's string-major columns."""
    n = w.shape[0]
    z = np.ascontiguousarray(w, dtype=complex).view(float)
    for k in range(t):
        z = r @ z.reshape(n * 4**k, 4, 2 * 4 ** (t - 1 - k))
    return z.reshape(n, 2 * 4**t).view(complex)


def _row_major_moment(co, state):
    """The moment contracted over (k, 4^t) Pauli factor rows: the row-major
    reference for ``TwirlCoefficients.moment``."""
    codes, w = twirl._basis_w(co.t)
    rows = []
    for f in co.factors:
        full = np.zeros((len(f), 4**co.t), dtype=complex)
        identity = f.shape == (len(w), len(w)) and np.array_equal(f, np.eye(len(w)))
        full[:, codes] = w if identity else f @ w
        rows.append(full)
    r = transfer_from_bloch(state)
    t = co.t
    if co.parties == 2:
        return np.einsum("kc,kc->", rows[0], _row_major_transfer(rows[1], r, t)).real / 4**t
    coef = np.einsum("ka,kb,kc->abc", *(x[:, codes] for x in rows)).ravel() / 8**t
    d = np.array(np.unravel_index(codes, (4,) * t))
    idx = 16 * d[:, :, None, None] + 4 * d[:, None, :, None] + d[:, None, None, :]
    key = np.ravel_multi_index(np.sort(idx.reshape(t, -1)[:, coef != 0], axis=0), (64,) * t)
    uniq, inv = np.unique(key, return_inverse=True)
    weights = [np.bincount(inv, part[coef != 0], len(uniq)) for part in (coef.real, coef.imag)]
    idx = np.array(np.unravel_index(uniq, (64,) * t))
    return (np.array(weights) @ np.prod(r.reshape(-1)[idx], axis=0))[0]


def _untiled_moment(co, state):
    """The two-party moment contracted over zero-padded (4^t, k) columns in
    one piece: the reference for the column tiles of
    ``TwirlCoefficients.moment``, in the same arithmetic as one tile."""
    codes, w = twirl._basis_w(co.t)
    cols = []
    for f in co.factors:
        full = np.zeros((4**co.t, len(f)), dtype=complex)
        identity = f.shape == (len(w), len(w)) and np.array_equal(f, np.eye(len(w)))
        full[codes] = w.T if identity else (f @ w).T
        cols.append(full)
    z = twirl._apply_transfer(cols[1], transfer_from_bloch(state), co.t)
    return float((np.einsum("ck,ck->", cols[0], z) / 4**co.t).real)


def _tile_columns(t):
    return twirl._TILE_ENTRIES // 4**t


def _moment_states(rng):
    return [random_bloch_record(2, rng),
            bloch_from_density(random_state("mixed", 2, int(rng.integers(1000)))),
            bloch_from_density(bell_state())]


def test_one_tile_moments_are_untiled_bit_for_bit(rng):
    # every table at t <= 4 and every pipeline table fits in one tile, whose
    # full-length columns are scattered once and give the untiled moment
    tables = [co for name in ps.PIPELINES for co in ps._pipeline_engines(name)]
    for t in range(1, 5):
        for rank in (1, 2, 3, 4):
            tables += [twirl.twirl_coefficients(random_rank_observable(rng, rank), t),
                       twirl.twirl_coefficients(random_symmetric_observable(rng, rank), t)]
    states = _moment_states(rng)
    for co in tables:
        assert co.parties == 2 and len(co.factors[0]) <= _tile_columns(co.t)
        for st in states:
            assert co.moment(st).hex() == _untiled_moment(co, st).hex(), co.t
        assert co._columns[0].shape == (4**co.t, len(co.factors[0]))


def test_tiled_moments_match_the_untiled_contraction(rng, monkeypatch):
    # t = 6 at ranks 3-4 and t = 5 at rank 4 (collapsed to k = |B| = 42) span
    # several tiles, whose partial sums move only at rounding level
    states = _moment_states(rng)
    for t, rank in ((5, 4), (6, 3), (6, 4)):
        for obs in (random_rank_observable(rng, rank), random_symmetric_observable(rng, rank)):
            co = twirl.twirl_coefficients(obs, t)
            assert len(co.factors[0]) > _tile_columns(t)
            for st in states:
                got = co.moment(st)
                assert got == pytest.approx(_row_major_moment(co, st), rel=1e-12)
                assert got == pytest.approx(_untiled_moment(co, st), rel=1e-12)
    # tile widths around a table's k columns (k - 1 leaves a one-column last
    # tile) and three columns, over several tiles
    for t, rank in ((5, 3), (6, 2)):
        obs = random_rank_observable(rng, rank)
        k = len(twirl.twirl_coefficients(obs, t).factors[0])
        for cols in (k + 1, k, k - 1, 3):
            monkeypatch.setattr(twirl, "_TILE_ENTRIES", cols * 4**t)
            co = twirl.twirl_coefficients(obs, t)
            for st in states:
                got, want = co.moment(st), _untiled_moment(co, st)
                assert got == pytest.approx(_row_major_moment(co, st), rel=1e-12), (t, cols)
                assert got == pytest.approx(want, rel=1e-12), (t, cols)
                if cols >= k:
                    assert got.hex() == want.hex(), (t, cols)


def test_t6_rank4_table_memory(rng):
    # the Pauli factors live on their 4^(t-1) support rows and the moment
    # scatters them one tile at a time: neither the build nor the moment
    # forms a (4^t, k) array of the whole table
    obs, state = random_rank_observable(rng, 4), random_bloch_record(2, rng)
    twirl.twirl_coefficients(obs, 6).moment(state)  # fill the engine's caches
    tracemalloc.start()
    try:
        co = twirl.twirl_coefficients(obs, 6)
        held, build_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        co.moment(state)
        moment_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert build_peak <= 4 * 2**20
    assert moment_peak <= 3 * 2**20


def test_transfer_matches_row_major_kernel_bit_for_bit(rng):
    # the columns form the same four-term sums as the row-major kernel,
    # whose result they hold transposed; at t <= 4 both equal R^xt formed
    # densely
    r = transfer_from_bloch(random_bloch_record(2, rng))
    for t in range(1, 7):
        for n in (0, 1, 7, 84):
            w = rng.normal(size=(4**t, n)) + 1j * rng.normal(size=(4**t, n))
            got = twirl._apply_transfer(w, r, t)
            assert got.shape == (4**t, n)
            want = _row_major_transfer(np.ascontiguousarray(w.T), r, t)
            assert np.array_equal(_bits(got), _bits(want.T)), (t, n)
            if t <= 4:
                dense = r
                for _ in range(t - 1):
                    dense = np.kron(dense, r)
                np.testing.assert_allclose(got, dense @ w, rtol=1e-12, atol=1e-12)


def test_moments_match_row_major_contraction(rng):
    # only the order of the final reduction moved: a two-party table with
    # one row and every three-party table (whose support products sum over
    # the rows in the same order) give the row-major moment bit for bit;
    # many-row two-party tables agree to rounding
    states = {p: [random_bloch_record(p, rng),
                  bloch_from_density(random_state("mixed", p, int(rng.integers(1000))))]
              for p in (2, 3)}
    for t, obs in _engine_cases(rng):
        co = twirl.twirl_coefficients(obs, t)
        for st in states[co.parties]:
            got, want = co.moment(st), _row_major_moment(co, st)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-14), (t, co.parties)
            if co.parties == 3 or len(co.factors[0]) == 1:
                assert got == want, (t, co.parties)


def test_three_party_moment_matches_dense_contraction(rng):
    # the merged weighted sum against sum_k <wx_k x wy_k x wz_k, R3^xt> / 8^t
    # with R3^xt formed densely, for physical and non-physical records
    for t in (1, 2, 3):
        obs = TripartiteObservable(
            [tuple(random_hermitian(rng) for _ in range(3)) for _ in range(2)],
            rng.uniform(0.5, 1.5, 2),
        )
        co = twirl.twirl_coefficients(obs, t)
        full = _w_rows(sg.commutant_basis(t), t)
        wx, wy, wz = (f @ full for f in co.factors)
        states = [random_bloch_record(3, rng),
                  bloch_from_density(random_state("mixed", 3, int(rng.integers(1000))))]
        for st in states:
            r = transfer_from_bloch(st)
            rt = r
            for _ in range(t - 1):
                rt = np.multiply.outer(rt, r)
            # axes (a1 b1 c1 a2 b2 c2 ...) -> (a1..at, b1..bt, c1..ct)
            rt = rt.transpose([3 * s + p for p in range(3) for s in range(t)])
            want = np.einsum("ka,kb,kc,abc->", wx, wy, wz, rt.reshape((4**t,) * 3)) / 8**t
            assert abs(want.imag) <= 1e-12
            assert co.moment(st) == pytest.approx(want.real, rel=1e-12, abs=1e-13)


def test_zero_observable_gives_zero_table(rng):
    # a rank-0 Schmidt decomposition has no terms, so the table has no rows
    state = random_bloch_record(2, rng)
    zero = np.zeros((4, 4))
    assert schmidt_decompose(zero).rank == 0
    for t in range(1, 7):
        co = twirl.twirl_coefficients(zero, t)
        assert co.moment(state) == 0.0
        assert co.moment(bell_state()) == 0.0
        for gauge in (False, True):
            dense = co.dense(gauge=gauge)
            assert dense.shape == (factorial(t),) * 2 and not np.any(dense)
        dec = twirl.decompose(co, t)
        assert not np.any(dec.coefficients) and dec.residual == 0.0
    assert mc_moment(zero, bell_state(), 3, 100, 0).mean == 0.0


def test_overflowing_table_is_an_error():
    # a table scales as the t-th power of the weights: at 1e200 (t = 2) and
    # 1e100 (t = 4) the weights' powers overflow, at 1e51 (t = 6) every
    # factor row is finite but a Pauli factor is not; RuntimeWarnings are
    # errors under pytest, so none escapes
    zz = np.kron(Z, Z)
    for weight, t in ((1e200, 2), (1e100, 4), (1e51, 6)):
        with pytest.raises(OverflowError):
            twirl.twirl_coefficients(weight * zz, t)
    with pytest.raises(OverflowError):
        twirl.twirl_coefficients(TripartiteObservable([(Z, Z, Z)], [1e200]), 2)
    co = twirl.twirl_coefficients(1e50 * zz, 6)
    assert np.isfinite(co.moment(bell_state()))
    # that finite table's contraction with a non-physical record of
    # T_zz = 1e3 is not finite: an error, not Infinity
    with pytest.raises(OverflowError):
        co.moment(TwoQubitState(np.zeros(3), np.zeros(3), np.diag([0.0, 0.0, 1e3])))
