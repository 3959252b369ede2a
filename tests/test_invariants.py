import numpy as np
import pytest

from rmoments import invariants, states
from rmoments.haar_mc import haar_su2
from rmoments.linalg import kron, kron_all


def test_cofactor_identity(rng):
    m = rng.standard_normal((3, 3))
    cof = invariants.cofactor3(m)
    np.testing.assert_allclose(m @ cof.T, np.linalg.det(m) * np.eye(3), atol=1e-12)
    np.testing.assert_allclose(invariants.cofactor3(np.eye(3)), np.eye(3))


def test_makhlin_bell(bell_record):
    rec = invariants.makhlin(bell_record)
    assert rec.I1 == pytest.approx(-1.0)
    assert rec.I2 == pytest.approx(3.0)
    assert rec.I3 == pytest.approx(3.0)
    for name in ("I4", "I5", "I6", "I7", "I8", "I9", "I12", "I13", "I14"):
        assert getattr(rec, name) == pytest.approx(0.0, abs=1e-12)


def test_makhlin_maximally_mixed():
    rec = invariants.makhlin(states.bloch_from_density(states.maximally_mixed(2)))
    for name in rec.CONTINUOUS:
        assert getattr(rec, name) == 0.0
    for name in rec.DISCRETE:
        assert getattr(rec, name) == 0


def test_makhlin_nonneg_and_cauchy_schwarz(rng):
    for _ in range(50):
        rec = invariants.makhlin(states.random_bloch_record(2, rng))
        assert rec.I2 >= 0 and rec.I3 >= 0 and rec.I4 >= 0 and rec.I7 >= 0
        assert rec.I3 <= rec.I2**2 + 1e-12


def test_makhlin_lu_invariance(rng):
    for i in range(20):
        rho = states.random_state("mixed", 2, 700 + i)
        rec = invariants.makhlin(states.bloch_from_density(rho))
        u = kron(haar_su2(rng), haar_su2(rng))
        rec2 = invariants.makhlin(states.bloch_from_density(u @ rho @ u.conj().T))
        for name in rec.CONTINUOUS:
            assert getattr(rec2, name) == pytest.approx(getattr(rec, name), abs=1e-9)
        for name in rec.DISCRETE:
            # signs are exact invariants away from the zero threshold
            base = getattr(rec, name)
            if base != 0:
                assert getattr(rec2, name) == base


def test_discrete_invariants_zero_when_structured():
    # alpha = 0 forces every discrete determinant to degenerate
    rec = invariants.makhlin(
        states.TwoQubitState(np.zeros(3), np.array([0.3, 0.1, 0.2]), np.diag([0.5, 0.4, 0.1]))
    )
    assert rec.I10 == 0 and rec.I15 == 0 and rec.I17 == 0


def test_hodge_via_star_simple_cases():
    rec = states.TwoQubitState(np.array([1.0, 0, 0]), np.array([1.0, 0, 0]), np.eye(3))
    assert invariants.hodge_via_star(rec) == pytest.approx(2.0)
    rec0 = states.TwoQubitState(np.zeros(3), np.array([1.0, 0, 0]), np.eye(3))
    assert invariants.hodge_via_star(rec0) == pytest.approx(0.0)


def test_hodge_star_matches_cofactor_formula(rng):
    for _ in range(100):
        rec = states.random_bloch_record(2, rng)
        assert invariants.hodge_via_star(rec) == pytest.approx(
            invariants.makhlin(rec).I14, abs=1e-10
        )


def test_pt_flips_only_det_and_hodge(rng):
    for _ in range(50):
        rec = states.random_bloch_record(2, rng)
        a = invariants.makhlin(rec)
        b = invariants.makhlin(states.partial_transpose_bloch(rec))
        assert b.I1 == pytest.approx(-a.I1, abs=1e-12)
        assert b.I14 == pytest.approx(-a.I14, abs=1e-12)
        for name in ("I2", "I3", "I4", "I5", "I6", "I7", "I8", "I9", "I12", "I13"):
            assert getattr(b, name) == pytest.approx(getattr(a, name), abs=1e-10)


def test_kempe_maximally_mixed():
    rec = invariants.kempe(states.bloch_from_density(states.maximally_mixed(3)))
    assert rec.kempe == pytest.approx(1.0 / 8.0)
    assert rec.w_norm_sq == 0.0


def test_kempe_ghz(ghz_record):
    rec = invariants.kempe(ghz_record)
    assert rec.kempe == pytest.approx(0.25, abs=1e-12)
    assert rec.trTTT == pytest.approx(1.0, abs=1e-12)
    assert rec.w_norm_sq == pytest.approx(4.0, abs=1e-12)


def test_kempe_lu_invariance(rng):
    for i in range(10):
        rho = states.random_state("mixed", 3, 800 + i)
        rec = invariants.kempe(states.bloch_from_density(rho))
        u = kron_all([haar_su2(rng) for _ in range(3)])
        rec2 = invariants.kempe(states.bloch_from_density(u @ rho @ u.conj().T))
        assert rec2.kempe == pytest.approx(rec.kempe, abs=1e-9)
        assert rec2.w_norm_sq == pytest.approx(rec.w_norm_sq, abs=1e-9)


def partial_transpose_bloch3(state, party):
    """Partial transpose of one subsystem of a three-qubit Bloch record."""
    out = state.copy()
    if party == 1:
        out.alpha[1] *= -1.0
        out.TAB[1, :] *= -1.0
        out.TCA[:, 1] *= -1.0
        out.W[1, :, :] *= -1.0
    elif party == 2:
        out.beta[1] *= -1.0
        out.TAB[:, 1] *= -1.0
        out.TBC[1, :] *= -1.0
        out.W[:, 1, :] *= -1.0
    elif party == 3:
        out.gamma[1] *= -1.0
        out.TBC[:, 1] *= -1.0
        out.TCA[1, :] *= -1.0
        out.W[:, :, 1] *= -1.0
    else:
        raise ValueError("party must be 1, 2 or 3")
    return out


def test_kempe_pt_invariance(rng):
    # every listed field is unchanged under partial transposition of any party
    for _ in range(20):
        rec = states.random_bloch_record(3, rng)
        base = invariants.kempe(rec)
        for party in (1, 2, 3):
            other = invariants.kempe(partial_transpose_bloch3(rec, party))
            for key, val in base.as_dict().items():
                assert other.as_dict()[key] == pytest.approx(val, abs=1e-12)
