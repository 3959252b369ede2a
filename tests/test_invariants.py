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


def _cofactor_by_minors(m: np.ndarray) -> np.ndarray:
    """Reference cofactor matrix, entry by entry from signed 2x2 minors."""
    m = np.asarray(m, dtype=float)
    cof = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            minor = np.delete(np.delete(m, i, axis=0), j, axis=1)
            cof[i, j] = (-1) ** (i + j) * (minor[0, 0] * minor[1, 1] - minor[0, 1] * minor[1, 0])
    return cof


def _records_with_zeros(rng) -> list:
    """Random Bloch records, some with zero rows, columns or entries of T
    and zero entries of alpha or beta, plus Bell and the maximally mixed
    state."""
    recs = [states.random_bloch_record(2, rng) for _ in range(300)]
    for k in range(120):
        a, b, t = rng.standard_normal(3), rng.standard_normal(3), rng.standard_normal((3, 3))
        if k % 4 == 0:
            t[k % 3] = 0.0
        elif k % 4 == 1:
            t[:, k % 3] = 0.0
        elif k % 4 == 2:
            t[rng.random((3, 3)) < 0.5] = 0.0
        else:
            t = np.diag(np.diag(t))
        a[rng.random(3) < 0.3] = 0.0
        b[rng.random(3) < 0.3] = 0.0
        recs.append(states.TwoQubitState(a, b, t))
    recs.append(states.bloch_from_density(states.bell_state()))
    recs.append(states.bloch_from_density(states.maximally_mixed(2)))
    return recs


def test_cofactor_matches_minors_bit_for_bit(rng):
    for rec in _records_with_zeros(rng):
        cof = invariants.cofactor3(rec.T)
        assert cof.flags.c_contiguous
        # only the sign of a zero entry may differ: the minors negate x - y
        # at odd positions where the cross product forms y - x.  Adding 0.0
        # maps -0.0 to +0.0 and leaves the bits of every other value alone.
        want = _cofactor_by_minors(rec.T) + 0.0
        assert np.array_equal((cof + 0.0).view(np.int64), want.view(np.int64))
        hodge = np.array(2.0 * float(rec.alpha @ _cofactor_by_minors(rec.T) @ rec.beta))
        got = np.array(invariants.makhlin(rec).I14)
        assert got.view(np.int64) == hodge.view(np.int64)


def _continuous_reference(state) -> dict:
    """The continuous invariants one formula at a time, with np.trace and
    np.cross: a reference that shares no product with the kernel."""
    a, b, T = state.alpha, state.beta, state.T
    Tt = T.T
    TTt = T @ Tt
    TtT = Tt @ T
    cof = np.cross(T[[1, 2, 0]], T[[2, 0, 1]])
    return {
        "I1": float(np.linalg.det(T)),
        "I2": float(np.trace(TtT)),
        "I3": float(np.trace(TtT @ TtT)),
        "I4": float(a @ a),
        "I5": float((Tt @ a) @ (Tt @ a)),
        "I6": float((TTt @ a) @ (TTt @ a)),
        "I7": float(b @ b),
        "I8": float((T @ b) @ (T @ b)),
        "I9": float((TtT @ b) @ (TtT @ b)),
        "I12": float(a @ T @ b),
        "I13": float(a @ T @ Tt @ T @ b),
        "I14": 2.0 * float(a @ cof @ b),
    }


def test_continuous_kernel_matches_the_record_bit_for_bit(rng):
    # records from bloch_from_density hold strided views of the transfer
    # tensor, on which a contiguous copy would move the last bits
    recs = _records_with_zeros(rng) + [
        states.bloch_from_density(states.random_state("mixed" if i % 2 else "pure", 2, 900 + i))
        for i in range(100)
    ]
    assert not recs[-1].T.flags.c_contiguous
    for rec in recs:
        got = invariants.makhlin_continuous(rec)
        full = invariants.makhlin(rec)
        want = _continuous_reference(rec)
        assert tuple(got) == invariants.MakhlinRecord.CONTINUOUS
        for name in got:
            bits = np.array([got[name], getattr(full, name), want[name]]).view(np.int64)
            assert bits[0] == bits[1] == bits[2], name


def test_degrees_name_the_continuous_invariants():
    rec = invariants.MakhlinRecord
    assert rec.CONTINUOUS == tuple(rec.DEGREES)
    assert set(rec.CONTINUOUS) | set(rec.DISCRETE) == set(rec.__dataclass_fields__)
    assert not set(rec.CONTINUOUS) & set(rec.DISCRETE)


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


def test_sign_of_an_undefined_determinant_raises():
    # a NaN determinant (inf - inf on the way) has no sign; -1 would be a
    # silently wrong discrete invariant
    with pytest.raises(OverflowError):
        invariants._sign(float("nan"))
    assert invariants._sign(float("inf")) == 1 and invariants._sign(-float("inf")) == -1
