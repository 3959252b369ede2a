import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmoments import states
from rmoments.haar_mc import haar_su2
from rmoments.linalg import DimensionError, eigvalsh, kron, partial_transpose
from rmoments.paulis import PAULIS


def test_maximally_mixed_bloch():
    rec = states.bloch_from_density(states.maximally_mixed(2))
    assert np.max(np.abs(rec.alpha)) == 0
    assert np.max(np.abs(rec.beta)) == 0
    assert np.max(np.abs(rec.T)) == 0


def test_bell_bloch_direct_trace_oracle():
    rho = states.bell_state()
    rec = states.bloch_from_density(rho)
    # oracle: direct trace computation entry by entry
    for j in range(3):
        assert rec.alpha[j] == pytest.approx(
            np.trace(rho @ kron(PAULIS[j + 1], PAULIS[0])).real, abs=1e-12
        )
        for k in range(3):
            assert rec.T[j, k] == pytest.approx(
                np.trace(rho @ kron(PAULIS[j + 1], PAULIS[k + 1])).real, abs=1e-12
            )
    np.testing.assert_allclose(rec.alpha, 0, atol=1e-12)
    np.testing.assert_allclose(rec.T, np.diag([1, -1, 1]), atol=1e-12)


def test_ghz_bloch():
    rec = states.bloch_from_density(states.ghz_state())
    for m in (rec.TAB, rec.TBC, rec.TCA):
        np.testing.assert_allclose(m, np.diag([0, 0, 1]), atol=1e-12)
    expected_w = np.zeros((3, 3, 3))
    expected_w[0, 0, 0] = 1
    expected_w[0, 1, 1] = expected_w[1, 0, 1] = expected_w[1, 1, 0] = -1
    np.testing.assert_allclose(rec.W, expected_w, atol=1e-12)


def test_three_qubit_tca_convention(rng):
    rho = states.random_state("mixed", 3, 7)
    rec = states.bloch_from_density(rho)
    for j in range(3):
        for k in range(3):
            op = kron(kron(PAULIS[k + 1], PAULIS[0]), PAULIS[j + 1])
            assert rec.TCA[j, k] == pytest.approx(np.trace(rho @ op).real, abs=1e-12)


def test_density_from_zero_bloch():
    rec = states.TwoQubitState(np.zeros(3), np.zeros(3), np.zeros((3, 3)))
    np.testing.assert_allclose(states.density_from_bloch(rec), np.eye(4) / 4)


def test_bell_reconstruction():
    rec = states.TwoQubitState(np.zeros(3), np.zeros(3), np.diag([1.0, -1.0, 1.0]))
    np.testing.assert_allclose(
        states.density_from_bloch(rec), states.bell_state(), atol=1e-12
    )


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_bloch_roundtrip(seed):
    rng = np.random.default_rng(seed)
    qubits = 2 if seed % 2 else 3
    rec = states.random_bloch_record(qubits, rng)
    back = states.bloch_from_density(states.density_from_bloch(rec))
    for name in ("alpha", "beta", "T") if qubits == 2 else (
            "alpha", "beta", "gamma", "TAB", "TBC", "TCA", "W"):
        np.testing.assert_allclose(
            getattr(back, name), getattr(rec, name), atol=1e-12
        )


@pytest.mark.parametrize("kind,qubits", [("pure", 2), ("mixed", 2), ("pure", 3), ("mixed", 3)])
def test_random_state_contracts(kind, qubits):
    rho = states.random_state(kind, qubits, seed=42)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.min(eigvalsh(rho)) >= -1e-12
    if kind == "pure":
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-10)
    again = states.random_state(kind, qubits, seed=42)
    assert np.array_equal(rho, again)
    other = states.random_state(kind, qubits, seed=43)
    assert not np.array_equal(rho, other)


def test_partial_transpose_bloch_det_flip(bell_record):
    flipped = states.partial_transpose_bloch(bell_record, 2)
    np.testing.assert_allclose(flipped.T, np.eye(3), atol=1e-12)
    assert np.linalg.det(bell_record.T) == pytest.approx(-1.0)
    assert np.linalg.det(flipped.T) == pytest.approx(1.0)


def test_partial_transpose_bloch_involution(rng):
    rec = states.random_bloch_record(2, rng)
    for party in (1, 2):
        twice = states.partial_transpose_bloch(
            states.partial_transpose_bloch(rec, party), party
        )
        np.testing.assert_allclose(twice.T, rec.T)
        np.testing.assert_allclose(twice.alpha, rec.alpha)
        np.testing.assert_allclose(twice.beta, rec.beta)


def test_partial_transpose_bloch_matches_matrix_level():
    for i in range(100):
        rho = states.random_state("mixed", 2, 500 + i)
        rec = states.bloch_from_density(rho)
        for party in (1, 2):
            via_bloch = states.density_from_bloch(
                states.partial_transpose_bloch(rec, party)
            )
            np.testing.assert_allclose(
                via_bloch, partial_transpose(rho, party), atol=1e-12
            )


def test_partial_transpose_product_state_positive(rng):
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho_a = a @ a.conj().T
    rho_a /= np.trace(rho_a)
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho_b = b @ b.conj().T
    rho_b /= np.trace(rho_b)
    rec = states.bloch_from_density(kron(rho_a, rho_b))
    pt = states.density_from_bloch(states.partial_transpose_bloch(rec, 2))
    assert np.min(eigvalsh(pt)) >= -1e-12


def test_negativity_values(bell_record):
    assert states.negativity(states.maximally_mixed(2)) == pytest.approx(0.0, abs=1e-12)
    assert states.negativity(states.bell_state()) == pytest.approx(0.5, abs=1e-12)
    rho_a = np.diag([0.7, 0.3]).astype(complex)
    rho_b = np.diag([0.2, 0.8]).astype(complex)
    assert states.negativity(kron(rho_a, rho_b)) == pytest.approx(0.0, abs=1e-12)


def test_negativity_lu_invariant(rng):
    for i in range(10):
        rho = states.random_state("mixed", 2, 900 + i)
        u = kron(haar_su2(rng), haar_su2(rng))
        rotated = u @ rho @ u.conj().T
        assert states.negativity(rotated) == pytest.approx(
            states.negativity(rho), abs=1e-10
        )


def test_json_roundtrip_bloch(rng):
    rec = states.random_bloch_record(2, rng)
    doc = json.loads(json.dumps(states.state_to_json(rec)))
    back = states.state_from_json(doc)
    np.testing.assert_allclose(back.T, rec.T)
    rec3 = states.random_bloch_record(3, rng)
    back3 = states.state_from_json(json.loads(json.dumps(states.state_to_json(rec3))))
    np.testing.assert_allclose(back3.W, rec3.W)


def test_json_matrix_format():
    rho = states.random_state("mixed", 2, 3)
    doc = states.state_to_json(rho)
    assert doc["qubits"] == 2
    back = states.state_from_json(doc)
    np.testing.assert_allclose(
        states.density_from_bloch(back), rho, atol=1e-12
    )


def is_physical(rho, tol=1e-10):
    """Positive semidefinite up to -tol and unit trace up to 1e-12."""
    rho = np.asarray(rho)
    if abs(np.trace(rho) - 1.0) > 1e-12:
        return False
    return float(np.min(eigvalsh(rho))) >= -tol


def test_is_physical():
    assert is_physical(states.bell_state())
    bad = states.density_from_bloch(
        states.TwoQubitState(np.zeros(3), np.zeros(3), np.diag([1.0, 1.0, 1.0]))
    )
    assert not is_physical(bad)


# ---------------------------------------------------------------------------
# the layout tables against hand-written conversions, one branch per party
# count, bit for bit
# ---------------------------------------------------------------------------

def _ref_bloch_from_density(rho):
    r = states.pauli_transfer(rho)
    if r.ndim == 2:
        return states.TwoQubitState(alpha=r[1:, 0], beta=r[0, 1:], T=r[1:, 1:])
    return states.ThreeQubitState(
        alpha=r[1:, 0, 0], beta=r[0, 1:, 0], gamma=r[0, 0, 1:],
        TAB=r[1:, 1:, 0], TBC=r[0, 1:, 1:], TCA=r[1:, 0, 1:].T, W=r[1:, 1:, 1:],
    )


def _ref_transfer_from_bloch(state):
    if isinstance(state, states.TwoQubitState):
        r = np.zeros((4, 4))
        r[0, 0] = 1.0
        r[1:, 0] = state.alpha
        r[0, 1:] = state.beta
        r[1:, 1:] = state.T
        return r
    r = np.zeros((4, 4, 4))
    r[0, 0, 0] = 1.0
    r[1:, 0, 0] = state.alpha
    r[0, 1:, 0] = state.beta
    r[0, 0, 1:] = state.gamma
    r[1:, 1:, 0] = state.TAB
    r[0, 1:, 1:] = state.TBC
    r[1:, 0, 1:] = state.TCA.T
    r[1:, 1:, 1:] = state.W
    return r


def _ref_random_bloch_record(qubits, rng):
    u = lambda *shape: rng.uniform(-1.0, 1.0, shape)
    if qubits == 2:
        return states.TwoQubitState(alpha=u(3), beta=u(3), T=u(3, 3))
    return states.ThreeQubitState(
        alpha=u(3), beta=u(3), gamma=u(3),
        TAB=u(3, 3), TBC=u(3, 3), TCA=u(3, 3), W=u(3, 3, 3),
    )


def _ref_state_to_json(state):
    if isinstance(state, states.TwoQubitState):
        return {"qubits": 2, "alpha": state.alpha.tolist(), "beta": state.beta.tolist(),
                "T": state.T.tolist()}
    return {
        "qubits": 3, "alpha": state.alpha.tolist(), "beta": state.beta.tolist(),
        "gamma": state.gamma.tolist(), "TAB": state.TAB.tolist(), "TBC": state.TBC.tolist(),
        "TCA": state.TCA.tolist(), "W": state.W.tolist(),
    }


_BLOCKS = {2: ("alpha", "beta", "T"), 3: ("alpha", "beta", "gamma", "TAB", "TBC", "TCA", "W")}


def _assert_same_bits(a, b):
    assert type(a) is type(b)
    for name in _BLOCKS[a.parties]:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), name


@pytest.mark.parametrize("qubits", (2, 3))
def test_layout_covers_the_transfer_tensor_once(qubits):
    cls = states.RECORDS[qubits]
    assert cls.parties == qubits
    assert tuple(name for name, *_ in cls.LAYOUT) == _BLOCKS[qubits]
    hits = np.zeros((4,) * qubits, dtype=int)
    for _, index, shape, _ in cls.LAYOUT:
        hits[index] += 1
        assert hits[index].shape == shape
    corner = (0,) * qubits
    assert hits[corner] == 0
    hits[corner] = 1
    assert np.all(hits == 1)
    assert [name for name, *_, transposed in cls.LAYOUT if transposed] == (
        [] if qubits == 2 else ["TCA"])


@pytest.mark.parametrize("qubits", (2, 3))
def test_conversions_match_the_hand_written_references(qubits):
    rng, ref_rng = np.random.default_rng(77), np.random.default_rng(77)
    for i in range(20):
        # the same generator state gives the same draws
        rec = states.random_bloch_record(qubits, rng)
        _assert_same_bits(rec, _ref_random_bloch_record(qubits, ref_rng))
        transfer = states.transfer_from_bloch(rec)
        assert transfer.tobytes() == _ref_transfer_from_bloch(rec).tobytes()
        doc = states.state_to_json(rec)
        assert json.dumps(doc) == json.dumps(_ref_state_to_json(rec))
        _assert_same_bits(states.state_from_json(json.loads(json.dumps(doc))), rec)
        twin = rec.copy()
        _assert_same_bits(twin, rec)
        assert all(not np.shares_memory(getattr(twin, n), getattr(rec, n))
                   for n in _BLOCKS[qubits])
        for rho in (states.random_state("pure" if i % 2 else "mixed", qubits, 300 + i),
                    states.density_from_bloch(rec)):
            _assert_same_bits(states.bloch_from_density(rho), _ref_bloch_from_density(rho))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_records_reject_other_party_counts(rng):
    with pytest.raises(DimensionError):
        states.random_bloch_record(4, rng)
    with pytest.raises(ValueError, match="unsupported qubit count 4"):
        states.state_from_json({"qubits": 4})
