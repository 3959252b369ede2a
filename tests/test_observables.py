import json

import numpy as np
import pytest

from conftest import observable_to_json
from rmoments import observables as obs
from rmoments.haar_mc import haar_su2
from rmoments.linalg import kron
from rmoments.paulis import PAULIS, PAULIS_NORMALIZED

I, X, Y, Z = PAULIS


def test_schmidt_rank_one():
    dec = obs.schmidt_decompose(kron(Z, Z))
    assert dec.rank == 1
    assert dec.s[0] == pytest.approx(2.0)
    np.testing.assert_allclose(dec.matrix(), kron(Z, Z), atol=1e-12)


def test_schmidt_pauli_sum():
    dec = obs.schmidt_decompose(obs.pauli_sum_observable())
    assert dec.rank == 3
    np.testing.assert_allclose(dec.s, [2.0, 2.0, 2.0], atol=1e-12)
    # factors are normalized Paulis up to the sign gauge
    for a, b in zip(dec.A, dec.B):
        np.testing.assert_allclose(a, b, atol=1e-12)
        assert np.trace(a @ a).real == pytest.approx(1.0, abs=1e-12)


def test_schmidt_hodge_rank_four():
    assert obs.schmidt_decompose(obs.hodge_observable(+1)).rank == 4
    assert obs.schmidt_decompose(obs.hodge_observable(-1)).rank == 4


def test_schmidt_reconstruction_random(rng):
    for _ in range(500):
        m = obs.random_hermitian(rng, 4)
        dec = obs.schmidt_decompose(m)
        np.testing.assert_allclose(dec.matrix(), m, atol=1e-10)
        # orthonormal Hermitian factor lists, descending weights
        for lst in (dec.A, dec.B):
            gram = np.array([[np.trace(a @ b).real for b in lst] for a in lst])
            np.testing.assert_allclose(gram, np.eye(dec.rank), atol=1e-10)
        assert np.all(np.diff(dec.s) <= 1e-12)


def test_schmidt_rejects_non_hermitian(rng):
    with pytest.raises(ValueError):
        obs.schmidt_decompose(rng.standard_normal((4, 4)) + 1j * np.eye(4))


def test_rank_lu_invariant(rng):
    for rank in (1, 2, 3, 4):
        o = obs.random_rank_observable(rng, rank)
        u = kron(haar_su2(rng), haar_su2(rng))
        rotated = obs.schmidt_decompose(u.conj().T @ o.matrix() @ u)
        assert rotated.rank == rank
        np.testing.assert_allclose(np.sort(rotated.s), np.sort(o.s), atol=1e-9)


def test_realign_matches_per_call_kron(rng):
    # one batched product over the cached Pauli pairs gives the per-entry
    # matmul and trace, bit for bit
    for o in [obs.pauli_sum_observable(), obs.hodge_observable()] + [
            obs.random_rank_observable(rng, 1 + k % 4).matrix() for k in range(200)]:
        want = np.empty((4, 4))
        for mu in range(4):
            for nu in range(4):
                want[mu, nu] = np.real(np.trace(
                    o @ kron(PAULIS_NORMALIZED[mu], PAULIS_NORMALIZED[nu])))
        assert np.array_equal(obs.realign(o).view(np.uint64), want.view(np.uint64))


def test_matrix_matches_kron_sum_bit_for_bit(rng):
    # .matrix() is dense_from_terms; compare it with the plain running sum
    # of weighted Kronecker products, starting from a complex zero matrix
    def kron_sum(weights, terms, dim):
        out = np.zeros((dim, dim), dtype=complex)
        for w, term in zip(weights, terms):
            prod = term[0]
            for f in term[1:]:
                prod = np.kron(prod, f)
            out += w * prod
        return out

    for k in range(1000):
        two = obs.random_rank_observable(rng, 1 + k % 4)
        want = kron_sum(two.s, list(zip(two.A, two.B)), 4)
        assert np.array_equal(two.matrix().view(np.int64), want.view(np.int64))
        weights = rng.standard_normal(1 + k % 3)
        terms = [tuple(obs.random_hermitian(rng) for _ in range(3)) for _ in weights]
        three = obs.TripartiteObservable(terms, weights)
        want = kron_sum(weights, terms, 8)
        assert np.array_equal(three.matrix().view(np.int64), want.view(np.int64))
    empty = obs.schmidt_decompose(np.zeros((4, 4)))
    assert empty.rank == 0
    assert np.array_equal(empty.matrix(), np.zeros((4, 4)))
    assert np.array_equal(obs.TripartiteObservable([]).matrix(), np.zeros((8, 8)))
    for parties in (1, 2, 3):
        dim = 2**parties
        assert np.array_equal(obs.dense_from_terms([], [], parties), np.zeros((dim, dim)))


def test_traceless_projection():
    np.testing.assert_allclose(obs.traceless_projection(3.7 * I), np.zeros(3), atol=1e-12)
    np.testing.assert_allclose(obs.traceless_projection(PAULIS_NORMALIZED[1]), [1, 0, 0], atol=1e-12)


def test_traceless_projection_norm_identity(rng):
    # |proj(A)|^2 + tr(A)^2/2 = tr(A^2) for Hermitian A
    for _ in range(50):
        a = obs.random_hermitian(rng)
        p = obs.traceless_projection(a)
        lhs = p @ p + np.trace(a).real ** 2 / 2
        assert lhs == pytest.approx(np.trace(a @ a).real, abs=1e-10)


def test_det_prefactor_pauli_sum():
    dec = obs.schmidt_decompose(obs.pauli_sum_observable())
    assert obs.det_prefactor(dec) == pytest.approx(1.0, abs=1e-12)


def test_det_prefactor_low_rank_zero(rng):
    for rank in (1, 2):
        for _ in range(20):
            dec = obs.random_rank_observable(rng, rank)
            assert obs.det_prefactor(dec) == pytest.approx(0.0, abs=1e-12)


def test_det_prefactor_flips_under_partial_transpose(rng):
    for _ in range(20):
        dec = obs.random_rank_observable(rng, 3)
        flipped = obs.SchmidtObservable(
            s=dec.s, A=dec.A, B=[b.T for b in dec.B]
        )
        assert obs.det_prefactor(flipped) == pytest.approx(
            -obs.det_prefactor(dec), abs=1e-10
        )


def test_random_rank_observable_exact_rank(rng):
    for rank in (1, 2, 3, 4):
        assert obs.random_rank_observable(rng, rank).rank == rank


def test_random_symmetric_observable(rng):
    dec = obs.random_symmetric_observable(rng, 4)
    assert dec.is_symmetric()
    assert dec.rank == 4


def test_rotated_pauli_sum_symmetric(rng):
    dec = obs.rotated_pauli_sum(rng, s=[1.0, 1.5, 0.5])
    assert dec.rank == 3
    np.testing.assert_allclose(np.sort(dec.s), [0.5, 1.0, 1.5], atol=1e-9)


def test_observable_json_roundtrip(rng):
    terms = [[obs.random_hermitian(rng), obs.random_hermitian(rng)] for _ in range(3)]
    weights = [1.0, -0.5, 2.0]
    doc = json.loads(json.dumps(observable_to_json(terms, weights)))
    back_terms, back_weights = obs.observable_from_json(doc)
    np.testing.assert_allclose(back_weights, weights)
    np.testing.assert_allclose(
        obs.dense_from_terms(back_terms, back_weights, 2),
        obs.dense_from_terms(terms, weights, 2),
        atol=1e-12,
    )


def test_observable_json_rejects_non_hermitian():
    doc = {"terms": [{"factors": [
        [[[0, 0], [1, 0]], [[0, 0], [0, 0]]],
        [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
    ]}]}
    with pytest.raises(ValueError):
        obs.observable_from_json(doc)
