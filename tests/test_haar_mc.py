import warnings

import numpy as np
import pytest

from rmoments import twirl
from rmoments.haar_mc import (TILE, _power, haar_rotations, haar_su2_batch,
                              mc_moment)
from rmoments.linalg import kron
from rmoments.observables import random_rank_observable
from rmoments.paulis import PAULIS
from rmoments.rng import substream
from rmoments.states import bell_state, bloch_from_density, random_state

I, X, Y, Z = PAULIS


def test_haar_su2_is_special_unitary(rng):
    for u in haar_su2_batch(rng, 200):
        assert abs(np.linalg.det(u) - 1.0) <= 1e-12
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) <= 1e-12


def test_haar_mean_of_rotated_pauli_vanishes(rng):
    us = haar_su2_batch(rng, 100_000)
    rotated = np.einsum("kba,bc,kcd->kad", us.conj(), Z, us)
    mean = rotated.mean(axis=0)
    # each entry is an average of bounded terms; 4 sigma ~ 4/sqrt(n)
    assert np.max(np.abs(mean)) <= 4.0 / np.sqrt(100_000) * 2


def test_haar_first_nontrivial_moment(rng):
    # E[(tr(U sz U^dag sz)/2)^2] = E[n_z^2] = 1/3 for a uniform Bloch axis
    us = haar_su2_batch(rng, 100_000)
    vals = np.real(np.einsum("kba,bc,kcd,da->k", us.conj(), Z, us, Z)) / 2.0
    mean = np.mean(vals**2)
    stderr = np.std(vals**2, ddof=1) / np.sqrt(len(vals))
    assert abs(mean - 1.0 / 3.0) <= 4 * stderr


def test_mc_identity_observable():
    est = mc_moment(np.eye(4, dtype=complex), bell_state(), 3, 500, seed=1)
    assert est.mean == pytest.approx(1.0, abs=1e-12)
    assert est.stderr <= 1e-12


def test_mc_pauli_sum_bell():
    from rmoments.observables import pauli_sum_observable

    est = mc_moment(pauli_sum_observable(), bell_state(), 3, 100_000, seed=7)
    assert abs(est.mean + 1.0) <= 4 * est.stderr


def test_mc_reproducible():
    ob = kron(Z, Z)
    a = mc_moment(ob, bell_state(), 2, 2000, seed=5)
    b = mc_moment(ob, bell_state(), 2, 2000, seed=5)
    assert a.mean == b.mean and a.stderr == b.stderr
    c = mc_moment(ob, bell_state(), 2, 2000, seed=6)
    assert c.mean != a.mean


def test_mc_pt_invariance_of_product_observable(rng):
    from rmoments.linalg import partial_transpose

    rho = random_state("mixed", 2, 9)
    ob = kron(Z + 0.3 * X, Z - 0.2 * Y)
    a = mc_moment(ob, rho, 3, 60_000, seed=2)
    b = mc_moment(ob, partial_transpose(rho, 2), 3, 60_000, seed=3)
    assert abs(a.mean - b.mean) <= 4 * np.hypot(a.stderr, b.stderr)


def test_mc_converges_to_engine(rng):
    hits = 0
    for i in range(12):
        t = 1 + i % 4
        ob = random_rank_observable(rng, 1 + i % 4)
        rho = random_state("mixed", 2, 300 + i)
        exact = twirl.twirl_coefficients(ob, t).moment(bloch_from_density(rho))
        est = mc_moment(ob.matrix(), rho, t, 50_000, seed=100 + i)
        if abs(exact - est.mean) <= 3 * est.stderr:
            hits += 1
    assert hits >= 11


def test_mc_stderr_scaling():
    from rmoments.observables import pauli_sum_observable

    ns = (1000, 10_000, 100_000)
    errs = [mc_moment(pauli_sum_observable(), bell_state(), 3, n, seed=4).stderr for n in ns]
    slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert abs(slope + 0.5) <= 0.1


def test_mc_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        mc_moment(np.eye(8, dtype=complex), bell_state(), 2, 10, seed=0)


@pytest.mark.parametrize("t, samples", [(0, 10), (-1, 10), (2, 0), (2, -3)])
def test_mc_rejects_orders_and_sample_counts_below_one(t, samples):
    # t = 0 returned 1.0, t = -1 divided by zero, and no samples took the
    # mean of an empty array and reported an overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="must be >= 1"):
            mc_moment(kron(Z, Z), bell_state(), t, samples, seed=0)


def haar_so3_batch(rng, count):
    """The rotations of ``haar_rotations`` for one party, as a (count, 3, 3)
    view."""
    return haar_rotations(rng, 1, count)[0].transpose(2, 0, 1)


def test_so3_batch_is_the_adjoint_of_su2_batch():
    us = haar_su2_batch(np.random.default_rng(31), 2000)
    rots = haar_so3_batch(np.random.default_rng(31), 2000)
    sig = PAULIS[1:]
    ref = np.real(np.einsum("iab,kbc,jcd,kad->kij", sig, us, sig, us.conj())) / 2.0
    assert np.max(np.abs(rots - ref)) <= 1e-14


def _fancy_index_so3_batch(rng, count):
    """Reference: the Bloch rotations built through fancy-indexed
    cross-product matrices, R = 2 v v^T + [2a v]_x - [2a v]_x^T + diag."""
    q = rng.standard_normal((count, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    a, b, c, d = q.T
    v = np.stack([d, c, b], axis=1)
    cross = np.zeros((count, 3, 3))
    cross[:, [0, 1, 2], [1, 2, 0]] = 2.0 * a[:, None] * v[:, [2, 0, 1]]
    rot = 2.0 * v[:, :, None] * v[:, None, :] + cross - cross.transpose(0, 2, 1)
    rot[:, [0, 1, 2], [0, 1, 2]] += (a * a - np.sum(v * v, axis=1))[:, None]
    return rot


@pytest.mark.parametrize("count", (1, 7, 20000))
def test_so3_batch_matches_fancy_index_construction(count):
    for seed in (0, 3, 31, 2024):
        rots = haar_so3_batch(np.random.default_rng(seed), count)
        ref = _fancy_index_so3_batch(np.random.default_rng(seed), count)
        assert rots.tobytes() == ref.tobytes(), seed


@pytest.mark.parametrize("parties", (1, 2, 3))
@pytest.mark.parametrize("count", (1, 7, 500, 4097, 9000, 20000))
def test_rotation_kernel_matches_fancy_index_construction(parties, count):
    # the kernel makes the draws of one reference call per party, party 0
    # first, leaves the generator where those calls leave it, and lays out
    # every entry as a contiguous row over the draws
    for seed in (0, 3, 31, 2024):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        rots = haar_rotations(rng, parties, count)
        ref = np.stack([_fancy_index_so3_batch(ref_rng, count) for _ in range(parties)])
        assert rots.shape == (parties, 3, 3, count) and rots.flags.c_contiguous
        assert np.moveaxis(rots, -1, 1).tobytes() == ref.tobytes(), seed
        assert rng.standard_normal() == ref_rng.standard_normal()
        rng = np.random.default_rng(seed)
        so3 = np.stack([haar_so3_batch(rng, count) for _ in range(parties)])
        assert so3.tobytes() == ref.tobytes(), seed
    # the SU(2) matrices come from the same normalised quaternions
    q = np.random.default_rng(count).standard_normal((count, 4))
    a, b, c, d = (q / np.linalg.norm(q, axis=1, keepdims=True)).T
    want = np.stack([a + 1j * b, c + 1j * d, -c + 1j * d, a - 1j * b], axis=1)
    got = haar_su2_batch(np.random.default_rng(count), count)
    assert got.tobytes() == want.reshape(count, 2, 2).tobytes()


def _local_unitary_batch(rng, parties, count):
    us = [haar_su2_batch(rng, count) for _ in range(parties)]
    full = us[0]
    for nxt in us[1:]:
        full = np.einsum("kab,kcd->kacbd", full, nxt).reshape(
            count, full.shape[1] * 2, full.shape[2] * 2
        )
    return full


def _dense_mc_moment(observable, rho, t, samples, seed):
    """Reference: the same Haar draws, each sample a dense U rho U^dag."""
    parties = int(np.log2(rho.shape[0]))
    rng = substream(seed, "haar_mc.mc_moment", str(t), str(samples))
    values = np.empty(samples)
    done = 0
    while done < samples:
        n = min(20000, samples - done)
        u = _local_unitary_batch(rng, parties, n)
        rotated = np.einsum("kab,bc,kdc->kad", u, rho, u.conj())
        values[done:done + n] = np.real(np.einsum("kad,da->k", rotated, observable)) ** t
        done += n
    return np.mean(values), np.std(values, ddof=1) / np.sqrt(samples)


@pytest.mark.parametrize("qubits", (2, 3))
def test_bloch_mc_matches_dense_loop(qubits):
    gen = np.random.default_rng(70 + qubits)
    dim = 2**qubits
    for seed in (0, 5, 23):
        g = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
        ob = (g + g.conj().T) / 2.0
        rho = random_state("mixed" if seed % 2 else "pure", qubits, 40 + seed)
        for t in range(1, 6):
            samples = 25_000 if t == 3 else 3000
            est = mc_moment(ob, rho, t, samples, seed)
            mean, stderr = _dense_mc_moment(ob, rho, t, samples, seed)
            assert est.mean == pytest.approx(mean, rel=1e-12), (seed, t)
            assert est.stderr == pytest.approx(stderr, rel=1e-12), (seed, t)


@pytest.mark.parametrize("qubits", (2, 3))
def test_mc_crosses_the_block_boundary_with_the_same_draws(qubits):
    # 20,001 samples: one block of 20,000 draws per party, then one of 1
    gen = np.random.default_rng(qubits)
    dim = 2**qubits
    g = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    ob, rho = (g + g.conj().T) / 2.0, random_state("mixed", qubits, 90 + qubits)
    est = mc_moment(ob, rho, 3, 20_001, 17)
    mean, stderr = _dense_mc_moment(ob, rho, 3, 20_001, 17)
    assert est.mean == pytest.approx(mean, rel=1e-12)
    assert est.stderr == pytest.approx(stderr, rel=1e-12)


@pytest.mark.parametrize("qubits", (2, 3))
@pytest.mark.parametrize("samples", (TILE - 1, TILE, TILE + 1, 2 * TILE + 1, 20_001))
def test_mc_tiles_match_the_dense_loop(qubits, samples):
    # tiles of TILE draws inside blocks of 20,000: one short tile, exactly
    # one tile, one draw over, two tiles and one draw, and a short block
    gen = np.random.default_rng(samples + qubits)
    dim = 2**qubits
    g = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    ob, rho = (g + g.conj().T) / 2.0, random_state("mixed", qubits, 95 + qubits)
    est = mc_moment(ob, rho, 5, samples, 29)
    mean, stderr = _dense_mc_moment(ob, rho, 5, samples, 29)
    assert est.mean == pytest.approx(mean, rel=1e-12)
    assert est.stderr == pytest.approx(stderr, rel=1e-12)


@pytest.mark.parametrize("t", (*range(1, 9), 40))
def test_power_matches_pow_on_mixed_signs(t):
    gen = np.random.default_rng(t)
    x = gen.choice((-1.0, 1.0), 10_001) * gen.uniform(0.1, 2.0, 10_001)
    np.testing.assert_allclose(_power(x, t), x ** t, rtol=1e-14, atol=0.0)
    # beyond the largest float both overflow to the same signed infinity
    big = np.array([3.0, -3.0, 1e200, -1e200, 1.5, -1.5, 0.5, 0.0])
    for power in (t, t + 799, t + 800):
        with np.errstate(over="ignore"):
            got, want = _power(big, power), big ** power
        assert np.array_equal(np.isinf(got), np.isinf(want)), power
        assert np.array_equal(np.sign(got), np.sign(want)), power
        np.testing.assert_allclose(got[np.isfinite(want)], want[np.isfinite(want)],
                                   rtol=1e-13, atol=0.0)


def test_mc_rejects_non_hermitian_input():
    # the Pauli coefficients of a non-Hermitian observable are complex, and
    # their real part alone would sample a different observable
    bad = kron(np.array([[1, 5], [0, -1]], dtype=complex), Z)
    with pytest.raises(ValueError, match="Hermitian"):
        mc_moment(bad, bell_state(), 2, 10, seed=0)
    rho = bell_state()
    rho[0, 3] += 0.3j
    with pytest.raises(ValueError, match="Hermitian"):
        mc_moment(kron(Z, Z), rho, 2, 10, seed=0)
    # rounding-level asymmetry passes the Hermitian test
    near = np.eye(4) + 1e-12 * kron(np.array([[0, 1], [0, 0]]), I)
    assert mc_moment(near, bell_state(), 2, 10, seed=0).mean == pytest.approx(1.0)


def test_mc_moment_raises_on_overflow():
    # 3 Z x Z on a Bell state: |sample| reaches 3, and 3^800 overflows a
    # float; at t = 640 every power is finite but their spread overflows
    o = 3.0 * kron(Z, Z)
    for t in (640, 800):
        with pytest.raises(OverflowError):
            mc_moment(o, bell_state(), t, 2000, 0)
    assert np.isfinite(mc_moment(o, bell_state(), 40, 2000, 0).mean)
