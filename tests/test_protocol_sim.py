from itertools import product

import numpy as np
import pytest

from rmoments import protocol_sim as ps
from rmoments import twirl
from rmoments.haar_mc import haar_su2_batch
from rmoments.invariants import kempe, makhlin
from rmoments.linalg import kron_all
from rmoments.observables import TripartiteObservable
from rmoments.paulis import PAULIS
from rmoments.rng import substream
from rmoments.states import (
    bell_state,
    bloch_from_density,
    density_from_bloch,
    ghz_state,
    maximally_mixed,
    random_state,
)

I, X, Y, Z = PAULIS
ODET_TERMS = [[X, X], [Y, Y], [Z, Z]]


def test_identity_observable_is_deterministic():
    cfg = ps.ProtocolConfig(40, 10, 3, seed=1)
    est = ps.simulate_moment([[I, I]], bell_state(), cfg)
    assert est.mean == pytest.approx(1.0, abs=1e-12)
    assert est.stderr == pytest.approx(0.0, abs=1e-12)


def test_simulate_pauli_sum_on_bell():
    cfg = ps.ProtocolConfig(800, 200, 3, seed=11)
    est = ps.simulate_moment(ODET_TERMS, bell_state(), cfg)
    assert abs(est.mean + 1.0) <= 4 * est.stderr


def test_simulate_reproducible():
    cfg = ps.ProtocolConfig(100, 50, 2, seed=3)
    a = ps.simulate_moment([[3 * Z, Z]], bell_state(), cfg)
    b = ps.simulate_moment([[3 * Z, Z]], bell_state(), cfg)
    assert a.mean == b.mean


def test_simulate_trace_shape():
    cfg = ps.ProtocolConfig(30, 20, 3, seed=5)
    est, trace = ps.simulate_moment(ODET_TERMS, bell_state(), cfg, collect_trace=True)
    assert trace.shape == (30, 3)
    assert est.mean == pytest.approx(np.mean(trace.sum(axis=1) ** 3))


def test_simulate_rejects_bad_config():
    with pytest.raises(ValueError):
        ps.ProtocolConfig(0, 10, 2)


@pytest.mark.parametrize("drift_rate, cost", [
    (1e-3, -5), (np.nan, 10), (np.inf, 0), (-np.inf, 0), (np.nan, 0),
])
def test_protocol_config_rejects_silent_garbage_drift(drift_rate, cost):
    # a NaN or infinite rate makes every copy's probabilities NaN, and a
    # negative cost runs the drift clock backwards across setting changes
    with pytest.raises(ValueError):
        ps.ProtocolConfig(10, 10, 3, drift_rate=drift_rate, setting_change_cost=cost)
    # a finite rate of either sign drifts; no cost is a valid plan
    ps.ProtocolConfig(10, 10, 3, drift_rate=-1e-3, setting_change_cost=0)


def test_calibrations_are_exact():
    # every pipeline dictionary spans its moment: calibrate() raises otherwise
    for name in ps.TABLE_ROWS:
        coeffs = ps.calibrate(name)
        assert len(coeffs) == len(ps.PIPELINES[name].dictionary)


def test_exact_recovery_matches_invariants():
    st = bloch_from_density(random_state("mixed", 2, 2718))
    reports = ps.recover_all(st)
    rec = makhlin(st)
    for name, rep in reports.items():
        assert rep.estimate == pytest.approx(rep.reference, abs=1e-8), name
        assert rep.stderr == 0.0
    assert reports["det"].reference == pytest.approx(rec.I1)
    assert reports["hodge"].reference == pytest.approx(rec.I14)


def test_exact_recovery_settings_counts():
    st = bloch_from_density(random_state("pure", 2, 31415))
    reports = ps.recover_all(st)
    for name, rep in reports.items():
        assert rep.settings_used == ps.EXPECTED_SETTINGS[name], name


def test_statistical_recovery_single_setting():
    st = bloch_from_density(random_state("mixed", 2, 99))
    # M sized so the power bias (O(9/M)) sits far below 4 sigma
    cfg = ps.ProtocolConfig(600, 4000, 2, seed=21)
    rep = ps.recover_invariant("I2", st, cfg)
    assert rep.stderr > 0
    assert abs(rep.estimate - rep.reference) <= 4 * rep.stderr


def test_statistical_recovery_det_on_bell():
    cfg = ps.ProtocolConfig(1500, 300, 3, seed=22)
    rep = ps.recover_invariant("det", bloch_from_density(bell_state()), cfg)
    assert rep.settings_used == 3
    assert abs(rep.estimate + 1.0) <= 4 * rep.stderr


def test_recover_unknown_invariant():
    with pytest.raises(KeyError):
        ps.recover_invariant("I99", bloch_from_density(bell_state()))


def test_kempe_rejects_a_two_qubit_density_matrix(bell_record):
    for state in (bell_state(), bell_record):
        with pytest.raises(ValueError, match="expected 3-party state, got 2-party"):
            ps.recover_kempe(state)


def test_kempe_exact_on_ghz(ghz_record):
    rep = ps.recover_kempe(ghz_record)
    assert rep.estimate == pytest.approx(0.25, abs=1e-8)
    assert rep.details["w_norm_sq"] == pytest.approx(4.0, abs=1e-8)
    assert rep.details["trTTT"] == pytest.approx(1.0, abs=1e-8)
    assert rep.settings_used == 2


def test_kempe_exact_on_random_states():
    for i in range(10):
        st = bloch_from_density(random_state("mixed", 3, 4000 + i))
        rep = ps.recover_kempe(st)
        ref = kempe(st)
        assert rep.estimate == pytest.approx(ref.kempe, abs=1e-8)
        assert rep.details["w_norm_sq"] == pytest.approx(ref.w_norm_sq, abs=1e-8)
        assert rep.details["trTTT"] == pytest.approx(ref.trTTT, abs=1e-8)


@pytest.mark.parametrize("pair", ("AB", "BC", "AC"))
def test_padded_moment_is_marginal_moment(pair):
    # twirling the identity on the third party leaves the identity, so the
    # exact pair path may run the two-party tables on the marginal
    states = [bloch_from_density(random_state("mixed", 3, 5100 + i)) for i in range(4)]
    for name in ("I2", "I4", "I7", "I12"):
        pipe = ps.PIPELINES[name]
        padded = twirl.twirl_coefficients(
            TripartiteObservable(list(ps._pad_terms(pipe.terms, pair))), pipe.t
        )
        two_party = ps._pipeline_engines(name)[0]
        for st in states:
            assert padded.moment(st) == pytest.approx(
                two_party.moment(ps.marginal_bloch(st, pair)), abs=1e-12
            ), name


def test_kempe_linear_system_is_cached_read_only():
    calib, theta, theta_inv = ps._kempe_calibration()
    assert theta.shape == (len(calib), len(ps.KEMPE_TARGETS))
    assert not theta.flags.writeable and not theta_inv.flags.writeable
    np.testing.assert_array_equal(theta_inv, np.linalg.pinv(theta))


def test_kempe_exact_on_maximally_mixed():
    rep = ps.recover_kempe(bloch_from_density(maximally_mixed(3)))
    assert rep.estimate == pytest.approx(1.0 / 8.0, abs=1e-10)


def test_kempe_statistical_on_ghz(ghz_record):
    cfg = ps.ProtocolConfig(700, 600, 3, seed=17)
    rep = ps.recover_kempe(ghz_record, cfg)
    assert rep.stderr > 0
    assert abs(rep.estimate - 0.25) <= 4 * rep.stderr


def test_drift_bias_contrast():
    kw = dict(drift_rate=1e-3, setting_change_cost=600)
    single = ps.simulate_moment(
        [[3 * Z, Z]], bell_state(),
        ps.ProtocolConfig(800, 100, 2, seed=31, **kw), "drift-s",
    )
    multi = ps.simulate_moment(
        ODET_TERMS, bell_state(),
        ps.ProtocolConfig(800, 100, 3, seed=31, **kw), "drift-m",
    )
    assert abs(single.mean - 3.0) <= 4 * single.stderr
    assert abs(multi.mean + 1.0) > 4 * multi.stderr


def test_stderr_scaling_in_unitary_count():
    errs = []
    ks = (400, 1600, 6400)
    for k in ks:
        cfg = ps.ProtocolConfig(k, 100, 3, seed=12)
        errs.append(ps.simulate_moment(ODET_TERMS, bell_state(), cfg).stderr)
    slope = np.polyfit(np.log(ks), np.log(errs), 1)[0]
    assert abs(slope + 0.5) <= 0.1


def test_statistical_hodge_recovery():
    st = bloch_from_density(random_state("pure", 2, 404))
    cfg = ps.ProtocolConfig(1200, 500, 4, seed=1)
    rep = ps.recover_invariant("hodge", st, cfg)
    assert rep.settings_used == 4
    assert abs(rep.estimate - rep.reference) <= 4 * rep.stderr


def test_simulate_rejects_non_product_terms():
    cfg = ps.ProtocolConfig(5, 5, 2, seed=1)
    with pytest.raises(ValueError):
        ps.simulate_moment([[np.eye(4)]], bell_state(), cfg)
    with pytest.raises(ValueError):
        ps.simulate_moment([[I, I, I]], bell_state(), cfg)
    with pytest.raises(ValueError):
        ps.simulate_moment([[I, I, I]], bloch_from_density(bell_state()), cfg)
    with pytest.raises(ValueError):
        ps.simulate_moment([[I, I]], bloch_from_density(ghz_state()), cfg)


def _sample_rows(probs, draws):
    """Reference: inverse-CDF outcome index per row of ``probs``, the last
    CDF entry pinned to 1."""
    cdf = np.cumsum(probs, axis=1)
    cdf[:, -1] = 1.0
    return (draws[:, None] > cdf).sum(axis=1)


def test_sampled_outcome_in_range_when_cdf_ends_below_one():
    # normalized rows whose cumulative sum rounds to below the largest
    # uniform draw, 1 - 2^-53; the sampler takes one plane per outcome
    probs = np.random.default_rng(7).random((4000, 4))
    probs /= probs.sum(axis=1, keepdims=True)
    cdf = np.cumsum(probs, axis=1)
    top = np.nextafter(1.0, 0.0)
    short = cdf[:, -1] < top
    assert short.any()
    outcomes = ps._sample_outcomes(probs[short].T, np.full(int(short.sum()), top))
    np.testing.assert_array_equal(outcomes, 3)
    # draws inside every row's rounded range sample exactly as before
    draws = np.random.default_rng(8).uniform(size=len(probs)) * cdf[:, -1]
    np.testing.assert_array_equal(
        ps._sample_outcomes(probs.T, draws), (draws[:, None] > cdf).sum(axis=1)
    )
    np.testing.assert_array_equal(ps._sample_outcomes(probs.T, draws), _sample_rows(probs, draws))


@pytest.mark.parametrize("outcomes", (2, 4, 8))
def test_plane_normalisation_is_the_row_sum_bit_for_bit(outcomes):
    # clipped rows as the drifted sampler sees them, with all-zero rows
    # (0/0 gives NaN on both sides) and rows with a single nonzero entry
    rng = np.random.default_rng(outcomes)
    probs = np.clip(rng.normal(0.2, 0.4, size=(100_000, outcomes)), 0.0, None)
    probs[::97] = 0.0
    probs[1::89, 1:] = 0.0
    with np.errstate(invalid="ignore"):
        expected = probs / probs.sum(axis=1, keepdims=True)
        planes = ps._normalised(probs.copy().T)
    assert np.isnan(expected).any()
    np.testing.assert_array_equal(planes.T.view(np.int64), expected.view(np.int64))


def _dense_undrifted_trace(terms, rho, cfg, label):
    """Reference: the same frames and draws, with complex eigenprojectors
    rotated by each frame's SU(2) matrices, a dense Born-rule einsum and
    one multinomial draw per frame."""
    if not isinstance(rho, np.ndarray):
        rho = density_from_bloch(rho)
    n = len(terms[0])
    rng = substream(cfg.seed, "protocol.simulate", label)
    frames = np.stack([haar_su2_batch(rng, cfg.unitary_count) for _ in range(n)], axis=1)
    ops = rho[None].reshape((1,) + (2,) * (2 * n))
    trace = np.empty((cfg.unitary_count, len(terms)))
    for j, term in enumerate(terms):
        eig = [np.linalg.eigh(np.asarray(f, dtype=complex)) for f in term]
        lam_prod = kron_all([np.diag(v) for v, _ in eig]).diagonal().real
        projs = [np.einsum("ao,bo->oab", vecs, vecs.conj()) for _, vecs in eig]
        rot = [np.einsum("kba,obc,kcd->koad", frames[:, p].conj(), projs[p], frames[:, p])
               for p in range(n)]
        if n == 2:
            table = np.einsum("xaji,xblk,eikjl->xabe", *rot, ops)
        else:
            table = np.einsum("xaji,xblk,xcnm,eikmjln->xabce", *rot, ops)
        probs = np.clip(np.real(table).reshape(cfg.unitary_count, -1), 0.0, None)
        probs /= probs.sum(axis=1, keepdims=True)
        m = cfg.shots_per_setting
        trace[:, j] = rng.multinomial(m, probs) @ lam_prod / m
    return trace


@pytest.mark.parametrize("bloch", (False, True))
@pytest.mark.parametrize("terms, rho", [
    (ODET_TERMS, random_state("mixed", 2, 51)),
    ([[3 * Z, Z]], random_state("pure", 2, 52)),
    ([[I, X], [X, I], [Y, Z], [Z, Y]], random_state("mixed", 2, 53)),
    ([[X, Z, Y], [I + Z, X, Z], [Z, Z, Z]], random_state("mixed", 3, 54)),
    ([[Z, I, I + Z]], random_state("pure", 3, 55)),
])
def test_undrifted_trace_matches_dense_born_rule(terms, rho, bloch):
    cfg = ps.ProtocolConfig(300, 200, 3, seed=9)
    state = bloch_from_density(rho) if bloch else rho
    _, trace = ps.simulate_moment(terms, state, cfg, "shot-ref", collect_trace=True)
    np.testing.assert_array_equal(trace, _dense_undrifted_trace(terms, state, cfg, "shot-ref"))


def _drift_unitaries(n_parties, thetas):
    """exp(-i theta/2 sigma_(1 + p % 3)) per party, stacked over thetas."""
    out = np.empty((len(thetas), n_parties, 2, 2), dtype=complex)
    c, s = np.cos(thetas / 2.0), np.sin(thetas / 2.0)
    for p in range(n_parties):
        out[:, p] = c[:, None, None] * I - 1j * s[:, None, None] * PAULIS[1 + p % 3]
    return out


def _dense_drifted_trace(terms, rho, cfg, label):
    """Reference: the same frames and draws, each copy's outcome
    probabilities from a dense D rho D^dag, one frame at a time."""
    n = len(terms[0])
    rng = substream(cfg.seed, "protocol.simulate", label)
    frames = np.stack([haar_su2_batch(rng, cfg.unitary_count) for _ in range(n)], axis=1)
    m, cost = cfg.shots_per_setting, cfg.setting_change_cost
    trace = np.empty((cfg.unitary_count, len(terms)))
    for j, term in enumerate(terms):
        eig = [np.linalg.eigh(np.asarray(f, dtype=complex)) for f in term]
        lam_prod = kron_all([np.diag(v) for v, _ in eig]).diagonal().real
        rot = [np.einsum("kba,bo,co,kcd->koad", frames[:, p].conj(), vecs, vecs.conj(),
                         frames[:, p]) for p, (_, vecs) in enumerate(eig)]
        for k in range(cfg.unitary_count):
            ticks = (k * len(terms) + j) * (m + cost) + cost + np.arange(m)
            d = _drift_unitaries(n, cfg.drift_rate * ticks)
            full = np.array([kron_all(list(dk)) for dk in d])
            rho_s = np.einsum("sab,bc,sdc->sad", full, rho, full.conj())
            proj = np.array([kron_all(list(f)) for f in product(*(r[k] for r in rot))])
            probs = np.clip(np.real(np.einsum("oji,sij->so", proj, rho_s)), 0.0, None)
            probs /= probs.sum(axis=1, keepdims=True)
            trace[k, j] = lam_prod[_sample_rows(probs, rng.uniform(size=m))].mean()
    return trace


@pytest.mark.parametrize("terms, rho", [
    (ODET_TERMS, random_state("mixed", 2, 61)),
    ([[3 * Z, Z]], random_state("pure", 2, 62)),
    ([[I + Z, Z]], random_state("mixed", 2, 63)),
    ([[X, Z, Y], [I + Z, X, Z], [Z, Z, Z]], random_state("mixed", 3, 64)),
])
def test_drifted_trace_matches_dense_per_copy_loop(terms, rho):
    cfg = ps.ProtocolConfig(24, 15, 3, drift_rate=0.02, setting_change_cost=40, seed=8)
    _, trace = ps.simulate_moment(terms, rho, cfg, "drift-ref", collect_trace=True)
    np.testing.assert_array_equal(trace, _dense_drifted_trace(terms, rho, cfg, "drift-ref"))


@pytest.mark.parametrize("qubits", (2, 3))
def test_drift_expansion_matches_dense_born_rule(qubits):
    rho = random_state("mixed", qubits, 70 + qubits)
    ops = ps._drift_expansion(rho, qubits)
    thetas = np.random.default_rng(qubits).uniform(-7.0, 7.0, 50)
    d = [kron_all(list(dk)) for dk in _drift_unitaries(qubits, thetas)]
    us = [haar_su2_batch(np.random.default_rng(qubits), len(thetas)) for _ in range(qubits)]
    orders = np.arange(2 * qubits + 1)
    for i, theta in enumerate(thetas):
        c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
        drifted = np.tensordot(c ** orders[::-1] * s ** orders, ops, axes=1)
        u = kron_all([ui[i] for ui in us])
        born = np.real(np.diag(u @ d[i] @ rho @ d[i].conj().T @ u.conj().T))
        assert np.max(np.abs(np.real(np.diag(u @ drifted @ u.conj().T)) - born)) <= 1e-13


def _vander_drifted_setting(rng, table, lam_prod, cfg, setting, n_set, seen=None):
    """Reference: the row-major drifted sampler, with each copy's powers
    from np.vander, row sums over its outcomes and blocks of 2^15 copies.
    Each block's normalised probabilities, (frames, shots, outcomes), are
    appended to ``seen``."""
    k_count, m = cfg.unitary_count, cfg.shots_per_setting
    columns = table.shape[2]
    block = m + cfg.setting_change_cost
    shot_idx = np.arange(m)
    step = max(1, (1 << 15) // m)
    out = np.empty(k_count)
    for k0 in range(0, k_count, step):
        ks = np.arange(k0, min(k0 + step, k_count))
        counters = ((ks[:, None] * n_set + setting) * block
                    + cfg.setting_change_cost + shot_idx)
        half = (cfg.drift_rate * counters).ravel() / 2.0
        weights = np.vander(np.cos(half), columns) * np.vander(np.sin(half), columns,
                                                               increasing=True)
        probs = np.clip(weights.reshape(len(ks), m, columns) @ table[ks].transpose(0, 2, 1),
                        0.0, None)
        probs /= probs.sum(axis=2, keepdims=True)
        if seen is not None:
            seen.append(probs.copy())
        draws = rng.uniform(size=len(ks) * m)
        picked = _sample_rows(probs.reshape(len(ks) * m, -1), draws)
        out[ks] = lam_prod[picked].reshape(len(ks), m).mean(axis=1)
    return out


@pytest.mark.parametrize("terms, rho", [
    (ODET_TERMS, random_state("mixed", 2, 81)),
    ([[I + Z, Z], [X, Y]], random_state("pure", 2, 82)),
    ([[X, Z, Y], [I + Z, X, Z], [Z, Z, Z]], random_state("mixed", 3, 83)),
    ([[Z, I, I + Z]], random_state("pure", 3, 84)),
])
@pytest.mark.parametrize("frames, shots, cost", [
    (200, 100, 0),       # 200 frames: no multiple of either block step
    (90, 700, 600),
    (3, 9000, 7),        # one frame per block at 2^13 copies, three at 2^15
    (2, 33_000, 40),     # more shots than 2^15: one frame per block
])
def test_drifted_trace_matches_vander_sampler(monkeypatch, terms, rho, frames, shots, cost):
    # the traces agree exactly, and so do the normalised probabilities of
    # every copy, which a rounding-level change would rarely show in a trace
    cfg = ps.ProtocolConfig(frames, shots, 3, drift_rate=-7e-4, setting_change_cost=cost,
                            seed=frames + shots)
    planes, sample = [], ps._sample_outcomes

    def spy(p, draws):
        planes.append(np.moveaxis(p, 0, -1).copy())
        return sample(p, draws)

    monkeypatch.setattr(ps, "_sample_outcomes", spy)
    _, trace = ps.simulate_moment(terms, rho, cfg, "vander-ref", collect_trace=True)
    rows = []
    monkeypatch.setattr(ps, "_drifted_setting",
                        lambda *args: _vander_drifted_setting(*args, seen=rows))
    _, expected = ps.simulate_moment(terms, rho, cfg, "vander-ref", collect_trace=True)
    np.testing.assert_array_equal(trace.view(np.int64), expected.view(np.int64))
    np.testing.assert_array_equal(np.concatenate(planes).view(np.int64),
                                  np.concatenate(rows).view(np.int64))
