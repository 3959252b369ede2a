"""The four benchmark workloads: seeded inputs, operations, references and
output checks.

The package receives only the generated observables and states (plus the
sampler seeds and sampling plans its API asks for).  Every reference is
computed here, outside the timed phase, by a path independent of the call
being checked: Bloch data and invariants from the density matrix with this
file's own formulas, the det(T) prefactor from the realigned observable,
Monte Carlo against the exact engine and the exact engine against Monte
Carlo.  Checks never retry or re-seed.
"""

import math
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from rmoments import haar_mc, symgroup, twirl
from rmoments import protocol_sim as ps
from rmoments.observables import SchmidtObservable

PAULI = np.array([
    [[1, 0], [0, 1]],
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)
_X, _Y, _Z = PAULI[1], PAULI[2], PAULI[3]

# Output-check bounds.  Exact paths agree to ~1e-12 at this commit.
EXACT_TOL = 1e-8
EMPTY_SECTOR_TOL = 1e-9
PULL_BOUND = 5.0
MC_CHECK_SAMPLES = 20_000

# Sampling plans of the shots workload.
SHOT_FRAMES, SHOT_COUNT = 500, 1000
DRIFT_FRAMES, DRIFT_SHOTS, DRIFT_RATE, DRIFT_COST = 800, 100, 1e-3, 600
DRIFT_TERMS = ((_X, _X), (_Y, _Y), (_Z, _Z))
MC_SAMPLES = 20_000


@dataclass
class Op:
    """One workload operation: ``kind`` selects the call, ``label`` the
    cost class it is reported under."""

    kind: str
    label: str
    args: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------

def _hermitian(rng):
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    return (g + g.conj().T) / 2.0


def generic_observable(rng, rank: int) -> np.ndarray:
    """Dense 4x4 observable of tensor rank ``rank`` (almost surely)."""
    return sum(np.kron(_hermitian(rng), _hermitian(rng)) for _ in range(rank))


def symmetric_observable(rng, rank: int) -> SchmidtObservable:
    """sum_j s_j A_j x A_j with orthonormal Hermitian A_j."""
    q, r = np.linalg.qr(rng.standard_normal((4, 4)))
    q = q * np.sign(np.diag(r))
    factors = [np.tensordot(q[:, j], PAULI, axes=(0, 0)) / np.sqrt(2.0) for j in range(rank)]
    s = np.sort(rng.uniform(0.3, 2.0, rank))[::-1]
    return SchmidtObservable(s=s, A=factors, B=list(factors))


def dense(obs) -> np.ndarray:
    if isinstance(obs, SchmidtObservable):
        return sum(w * np.kron(a, b) for w, a, b in zip(obs.s, obs.A, obs.B))
    return np.asarray(obs)


def random_density(rng, qubits: int, pure: bool) -> np.ndarray:
    dim = 2**qubits
    if pure:
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi /= np.linalg.norm(psi)
        return np.outer(psi, psi.conj())
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def local_rotation(rng, qubits: int) -> np.ndarray:
    """Haar-random U_1 x ... x U_n from normalized Gaussian quaternions."""
    out = np.ones((1, 1), dtype=complex)
    for _ in range(qubits):
        q = rng.standard_normal(4)
        a, b, c, d = q / np.linalg.norm(q)
        out = np.kron(out, np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]]))
    return out


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31))


# ---------------------------------------------------------------------------
# Independent references
# ---------------------------------------------------------------------------

def correlation_tensor(rho: np.ndarray) -> np.ndarray:
    """R[mu, nu, ...] = tr(rho s_mu x s_nu x ...), by explicit traces."""
    qubits = int(round(math.log2(rho.shape[0])))
    out = np.empty((4,) * qubits)
    for idx in np.ndindex(*out.shape):
        op = np.ones((1, 1), dtype=complex)
        for mu in idx:
            op = np.kron(op, PAULI[mu])
        out[idx] = np.trace(rho @ op).real
    return out


def makhlin_reference(rho: np.ndarray) -> dict:
    """The twelve recoverable invariants, keyed by recovery row name."""
    r = correlation_tensor(rho)
    a, b, t = r[1:, 0], r[0, 1:], r[1:, 1:]
    tt = t.T @ t
    cof = np.column_stack([np.cross(t[:, 1], t[:, 2]), np.cross(t[:, 2], t[:, 0]),
                           np.cross(t[:, 0], t[:, 1])])
    return {
        "I2": np.trace(tt), "I3": np.trace(tt @ tt), "I4": a @ a,
        "I5": np.sum((t.T @ a) ** 2), "I6": np.sum((t @ t.T @ a) ** 2),
        "I7": b @ b, "I8": np.sum((t @ b) ** 2), "I9": np.sum((tt @ b) ** 2),
        "I12": a @ t @ b, "I13": a @ t @ t.T @ t @ b,
        "det": np.linalg.det(t), "hodge": 2.0 * a @ cof @ b,
    }


def kempe_reference(rho: np.ndarray) -> float:
    r = correlation_tensor(rho)
    a, b, g = r[1:, 0, 0], r[0, 1:, 0], r[0, 0, 1:]
    ab, bc, ac = r[1:, 1:, 0], r[0, 1:, 1:], r[1:, 0, 1:]
    return float(1.0 + a @ a + b @ b + g @ g + a @ ab @ b + b @ bc @ g + a @ ac @ g
                 + np.einsum("ij,jk,ik->", ab, bc, ac)) / 8.0


def det_prefactor_reference(obs) -> float:
    """det(C)/8 with C[i, j] = tr(O s_i x s_j)/2 the traceless block of the
    realigned observable; equals det(M_A M_B^T)/8."""
    o = dense(obs)
    c = np.array([[np.trace(o @ np.kron(PAULI[i], PAULI[j])).real / 2.0
                   for j in (1, 2, 3)] for i in (1, 2, 3)])
    return float(np.linalg.det(c) / 8.0)


def _term_norms(terms) -> np.ndarray:
    """Largest |outcome| of each product-term setting."""
    return np.array([np.prod([np.max(np.abs(np.linalg.eigvalsh(f))) for f in term])
                     for term in terms])


def _moment_bias_bound(terms, t: int, shots: int) -> float:
    """Leading-order bound, doubled, on the O(1/M) bias that raising the
    per-frame mean to the t-th power adds: C(t, 2) L^(t-2) S^2 / M, with L
    the largest |sum of setting means| and S^2 the summed single-shot
    variance bound over the settings."""
    norms = _term_norms(terms)
    big_l, s2 = float(np.sum(norms)), float(np.sum(norms**2))
    return 2.0 * math.comb(t, 2) * big_l ** (t - 2) * s2 / shots


def shot_bias_allowance(values: dict, shots: int) -> dict:
    """Per recovery row, the powering bias carried through the pipeline's
    affine inversion to first order, like the stderr it reports."""
    out = {}

    def row(name):
        if name in out:
            return out[name]
        pipe = ps.PIPELINES[name]
        coeffs = ps.calibrate(name)
        bias = _moment_bias_bound(pipe.terms, pipe.t, shots)
        if pipe.difference is not None:
            bias += _moment_bias_bound(pipe.difference, pipe.t, shots)
        for nm, c in zip(pipe.dictionary, coeffs):
            if nm in (pipe.target, "1") or abs(c) <= ps.COEFF_NEGLIGIBLE:
                continue
            if nm == "I1*I1":
                bias += abs(c) * row("detsq")
                continue
            gens = nm.split("*")
            for i, g in enumerate(gens):
                others = np.prod([abs(values[h]) for j, h in enumerate(gens) if j != i])
                bias += abs(c) * others * row(g)
        out[name] = bias / abs(coeffs[pipe.dictionary.index(pipe.target)])
        return out[name]

    for name in ps.TABLE_ROWS:
        row(name)
    return out


# ---------------------------------------------------------------------------
# Operations (timed) and their checks (untimed)
# ---------------------------------------------------------------------------

def _run_deep(args, tr):
    with tr.span("twirl.build"):
        table = twirl.twirl_coefficients(args["obs"], args["t"])
    out = []
    for rho in args["states"]:
        with tr.span("twirl.moment"):
            out.append(table.moment(rho))
    return out


def _ref_deep(args):
    est = haar_mc.mc_moment(args["obs"], args["states"][0], args["t"],
                            MC_CHECK_SAMPLES, args["check_seed"])
    return {"mc_mean": est.mean, "mc_stderr": est.stderr}


def _check_deep(args, out, ref):
    """Local-unitary invariance (the second state is a locally rotated copy
    of the first) and agreement with Monte Carlo."""
    scale = max(1.0, abs(out[0]))
    if abs(out[1] - out[0]) > EXACT_TOL * scale:
        return f"not local-unitary invariant: {out[0]!r} vs {out[1]!r}"
    if abs(out[0] - ref["mc_mean"]) > PULL_BOUND * ref["mc_stderr"] + EXACT_TOL * scale:
        return f"exact {out[0]!r} vs Monte Carlo {ref['mc_mean']!r} +- {ref['mc_stderr']!r}"
    return None


def _run_fit(args, tr):
    with tr.span("twirl.build"):
        table = twirl.twirl_coefficients(args["obs"], args["t"])
    fit = twirl.decompose if args["t"] == 3 else twirl.odd_fit
    with tr.span("twirl.fit"):
        dec = fit(table, args["t"])
    return {"names": dec.names, "coefficients": np.asarray(dec.coefficients),
            "residual": dec.residual}


def _ref_fit(args):
    if args["t"] == 3:
        return {"I1": det_prefactor_reference(args["obs"])}
    # PT-odd sector of fourth moments: empty for rank <= 2, proportional to
    # 6 det(T) + Hodge at rank 3, two-dimensional at rank 4
    return {"odd_law": {1: "empty", 2: "empty", 3: "6det+hodge"}.get(args["rank"], "span")}


def _check_fit(args, out, ref):
    res, coeffs = out["residual"], out["coefficients"]
    c = dict(zip(out["names"], coeffs))
    if args["t"] == 3:
        if res > EXACT_TOL:
            return f"decompose residual {res:.2e}"
        if abs(c["I1"] - ref["I1"]) > EXACT_TOL * max(1.0, abs(ref["I1"])):
            return f"det(T) coefficient {c['I1']!r} vs prefactor {ref['I1']!r}"
        return None
    law = ref["odd_law"]
    if law == "empty":
        worst = max(res, float(np.max(np.abs(coeffs))))
        return None if worst <= EMPTY_SECTOR_TOL else f"odd sector not empty ({worst:.2e})"
    if res > EXACT_TOL:
        return f"odd_fit residual {res:.2e}"
    if law == "6det+hodge" and abs(c["I1"] - 6.0 * c["I14"]) > EXACT_TOL * max(1.0, abs(c["I1"])):
        return f"rank-3 odd sector off the 6 det + Hodge law: {c['I1']!r}, {c['I14']!r}"
    return None


def _run_recover(args, tr):
    cfg = args.get("cfg")
    with tr.span("protocol_sim.recover"):
        reports = ps.recover_all(args["rho"], cfg)
    return {k: (r.estimate, r.stderr) for k, r in reports.items()}


def _ref_recover(args):
    values = makhlin_reference(args["rho"])
    if args.get("cfg") is None:
        return {"values": values}
    exact = {k: r.estimate for k, r in ps.recover_all(args["rho"]).items()}
    return {"values": exact, "bias": shot_bias_allowance(values, args["cfg"].shots_per_setting)}


def _check_recover(args, out, ref):
    if set(out) != set(ref["values"]):
        return f"rows {sorted(out)} differ from {sorted(ref['values'])}"
    for name, (est, err) in out.items():
        want = ref["values"][name]
        if "bias" in ref:
            if not err > 0 or abs(est - want) > PULL_BOUND * err + ref["bias"][name]:
                return (f"{name}: {est!r} +- {err!r} vs exact {want!r} "
                        f"(bias allowance {ref['bias'][name]:.3g})")
        elif not abs(est - want) <= EXACT_TOL:
            return f"{name}: {est!r} vs reference {want!r}"
    return None


def _run_kempe(args, tr):
    with tr.span("protocol_sim.recover_kempe"):
        return ps.recover_kempe(args["rho"]).estimate


def _ref_kempe(args):
    return {"kempe": kempe_reference(args["rho"])}


def _check_kempe(args, out, ref):
    return None if abs(out - ref["kempe"]) <= EXACT_TOL else f"kempe {out!r} vs {ref['kempe']!r}"


def _run_drift(args, tr):
    cfg = args["cfg"]
    with tr.span("protocol_sim.simulate"):
        est = ps.simulate_moment([list(t) for t in DRIFT_TERMS], args["rho"], cfg,
                                 label="bench-drift")
    settings = len(DRIFT_TERMS)
    tr.count("protocol_sim.simulate.copies",
             cfg.unitary_count * settings * (cfg.shots_per_setting + cfg.setting_change_cost))
    return (est.mean, est.stderr)


def _ref_drift(args):
    return {"bound": float(np.sum(_term_norms(DRIFT_TERMS))) ** args["cfg"].moment}


def _check_drift(args, out, ref):
    """Drifted multi-setting runs are biased by design, so no pull bound:
    the estimate must be finite, within the observable's range, with a
    positive standard error."""
    mean, err = out
    if not (math.isfinite(mean) and err > 0 and abs(mean) <= ref["bound"]):
        return f"drifted estimate {mean!r} +- {err!r} outside range {ref['bound']}"
    return None


def _run_mc(args, tr):
    with tr.span("haar_mc.mc_moment"):
        est = haar_mc.mc_moment(args["obs"], args["rho"], args["t"], args["samples"], args["seed"])
    tr.count("haar_mc.mc_moment.samples", args["samples"])
    return (est.mean, est.stderr)


def _ref_mc(args):
    return {"exact": twirl.exact_moment(args["obs"], args["rho"], args["t"])}


def _check_mc(args, out, ref):
    mean, err = out
    want = ref["exact"]
    if abs(mean - want) > PULL_BOUND * err + EXACT_TOL * max(1.0, abs(want)):
        return f"Monte Carlo {mean!r} +- {err!r} vs exact {want!r}"
    return None


KINDS = {
    "deep": (_run_deep, _ref_deep, _check_deep),
    "fit": (_run_fit, _ref_fit, _check_fit),
    "recover": (_run_recover, _ref_recover, _check_recover),
    "kempe": (_run_kempe, _ref_kempe, _check_kempe),
    "drift": (_run_drift, _ref_drift, _check_drift),
    "mc": (_run_mc, _ref_mc, _check_mc),
}


def execute(op: Op, tr):
    return KINDS[op.kind][0](op.args, tr)


def reference(op: Op):
    return KINDS[op.kind][1](op.args)


def check(op: Op, out, ref):
    """None when the output passes, else a one-line reason."""
    return KINDS[op.kind][2](op.args, out, ref)


# ---------------------------------------------------------------------------
# Workloads: set-up and one pass of operations
# ---------------------------------------------------------------------------

def interleave(groups) -> list:
    """Spread each group evenly over the pass, so that any stretch of it
    holds every cost class in proportion."""
    keyed = []
    for g, items in enumerate(groups):
        n = len(items)
        keyed.extend(((i + 0.5) / n, g, item) for i, item in enumerate(items))
    return [item for _, _, item in sorted(keyed, key=lambda k: k[:2])]


def _deep_pass(rng, mix):
    groups = []
    for t, rank, count in mix:
        ops = []
        for i in range(count):
            rho = random_density(rng, 2, pure=bool(i % 2))
            rot = local_rotation(rng, 2)
            ops.append(Op("deep", f"t{t}r{rank}", {
                "obs": generic_observable(rng, rank), "t": t,
                "states": [rho, rot @ rho @ rot.conj().T], "check_seed": _seed(rng),
            }))
        groups.append(ops)
    return interleave(groups)


def _fits_pass(rng, mix, index):
    groups = []
    for t, rank, count in mix:
        ops = []
        for i in range(count):
            sym = (i + index) % 2 == 1
            ops.append(Op("fit", f"t{t}r{rank}", {
                "obs": symmetric_observable(rng, rank) if sym else generic_observable(rng, rank),
                "t": t, "rank": rank,
            }))
        groups.append(ops)
    return interleave(groups)


def _recovery_pass(rng, n_pairs, n_triples, index):
    pairs = [Op("recover", "recover_all",
                {"rho": random_density(rng, 2, pure=bool((i + index) % 2))})
             for i in range(n_pairs)]
    triples = [Op("kempe", "recover_kempe", {"rho": random_density(rng, 3, pure=bool(i % 2))})
               for i in range(n_triples)]
    return interleave([pairs, triples])


def _shots_pass(rng, n_mc, n_recover, n_drift):
    mc = []
    for i in range(n_mc):
        rank, t = 1 + i % 4, 2 + i % 3
        mc.append(Op("mc", f"mc_t{t}", {
            "obs": generic_observable(rng, rank), "rho": random_density(rng, 2, bool(i % 2)),
            "t": t, "samples": MC_SAMPLES, "seed": _seed(rng),
        }))
    recover = [Op("recover", "recover_all_shots", {
        "rho": random_density(rng, 2, pure=bool(i % 2)),
        "cfg": ps.ProtocolConfig(SHOT_FRAMES, SHOT_COUNT, 1, seed=_seed(rng)),
    }) for i in range(n_recover)]
    drift = [Op("drift", "drift_3set", {
        "rho": random_density(rng, 2, pure=bool(i % 2)),
        "cfg": ps.ProtocolConfig(DRIFT_FRAMES, DRIFT_SHOTS, 3, drift_rate=DRIFT_RATE,
                                 setting_change_cost=DRIFT_COST, seed=_seed(rng)),
    }) for i in range(n_drift)]
    return interleave([mc, recover, drift])


@dataclass(frozen=True)
class Workload:
    orders: tuple           # moment orders whose Gram and Pauli tables set-up warms
    calibrate: bool         # warm every recovery pipeline's calibration
    make_pass: object       # (rng, pass index) -> list of Op


_PAULI_ZZ = np.kron(_Z, _Z)
_GHZ = np.zeros((8, 8), dtype=complex)
_GHZ[0, 0] = _GHZ[0, 7] = _GHZ[7, 0] = _GHZ[7, 7] = 0.5

# Pass mixes, as (t, rank, count) or counts per kind.  The counts put the
# median and the tail percentile in the middle of one cost class at this
# commit, not on the edge between two, where the host's timing jitter moves
# them most.  In ``recovery`` exact recover_all takes most of the time and
# recover_kempe holds the median, so that a slowdown of either path shows;
# see perfbench/README.md.
WORKLOADS = {
    "full": {
        "deep": Workload((5, 6), False, lambda rng, i: _deep_pass(rng, (
            (5, 1, 10), (5, 2, 7), (6, 1, 7), (5, 3, 2), (6, 2, 9), (5, 4, 4),
            (6, 3, 1), (6, 4, 1)))),
        "fits": Workload((3, 4), False, lambda rng, i: _fits_pass(rng, (
            (3, 1, 18), (3, 2, 10), (3, 3, 28), (3, 4, 20),
            (4, 1, 2), (4, 2, 2), (4, 3, 7), (4, 4, 1)), i)),
        "recovery": Workload((2, 3, 4, 5, 6), True,
                             lambda rng, i: _recovery_pass(rng, 1, 2, i)),
        "shots": Workload((2, 3, 4, 5, 6), True,
                          lambda rng, i: _shots_pass(rng, 8, 4, 2)),
    },
    "tiny": {
        "deep": Workload((5,), False,
                         lambda rng, i: _deep_pass(rng, ((5, 1, 2), (5, 2, 1)))),
        "fits": Workload((3, 4), False, lambda rng, i: _fits_pass(rng, (
            (3, 1, 1), (3, 2, 1), (3, 3, 2), (3, 4, 1), (4, 1, 1), (4, 2, 1), (4, 3, 2)), i)),
        "recovery": Workload((2, 3, 4, 5, 6), True,
                             lambda rng, i: _recovery_pass(rng, 1, 1, i)),
        "shots": Workload((2, 3, 4, 5, 6), True,
                          lambda rng, i: _shots_pass(rng, 2, 1, 1)),
    },
}


def warm(workload: Workload, tr):
    """Fill the caches the workload needs: the Gram matrices, the first
    coefficient-table build at each order (which fills the Gram inverse and
    the Pauli-trace table) and, for the recovery workloads, every pipeline's
    calibration."""
    for t in workload.orders:
        with tr.span("symgroup.gram_matrix"):
            symgroup.gram_matrix(t, 2)
    for t in workload.orders:
        with tr.span("twirl.tables"):
            twirl.twirl_coefficients(_PAULI_ZZ, t)
    if workload.calibrate:
        for name in ps.PIPELINES:
            with tr.span("protocol_sim.calibrate"):
                ps.calibrate(name)
        # the three-qubit calibration is filled by the first Kempe recovery
        with tr.span("protocol_sim.calibrate"):
            ps.recover_kempe(_GHZ)


def make_pass(workload: Workload, seed: int, index: int) -> list:
    """Operations of pass ``index``; the same seed gives the same inputs."""
    rng = np.random.default_rng([seed, index])
    return workload.make_pass(rng, index)


def build_peak_mb(ops) -> float:
    """Largest tracemalloc peak of one table build, over the first operation
    of each cost class that builds a table.  Runs outside every timed span,
    because tracemalloc slows the allocations it watches."""
    peaks, seen = [0.0], set()
    for op in ops:
        if op.kind in ("deep", "fit") and op.label not in seen:
            seen.add(op.label)
            tracemalloc.start()
            twirl.twirl_coefficients(op.args["obs"], op.args["t"])
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
            tracemalloc.stop()
    return max(peaks)
