"""Tests of the benchmark itself, run from the repository root with

    python3 -m pytest perfbench/tests -q

They are outside the package's own suite (``testpaths`` names only
``tests``), because they start many fresh interpreters.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer, self_times  # noqa: E402

from rmoments import invariants, observables  # noqa: E402
from rmoments.states import bloch_from_density  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.01",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    # failed_frac is printed with its unit; it is carried in the result line
    # as failed / attempted
    lines = [ln.split() for ln in proc.stdout.splitlines()]
    assert ["failed_frac", "0", "ratio"] in [ln[:3] for ln in lines]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        tail = next(ln for ln in lines if ln and ln[0] == "op_tail_ms")
        assert float(tail[1]) > 0 and tail[2] == "ms" and tail[3].startswith("(p")


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "fits", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _tiny_fits_pass():
    return wl.make_pass(wl.WORKLOADS["tiny"]["fits"], 5, 0)


def test_wrong_reference_counts_as_failed(monkeypatch):
    done, traced, passes = worker.timed_phase(wl.WORKLOADS["tiny"]["fits"], 5, 0.0)
    assert passes == 1 and traced == [] and all(err is None for _, _, err, _ in done)
    assert worker.check_all(done) == [None] * len(done)

    true_reference = wl.reference

    def off_by_a_little(op):
        ref = true_reference(op)
        if op.args["t"] == 3:
            ref = {"I1": ref["I1"] + 1e-6}
        return ref

    monkeypatch.setattr(wl, "reference", off_by_a_little)
    reasons = worker.check_all(done)
    wrong = [r for r in reasons if r is not None]
    assert len(wrong) == sum(op.args["t"] == 3 for op, *_ in done) > 0
    assert all("det(T) coefficient" in r for r in wrong)


def test_raising_operation_counts_as_failed(monkeypatch):
    def boom(args, tr):
        raise FloatingPointError("injected")

    run_fit, ref_fit, check_fit = wl.KINDS["fit"]
    monkeypatch.setitem(wl.KINDS, "fit", (boom, ref_fit, check_fit))
    done, _, _ = worker.timed_phase(wl.WORKLOADS["tiny"]["fits"], 5, 0.0)
    reasons = worker.check_all(done)
    assert all(r is not None and "injected" in r for r in reasons)


def test_odd_sector_law_check_rejects_a_wrong_ratio():
    op = next(op for op in _tiny_fits_pass() if op.args["t"] == 4 and op.args["rank"] == 3)
    out = wl.execute(op, Tracer(False))
    ref = wl.reference(op)
    assert wl.check(op, out, ref) is None
    names = list(out["names"])
    bent = dict(out, coefficients=out["coefficients"].copy())
    bent["coefficients"][names.index("I14")] *= 1.01
    assert "6 det + Hodge" in wl.check(op, bent, ref)


def test_references_match_the_package_formulas():
    rng = np.random.default_rng(0)
    for pure in (False, True):
        rho = wl.random_density(rng, 2, pure)
        rec = invariants.makhlin(bloch_from_density(rho))
        ref = wl.makhlin_reference(rho)
        names = {"det": "I1", "hodge": "I14"}
        for row, value in ref.items():
            assert value == pytest.approx(getattr(rec, names.get(row, row)), abs=1e-12)
        rho3 = wl.random_density(rng, 3, pure)
        assert wl.kempe_reference(rho3) == pytest.approx(
            invariants.kempe(bloch_from_density(rho3)).kempe, abs=1e-12)
    for rank in (1, 2, 3, 4):
        for obs in (observables.schmidt_decompose(wl.generic_observable(rng, rank)),
                    wl.symmetric_observable(rng, rank)):
            assert wl.det_prefactor_reference(obs) == pytest.approx(
                observables.det_prefactor(obs), abs=1e-12)


def test_local_rotation_is_a_product_of_su2():
    u = wl.local_rotation(np.random.default_rng(1), 2)
    assert np.allclose(u @ u.conj().T, np.eye(4))
    assert np.linalg.det(u) == pytest.approx(1.0)


def test_tail_percentile_keeps_ten_operations_beyond():
    assert run.tail_percentile(19) == 50
    assert run.tail_percentile(44) == 75
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(384) == 95
    assert run.tail_percentile(1000) == 99
    values = list(range(1, 45))
    assert run.nearest_rank(values, 75) == 33 and sum(v > 33 for v in values) >= 10


def test_self_time_subtracts_children():
    tr = Tracer(True)
    with tr.span("op"):
        with tr.span("child"):
            pass
    op, child = tr.spans
    assert child["parent"] == op["id"]
    own = self_times(tr.spans)
    assert own["op"] == pytest.approx((op["end"] - op["start"]) - (child["end"] - child["start"]))
    assert Tracer(False).span("x") is Tracer(False).span("y")


def test_traced_phase_repeats_each_pass_on_the_same_inputs():
    tr = Tracer(True)
    untraced, traced, passes = worker.timed_phase(wl.WORKLOADS["tiny"]["fits"], 5, 0.0, tr)
    assert passes == 1 and len(traced) == len(untraced)
    assert [op.label for op, *_ in traced] == [op.label for op, *_ in untraced]
    assert {s["name"] for s in tr.spans} == {"op", "twirl.build", "twirl.fit"}


def test_build_peak_is_taken_once_per_cost_class():
    ops = _tiny_fits_pass()
    assert wl.build_peak_mb(ops) > 0
    assert wl.build_peak_mb([op for op in ops if op.kind != "fit"]) == 0.0
