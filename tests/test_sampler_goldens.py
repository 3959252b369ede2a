"""Seeded CLI outputs of both samplers, recorded before the samplers read
the component-major rotation kernel.

Finite-shot ``rmoments simulate`` output and its CSV trace must match the
recording byte for byte.  ``rmoments mc`` output must match too, except that
the contraction order of a Monte Carlo sample may move a mean or a standard
error at rounding level: those may differ by at most 1e-12 relative.

Regenerate ``data/sampler_goldens.json`` (only when a change is meant to move
these outputs) with ``PYTHONPATH=src:tests python tests/test_sampler_goldens.py``.
"""

import json
import pathlib
import sys

import pytest

from conftest import observable_to_json
from rmoments import cli
from rmoments.paulis import PAULIS

I, X, Y, Z = PAULIS
GOLDENS = pathlib.Path(__file__).with_name("data") / "sampler_goldens.json"
MC_REL_TOL = 1e-12

STATES = {
    "mixed2": ["--kind", "mixed", "--qubits", "2", "--seed", "6"],
    "mixed3": ["--kind", "mixed", "--qubits", "3", "--seed", "5"],
}
OBSERVABLES = {
    "two": observable_to_json([[X + 0.3 * Z, Y], [Z, 0.5 * X - Y]], [1.0, -0.7]),
    "three": observable_to_json([[X, Z, Y], [I + Z, X, Z]], [0.8, 1.1]),
}
SIMULATE = {
    "det": ("mixed2", ["--invariant", "det", "--unitaries", "300", "--shots", "100",
                       "--seed", "11"]),
    "hodge": ("mixed2", ["--invariant", "hodge", "--unitaries", "300", "--shots", "100",
                         "--seed", "12"]),
    "I13": ("mixed2", ["--invariant", "I13", "--unitaries", "150", "--shots", "60",
                       "--seed", "13"]),
    "kempe": ("mixed3", ["--invariant", "kempe", "--unitaries", "150", "--shots", "60",
                         "--seed", "14"]),
    "det-drift-csv": ("mixed2", ["--invariant", "det", "--unitaries", "40", "--shots", "30",
                                 "--drift", "0.002", "--drift-cost", "25", "--seed", "15"]),
    "kempe-drift": ("mixed3", ["--invariant", "kempe", "--unitaries", "12", "--shots", "20",
                               "--drift", "-0.001", "--drift-cost", "3", "--seed", "16"]),
}
MC = {f"{obs}-t{t}": (obs, "mixed2" if obs == "two" else "mixed3", t)
      for obs in ("two", "three") for t in (2, 3, 4)}


def _state(tmp_path, name):
    path = tmp_path / f"{name}.json"
    if not path.exists():
        assert cli.main(["state-gen", *STATES[name], "--out", str(path)]) == 0
    return path


def run_simulate(tmp_path, case) -> dict:
    state, flags = SIMULATE[case]
    out, csv = tmp_path / f"{case}.json", tmp_path / f"{case}.csv"
    extra = ["--csv", str(csv)] if case.endswith("csv") else []
    assert cli.main(["simulate", "--state", str(_state(tmp_path, state)), *flags, *extra,
                     "--out", str(out)]) == 0
    return {"out": out.read_text(), "csv": csv.read_text() if extra else None}


def run_mc(tmp_path, case) -> str:
    obs_name, state, t = MC[case]
    obs = tmp_path / f"obs-{obs_name}.json"
    obs.write_text(json.dumps(OBSERVABLES[obs_name]))
    out = tmp_path / f"mc-{case}.json"
    assert cli.main(["mc", "--observable", str(obs), "--state", str(_state(tmp_path, state)),
                     "--t", str(t), "--samples", "3000", "--seed", str(40 + t),
                     "--out", str(out)]) == 0
    return out.read_text()


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDENS.read_text())


@pytest.mark.parametrize("case", sorted(SIMULATE))
def test_simulate_output_is_byte_identical(tmp_path, goldens, case):
    assert run_simulate(tmp_path, case) == goldens["simulate"][case]


@pytest.mark.parametrize("case", sorted(MC))
def test_mc_output_is_identical_up_to_rounding(tmp_path, goldens, case):
    got, want = json.loads(run_mc(tmp_path, case)), json.loads(goldens["mc"][case])
    assert got.keys() == want.keys()
    for key in ("samples", "seed"):
        assert got[key] == want[key]
    for key in ("mean", "stderr"):
        assert got[key] == pytest.approx(want[key], rel=MC_REL_TOL, abs=0.0), key


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        doc = {"simulate": {case: run_simulate(root, case) for case in sorted(SIMULATE)},
               "mc": {case: run_mc(root, case) for case in sorted(MC)}}
    GOLDENS.parent.mkdir(exist_ok=True)
    GOLDENS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDENS}", file=sys.stderr)
