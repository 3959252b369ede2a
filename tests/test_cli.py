import json

import pytest

from conftest import observable_to_json
from rmoments import cli
from rmoments.paulis import PAULIS

I, X, Y, Z = PAULIS


def run(args):
    return cli.main(args)


def odet_doc():
    return observable_to_json([[X, X], [Y, Y], [Z, Z]])


def test_state_gen_and_invariants(tmp_path):
    state = tmp_path / "bell.json"
    assert run(["state-gen", "--kind", "bell", "--qubits", "2",
                "--out", str(state)]) == 0
    out = tmp_path / "inv.json"
    assert run(["invariants", "--state", str(state), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["invariants"]["I1"] == pytest.approx(-1.0)
    assert doc["negativity"] == pytest.approx(0.5)


def test_state_gen_matrix_roundtrip(tmp_path):
    state = tmp_path / "mixed.json"
    assert run(["state-gen", "--kind", "mixed", "--seed", "4",
                "--format", "matrix", "--out", str(state)]) == 0
    out = tmp_path / "inv.json"
    assert run(["invariants", "--state", str(state), "--out", str(out)]) == 0
    assert "I14" in json.loads(out.read_text())["invariants"]


def test_classify_pauli_sum(tmp_path):
    obs = tmp_path / "odet.json"
    obs.write_text(json.dumps(odet_doc()))
    out = tmp_path / "cls.json"
    assert run(["classify", "--observable", str(obs), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["rank"] == 3
    assert doc["det_prefactor"] == pytest.approx(1.0)


def test_twirl_subcommand(tmp_path):
    obs = tmp_path / "odet.json"
    obs.write_text(json.dumps(odet_doc()))
    state = tmp_path / "bell.json"
    run(["state-gen", "--kind", "bell", "--out", str(state)])
    out = tmp_path / "twirl.json"
    assert run(["twirl", "--observable", str(obs), "--state", str(state),
                "--t", "3", "--gauge", "reduced", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["moment"] == pytest.approx(-1.0)
    assert doc["decomposition"]["coefficients"]["I1"] == pytest.approx(1.0)


def test_mc_subcommand(tmp_path):
    obs = tmp_path / "odet.json"
    obs.write_text(json.dumps(odet_doc()))
    state = tmp_path / "bell.json"
    run(["state-gen", "--kind", "bell", "--out", str(state)])
    out = tmp_path / "mc.json"
    assert run(["mc", "--observable", str(obs), "--state", str(state),
                "--t", "3", "--samples", "20000", "--seed", "3",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert abs(doc["mean"] + 1.0) <= 4 * doc["stderr"]


def test_simulate_exact_and_csv(tmp_path):
    state = tmp_path / "bell.json"
    run(["state-gen", "--kind", "bell", "--out", str(state)])
    out = tmp_path / "rep.json"
    csv = tmp_path / "trace.csv"
    assert run(["simulate", "--state", str(state), "--invariant", "det",
                "--exact", "--unitaries", "50", "--shots", "20",
                "--csv", str(csv), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["estimate"] == pytest.approx(-1.0, abs=1e-8)
    # an exact recovery samples no shots: the CSV holds the header only
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "unitary_index,setting_index,estimate"
    assert len(lines) == 1


@pytest.mark.parametrize("invariant, drift", (("det", "0"), ("I5", "0"), ("hodge", "0.001")))
def test_simulate_csv_is_the_reported_run(tmp_path, invariant, drift):
    from rmoments import protocol_sim as ps
    from rmoments.states import state_from_json

    state = tmp_path / "rho.json"
    run(["state-gen", "--kind", "mixed", "--seed", "6", "--out", str(state)])
    csv = tmp_path / "trace.csv"
    assert run(["simulate", "--state", str(state), "--invariant", invariant,
                "--unitaries", "30", "--shots", "25", "--seed", "4", "--drift", drift,
                "--drift-cost", "10", "--csv", str(csv), "--out", str(tmp_path / "rep.json")]) == 0
    pipe = ps.PIPELINES[invariant]
    cfg = ps.ProtocolConfig(30, 25, pipe.t, drift_rate=float(drift), setting_change_cost=10,
                            seed=4)
    _, trace = ps.simulate_moment([list(t) for t in pipe.terms],
                                  state_from_json(json.loads(state.read_text())), cfg,
                                  label=pipe.name, collect_trace=True)
    want = "unitary_index,setting_index,estimate\n" + "".join(
        f"{k},{j},{trace[k, j]:.12g}\n" for k in range(trace.shape[0])
        for j in range(trace.shape[1]))
    assert csv.read_bytes() == want.encode()


def test_simulate_kempe_exact(tmp_path):
    state = tmp_path / "ghz.json"
    run(["state-gen", "--kind", "ghz", "--qubits", "3", "--out", str(state)])
    out = tmp_path / "rep.json"
    assert run(["simulate", "--state", str(state), "--invariant", "kempe",
                "--exact", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["estimate"] == pytest.approx(0.25, abs=1e-8)
    assert doc["settings_used"] == 2


def test_verify_single_claim(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(["verify", "--claim", "gram_values", "--seed", "7",
                "--json", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True


def test_malformed_json_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["invariants", "--state", str(bad)]) == cli.EXIT_BAD_INPUT
    # valid JSON of the wrong shape is malformed input too, not a traceback
    obs = tmp_path / "odet.json"
    obs.write_text(json.dumps(odet_doc()))
    zero, eye = [0.0] * 3, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    docs = ([1, 2],
            {"qubits": [2], "alpha": zero, "beta": zero, "T": eye},
            {"qubits": 2, "alpha": {"a": 1}, "beta": zero, "T": eye})
    for i, doc in enumerate(docs):
        state = tmp_path / f"state{i}.json"
        state.write_text(json.dumps(doc))
        for argv in (["invariants"],
                     ["twirl", "--observable", str(obs), "--t", "2"],
                     ["mc", "--observable", str(obs), "--t", "2", "--samples", "10"],
                     ["simulate", "--invariant", "I2", "--exact"]):
            capsys.readouterr()
            assert run(argv + ["--state", str(state)]) == cli.EXIT_BAD_INPUT, (doc, argv)
            assert capsys.readouterr().err.startswith("error: malformed state document")
    # numbers that are not finite floats: NaN, infinities and literals that
    # overflow a float, as a state entry and as an observable weight
    odet_text = json.dumps(odet_doc())
    for i, number in enumerate(("NaN", "Infinity", "-Infinity", "1e400", "1" * 401)):
        state = tmp_path / f"state-nonfinite{i}.json"
        state.write_text(json.dumps({"qubits": 2, "alpha": zero, "beta": zero, "T": eye})
                         .replace("1.0", number, 1))
        observable = tmp_path / f"odet-nonfinite{i}.json"
        observable.write_text(odet_text.replace('"weight": 1.0', f'"weight": {number}', 1))
        for argv in (["invariants", "--state", str(state)],
                     ["simulate", "--invariant", "I2", "--exact", "--state", str(state)],
                     ["classify", "--observable", str(observable)],
                     ["twirl", "--observable", str(observable), "--t", "2"]):
            capsys.readouterr()
            assert run(argv) == cli.EXIT_BAD_INPUT, (number, argv)
            captured = capsys.readouterr()
            assert captured.err.startswith("error: cannot read JSON document"), captured.err
            assert captured.out == ""


def test_dimension_mismatch_exit_code(tmp_path):
    obs = tmp_path / "odet.json"
    obs.write_text(json.dumps(odet_doc()))
    state = tmp_path / "ghz.json"
    run(["state-gen", "--kind", "ghz", "--qubits", "3", "--out", str(state)])
    assert run(["mc", "--observable", str(obs), "--state", str(state),
                "--t", "2"]) == cli.EXIT_DIMENSION


def test_seeded_output_is_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        run(["state-gen", "--kind", "mixed", "--seed", "12", "--out", str(path)])
    assert a.read_bytes() == b.read_bytes()
    # shot-mode recovery: a two-qubit pipeline with its CSV trace, and Kempe
    state3 = tmp_path / "rho3.json"
    run(["state-gen", "--kind", "mixed", "--qubits", "3", "--seed", "5", "--out", str(state3)])
    for invariant, state, with_csv in (("I13", a, True), ("kempe", state3, False)):
        outputs = []
        for i in (0, 1):
            out = tmp_path / f"{invariant}-{i}.json"
            csv = tmp_path / f"{invariant}-{i}.csv"
            cmd = ["simulate", "--state", str(state), "--invariant", invariant,
                   "--unitaries", "40", "--shots", "20", "--seed", "9", "--out", str(out)]
            assert run(cmd + (["--csv", str(csv)] if with_csv else [])) == 0
            outputs.append(out.read_bytes() + (csv.read_bytes() if with_csv else b""))
        assert outputs[0] == outputs[1], invariant
    assert len((tmp_path / "I13-0.csv").read_text().splitlines()) == 1 + 40


@pytest.mark.parametrize("argv, code", (
    # every pipeline fixes its own moment order; there is no --t to set
    pytest.param(["simulate", "--state", "{bell}", "--invariant", "I2", "--t", "3"], None,
                 id="simulate-moment-flag"),
    pytest.param(["simulate", "--state", "{bell}", "--invariant", "I2", "--unitaries", "0"], None,
                 id="simulate-unitaries-0"),
    pytest.param(["simulate", "--state", "{bell}", "--invariant", "I2", "--shots", "-1"], None,
                 id="simulate-shots-negative"),
    pytest.param(["twirl", "--observable", "{odet}", "--t", "0"], None, id="twirl-t-0"),
    pytest.param(["twirl", "--observable", "{odet}", "--t", "-2"], None, id="twirl-t-negative"),
    pytest.param(["twirl", "--observable", "{odet}", "--t", "7"], None, id="twirl-t-above-max"),
    pytest.param(["twirl", "--observable", "{xxx}", "--t", "4"], cli.EXIT_BAD_INPUT,
                 id="twirl-three-party-t-4"),
    # a twirl needs two or three parties: one factor used to raise
    # IndexError, four factors gave a table that ignored the fourth
    pytest.param(["twirl", "--observable", "{x}", "--t", "2"], cli.EXIT_BAD_INPUT,
                 id="twirl-one-party"),
    pytest.param(["twirl", "--observable", "{xxxx}", "--t", "2"], cli.EXIT_BAD_INPUT,
                 id="twirl-four-party"),
    # a non-finite drift or a negative change cost used to exit 0 with garbage
    pytest.param(["simulate", "--state", "{bell}", "--invariant", "det", "--drift", "nan",
                  "--drift-cost", "10"], None, id="simulate-drift-nan"),
    pytest.param(["simulate", "--state", "{bell}", "--invariant", "det", "--drift", "inf"], None,
                 id="simulate-drift-inf"),
    pytest.param(["simulate", "--state", "{bell}", "--invariant", "det", "--drift", "0.001",
                  "--drift-cost", "-5"], None, id="simulate-drift-cost-negative"),
    pytest.param(["simulate", "--state", "{bell}", "--invariant", "det", "--drift", "fast"], None,
                 id="simulate-drift-not-a-number"),
    pytest.param(["verify", "--claim", "gram_values", "--workers", "0"], None,
                 id="verify-workers-0"),
    pytest.param(["verify", "--claim", "gram_values", "--workers", "-1"], None,
                 id="verify-workers-negative"),
    pytest.param(["mc", "--observable", "{odet}", "--state", "{bell}", "--t", "3",
                  "--samples", "0"], None, id="mc-samples-0"),
    pytest.param(["mc", "--observable", "{odet}", "--state", "{bell}", "--t", "-1"], None,
                 id="mc-t-negative"),
    pytest.param(["verify", "--claim", "nope"], None, id="verify-unknown-claim"),
    # a negative tolerance counted zero singular values, nan counted none
    pytest.param(["classify", "--observable", "{odet}", "--rank-tolerance", "-1"], None,
                 id="classify-tolerance-negative"),
    pytest.param(["classify", "--observable", "{odet}", "--rank-tolerance", "nan"], None,
                 id="classify-tolerance-nan"),
    pytest.param(["simulate", "--state", "{bell}", "--invariant", "det", "--drift", "-inf"], None,
                 id="simulate-drift-negative-inf"),
    # a state whose party count differs from the observable's used to end
    # in a ValueError traceback and exit 1
    pytest.param(["twirl", "--observable", "{odet}", "--state", "{ghz}", "--t", "2"],
                 cli.EXIT_DIMENSION, id="twirl-two-party-three-qubit-state"),
    pytest.param(["twirl", "--observable", "{odet}", "--state", "{ghz_matrix}", "--t", "2"],
                 cli.EXIT_DIMENSION, id="twirl-two-party-three-qubit-matrix"),
    pytest.param(["twirl", "--observable", "{xxx}", "--state", "{bell}", "--t", "2"],
                 cli.EXIT_DIMENSION, id="twirl-three-party-two-qubit-state"),
    pytest.param(["twirl", "--observable", "{xxx}", "--state", "{bell_matrix}", "--t", "2"],
                 cli.EXIT_DIMENSION, id="twirl-three-party-two-qubit-matrix"),
))
def test_malformed_flags_are_rejected(tmp_path, capsys, argv, code):
    # argparse rejects a malformed flag with SystemExit(2) and a usage message;
    # input the parser cannot see exits EXIT_BAD_INPUT with an error line
    files = {"odet": tmp_path / "odet.json"}
    for kind, qubits in (("bell", "2"), ("ghz", "3")):
        for form in ("bloch", "matrix"):
            name = kind if form == "bloch" else f"{kind}_{form}"
            files[name] = tmp_path / f"{name}.json"
            run(["state-gen", "--kind", kind, "--qubits", qubits, "--format", form,
                 "--out", str(files[name])])
    files["odet"].write_text(json.dumps(odet_doc()))
    for name in ("x", "xxx", "xxxx"):
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(observable_to_json([[X] * len(name)])))
    capsys.readouterr()
    argv = [a.format(**files) for a in argv]
    if code is None:
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err
    else:
        assert run(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


def test_negative_drift_in_exponent_notation(tmp_path):
    # argparse reads -5e-4 as an option name unless it is attached with "="
    state = tmp_path / "bell.json"
    run(["state-gen", "--kind", "bell", "--out", str(state)])
    outs = []
    for flag in (["--drift", "-5e-4"], ["--drift=-5e-4"], ["--drift", "-0.0005"]):
        out = tmp_path / f"sim{len(outs)}.json"
        assert run(["simulate", "--state", str(state), "--invariant", "det",
                    "--unitaries", "20", "--shots", "50", "--drift-cost", "10",
                    "--seed", "3", *flag, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_state_gen_accepted_everywhere(tmp_path):
    # round-trip: generated states feed every state-consuming subcommand
    state = tmp_path / "s.json"
    run(["state-gen", "--kind", "pure", "--seed", "3", "--out", str(state)])
    obs = tmp_path / "o.json"
    obs.write_text(json.dumps(odet_doc()))
    assert run(["invariants", "--state", str(state)]) == 0
    assert run(["twirl", "--observable", str(obs), "--state", str(state), "--t", "2"]) == 0
    assert run(["mc", "--observable", str(obs), "--state", str(state),
                "--t", "2", "--samples", "1000"]) == 0
    assert run(["simulate", "--state", str(state), "--invariant", "I2", "--exact"]) == 0
