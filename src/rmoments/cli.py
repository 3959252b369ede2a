"""Command-line interface: every subsystem behind one binary with
reproducible seeds and JSON/CSV output.

Exit codes: 0 success, 1 failed verification check, 2 malformed input
document, a result that overflows a float or an input the exact engine
cannot solve within its tolerance, 3 dimension mismatch.
"""

import argparse
import json
import math
import sys

import numpy as np

from . import protocol_sim, symgroup, verify
from .haar_mc import mc_moment
from .invariants import kempe, makhlin
from .linalg import DimensionError
from .observables import (
    dense_from_terms,
    det_prefactor,
    observable_from_json,
    schmidt_decompose,
    TripartiteObservable,
)
from .states import (
    bell_state,
    bloch_from_density,
    density_from_bloch,
    ghz_state,
    negativity,
    random_state,
    state_from_json,
    state_to_json,
)
from . import twirl

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_DIMENSION = 3


class InputError(ValueError):
    pass


def _number(convert, accept, expected: str):
    """An argparse type: the converted text, if ``accept`` takes it."""
    def parse(text: str):
        try:
            if accept(value := convert(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return parse


_positive_int = _number(int, lambda v: v >= 1, "a positive integer")
_non_negative_int = _number(int, lambda v: v >= 0, "a non-negative integer")
_finite_float = _number(float, np.isfinite, "a finite number")
_non_negative_float = _number(float, lambda v: np.isfinite(v) and v >= 0,
                              "a finite non-negative number")


def _attach_negative_numbers(argv) -> list:
    """``--opt -5e-4`` as ``--opt=-5e-4``: argparse takes a negative number
    for an option name unless it reads like -5 or -0.5."""
    out = []
    for arg in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and arg.startswith("-"):
            try:
                float(arg)
            except ValueError:
                pass
            else:
                out[-1] += "=" + arg
                continue
        out.append(arg)
    return out


def _finite_json_number(convert):
    """A ``json`` number hook: ``convert`` of the literal, if it is finite as
    a float; ``NaN``, ``Infinity``, ``1e400`` and 10**400 are not."""
    def parse(text: str):
        try:
            if math.isfinite(value := convert(text)):
                return value
        except OverflowError:
            pass
        raise ValueError(f"not a finite number: {text:.24}")
    return parse


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh, parse_float=_finite_json_number(float),
                             parse_int=_finite_json_number(int),
                             parse_constant=_finite_json_number(float))
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read JSON document {path}: {exc}") from exc


def _load_state(path: str):
    doc = _load_json(path)
    try:
        return state_from_json(doc)
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise InputError(f"malformed state document {path}: {exc}") from exc


def _load_observable(path: str):
    doc = _load_json(path)
    try:
        return observable_from_json(doc)
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"malformed observable document {path}: {exc}") from exc


def _emit(doc: dict, out: str):
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise OverflowError(f"the result is not finite ({exc})") from exc
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_state_gen(args) -> int:
    if args.kind in ("bell", "ghz"):
        rho = bell_state() if args.kind == "bell" else ghz_state()
        if args.kind == "bell" and args.qubits != 2:
            raise DimensionError("bell state is a two-qubit state")
        if args.kind == "ghz" and args.qubits != 3:
            raise DimensionError("ghz state is a three-qubit state")
    else:
        rho = random_state(args.kind, args.qubits, args.seed)
    state = bloch_from_density(rho)
    doc = state_to_json(rho) if args.format == "matrix" else state_to_json(state)
    _emit(doc, args.out)
    return EXIT_OK


def _cmd_invariants(args) -> int:
    state = _load_state(args.state)
    # a non-finite invariant fails _emit and a NaN sign determinant raises,
    # so numpy's overflow warnings on the way say nothing more
    with np.errstate(over="ignore", invalid="ignore"):
        rec = makhlin(state) if state.parties == 2 else kempe(state)
    doc = {"qubits": state.parties, "invariants": rec.as_dict()}
    if state.parties == 2:
        doc["negativity"] = negativity(density_from_bloch(state))
    _emit(doc, args.out)
    return EXIT_OK


def _cmd_classify(args) -> int:
    terms, weights = _load_observable(args.observable)
    if len(terms[0]) != 2:
        raise DimensionError("classify expects a two-party observable")
    dense = dense_from_terms(terms, weights, 2)
    dec = schmidt_decompose(dense, rank_tolerance=args.rank_tolerance)
    doc = {
        "rank": dec.rank,
        "schmidt_values": dec.s.tolist(),
        "det_prefactor": det_prefactor(dec),
    }
    _emit(doc, args.out)
    return EXIT_OK


def _cmd_twirl(args) -> int:
    terms, weights = _load_observable(args.observable)
    parties = len(terms[0])
    if parties not in (2, 3):
        raise InputError(f"twirl supports two- and three-party observables, got {parties}")
    if parties == 3 and args.t > 3:
        raise InputError(f"three-party twirl supports t <= 3, got t={args.t}")
    if args.gauge == "reduced" and args.t > max(twirl.GAUGE_ZEROS):
        raise InputError(f"the reduced gauge is designated at t <= 4 only, got t={args.t}")
    state = _load_state(args.state) if args.state else None
    if state is not None and state.parties != parties:
        raise DimensionError(f"a {parties}-party observable needs a {parties}-qubit state")
    if parties == 2:
        obs = dense_from_terms(terms, weights, 2)
    else:
        obs = TripartiteObservable(terms, weights)
    coeffs = twirl.twirl_coefficients(obs, args.t)
    doc = {"t": args.t, "parties": parties, "gauge": args.gauge}
    dense = coeffs.dense(gauge=args.gauge == "reduced")
    perms = [p.cycle_string() for p in symgroup.enumerate_group(args.t)]
    doc["coefficients"] = {
        "order": perms,
        "real": np.real(dense).tolist(),
        "imag": np.imag(dense).tolist(),
    }
    if parties == 2:
        dec = twirl.decompose(coeffs, args.t, seed=args.seed)
        doc["decomposition"] = dec.as_dict()
    if state is not None:
        doc["moment"] = coeffs.moment(state)
    _emit(doc, args.out)
    return EXIT_OK


def _cmd_mc(args) -> int:
    terms, weights = _load_observable(args.observable)
    state = _load_state(args.state)
    rho = density_from_bloch(state)
    dense = dense_from_terms(terms, weights, len(terms[0]))
    if dense.shape != rho.shape:
        raise DimensionError("observable and state act on different party counts")
    _emit(mc_moment(dense, rho, args.t, args.samples, args.seed).as_dict(), args.out)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    state = _load_state(args.state)
    pipe = protocol_sim.PIPELINES.get(args.invariant)
    cfg = protocol_sim.ProtocolConfig(
        unitary_count=args.unitaries,
        shots_per_setting=args.shots,
        moment=3 if pipe is None else pipe.t,
        drift_rate=args.drift,
        setting_change_cost=args.drift_cost,
        seed=args.seed,
    )
    if args.invariant == "kempe":
        if args.csv:
            raise InputError("--csv traces a pipeline's primary observable; "
                             "kempe recovery has none")
        if state.parties != 3:
            raise DimensionError("kempe recovery needs a three-qubit state")
    elif state.parties != 2:
        raise DimensionError("two-qubit invariant recovery needs a two-qubit state")
    cfg = None if args.exact else cfg
    cache = {}
    # an overflowing moment or sign determinant raises, a non-finite estimate
    # fails _emit and the shot samplers reject a record that is not a state
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            if args.invariant == "kempe":
                rep = protocol_sim.recover_kempe(state, cfg)
            else:
                rep = protocol_sim.recover_invariant(args.invariant, state, cfg, _cache=cache)
    except ValueError as exc:
        raise InputError(f"cannot recover from {args.state}: {exc}") from exc
    if args.csv:
        _write_trace_csv(args.csv, cache.get(("trace", args.invariant, None)))
    _emit(rep.as_dict(), args.out)
    return EXIT_OK


def _write_trace_csv(path: str, trace):
    """Per-(frame, setting) estimates of the pipeline's primary observable
    from the run behind the reported estimate; header only for an exact
    recovery, which samples no shots."""
    with open(path, "w") as fh:
        fh.write("unitary_index,setting_index,estimate\n")
        if trace is None:
            return
        for k in range(trace.shape[0]):
            for j in range(trace.shape[1]):
                fh.write(f"{k},{j},{trace[k, j]:.12g}\n")


def _cmd_verify(args) -> int:
    selection = args.claim if args.claim else None
    report = verify.run_suite(selection, seed=args.seed, workers=args.workers)
    for check in report.checks:
        flag = "PASS" if check.passed else "FAIL"
        print(f"[{flag}] {check.claim:28s} max dev {check.max_deviation:.3e} "
              f"(tol {check.tolerance:.1e}, {check.trials} trials, "
              f"{check.seconds:.1f}s)", file=sys.stderr)
    if args.json:
        _emit(report.as_dict(), args.json)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmoments",
        description="Randomized-measurement moments and local-unitary "
                    "invariants for two- and three-qubit states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("state-gen", help="generate a state document")
    p.add_argument("--kind", choices=("pure", "mixed", "bell", "ghz"), default="mixed")
    p.add_argument("--qubits", type=int, choices=(2, 3), default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("bloch", "matrix"), default="bloch")
    p.add_argument("--out", default="")
    p.set_defaults(func=_cmd_state_gen)

    p = sub.add_parser("invariants", help="evaluate local-unitary invariants")
    p.add_argument("--state", required=True)
    p.add_argument("--out", default="")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("classify", help="tensor rank and det prefactor of an observable")
    p.add_argument("--observable", required=True)
    p.add_argument("--rank-tolerance", type=_non_negative_float, default=1e-9)
    p.add_argument("--out", default="")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("twirl", help="exact twirl coefficients and moments")
    p.add_argument("--observable", required=True)
    p.add_argument("--state", default="")
    p.add_argument("--t", type=int, required=True,
                   choices=range(1, symgroup.MAX_MOMENT + 1))
    p.add_argument("--gauge", choices=("minnorm", "reduced"), default="minnorm")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="")
    p.set_defaults(func=_cmd_twirl)

    p = sub.add_parser("mc", help="Monte Carlo moment estimate")
    p.add_argument("--observable", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--t", type=_positive_int, required=True)
    p.add_argument("--samples", type=_positive_int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="")
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("simulate", help="finite-shot invariant recovery")
    p.add_argument("--state", required=True)
    p.add_argument("--invariant", required=True,
                   choices=tuple(protocol_sim.PIPELINES) + ("kempe",))
    p.add_argument("--unitaries", type=_positive_int, default=1000)
    p.add_argument("--shots", type=_positive_int, default=200)
    p.add_argument("--drift", type=_finite_float, default=0.0)
    p.add_argument("--drift-cost", type=_non_negative_int, default=0,
                   help="extra drift ticks charged per setting change")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exact", action="store_true",
                   help="replace shot estimates by exact engine moments")
    p.add_argument("--csv", default="", help="write per-setting estimates to CSV")
    p.add_argument("--out", default="")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="run the numerical verification suite")
    p.add_argument("--claim", action="append", choices=tuple(verify.ALL_CHECKS),
                   help="claim id to run (repeatable; default all)")
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument("--json", default="", help="write the report to a file")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_numbers(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (InputError, OverflowError, twirl.EngineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except DimensionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIMENSION


if __name__ == "__main__":
    sys.exit(main())
