"""One benchmark process: set-up, then optionally the timed phase and the
output checks.  Started by run.py in a fresh interpreter, with BLAS threads
pinned and ``src`` on PYTHONPATH; prints one JSON object as its last line.

Modes:
  setup  import the package and warm the workload's caches, report the time;
  run    set-up, untraced timed phase, checks;
  trace  traced set-up, then each pass untraced and traced in turn on the
         same inputs, an untimed tracemalloc pass over the table builds,
         checks; the spans go out with the result.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from run import THREAD_VARS  # noqa: E402  (pins the threads again; stdlib only)
from spans import Tracer, call_counts, durations, self_times  # noqa: E402  (stdlib only)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


def run_pass(wl, seed: int, index: int, tr) -> list:
    """Pass ``index`` of the workload; inputs are made before it, outside the
    operation timers.  Returns [(op, output, error, seconds)]."""
    from workloads import execute, make_pass

    done = []
    for i, op in enumerate(make_pass(wl, seed, index)):
        tr.op_id = f"{index}.{i}"
        out = err = None
        t0 = time.perf_counter()
        with tr.span("op"):
            try:
                out = execute(op, tr)
            except Exception as exc:  # a raising operation is a failed one
                err = f"raised {exc!r}"
        done.append((op, out, err, time.perf_counter() - t0))
    return done


def timed_phase(wl, seed: int, seconds: float, traced=None):
    """Whole passes, at least one, until the summed untraced operation time
    reaches ``seconds``.  With a ``traced`` tracer each pass runs again,
    traced, on the same inputs right after, so that drift in the host's
    speed cancels out of the traced-over-untraced ratio.  Returns
    (untraced operations, traced operations, passes)."""
    untraced, done_traced, index = [], [], 0
    while index == 0 or sum(d[3] for d in untraced) < seconds:
        untraced += run_pass(wl, seed, index, Tracer(False))
        if traced is not None:
            done_traced += run_pass(wl, seed, index, traced)
        index += 1
    return untraced, done_traced, index


def check_all(done) -> list:
    """One entry per operation: None if its output passed, else the reason."""
    from workloads import check, reference

    reasons = []
    for op, out, err, _ in done:
        if err is None:
            try:
                err = check(op, out, reference(op))
            except Exception as exc:
                err = f"check raised {exc!r}"
        reasons.append(None if err is None else f"{op.label}: {err}")
    return reasons


def _facts() -> dict:
    import numpy as np

    blas = None
    try:
        build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: build.get(k) for k in ("name", "version", "openblas configuration")}
    except Exception:  # older numpy: no dict mode
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def _layer_metrics(setup_spans, spans, counts, untraced_s, traced_s, peak_mb) -> dict:
    cold = durations(setup_spans)
    own = self_times(spans)
    calls = call_counts(spans)
    out = {
        "symgroup.gram_matrix.cold_s": cold["symgroup.gram_matrix"],
        "twirl.tables.cold_s": cold["twirl.tables"],
        "protocol_sim.calibrate.cold_s": cold["protocol_sim.calibrate"],
        "twirl.build.peak_mb": peak_mb,
    }
    for layer in ("twirl.build", "twirl.moment", "twirl.fit", "protocol_sim.recover",
                  "protocol_sim.recover_kempe", "protocol_sim.simulate", "haar_mc.mc_moment"):
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = own[layer]
    out["protocol_sim.simulate.copies"] = counts.get("protocol_sim.simulate.copies", 0)
    out["haar_mc.mc_moment.samples"] = counts.get("haar_mc.mc_moment.samples", 0)
    out["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    # time inside operation spans that no layer span covers: benchmark glue
    out["trace.uncovered_frac"] = own["op"] / traced_s
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--size", default="full")
    args = ap.parse_args(argv)

    setup_tr = Tracer(args.mode == "trace")
    import rmoments
    import workloads

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if os.path.commonpath([os.path.abspath(rmoments.__file__), src]) != src:
        print(f"rmoments imported from {rmoments.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.size][args.workload]
    workloads.warm(wl, setup_tr)
    setup_s = time.perf_counter() - _T0
    result = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    tr = Tracer(True) if args.mode == "trace" else None
    untraced, traced, passes = timed_phase(wl, args.seed, args.seconds, tr)
    peak_rss_mb = _peak_rss_mb()
    if tr is not None:
        peak_mb = workloads.build_peak_mb(workloads.make_pass(wl, args.seed, 0))
        result["layers"] = _layer_metrics(
            setup_tr.spans, tr.spans, tr.counts,
            sum(d[3] for d in untraced), sum(d[3] for d in traced), peak_mb)
        result["spans"] = {"setup": setup_tr.spans, "timed": tr.spans}
    done = untraced + traced
    reasons = check_all(done)
    result.update({
        "passes": passes,
        "durations": [d[3] for d in untraced],
        "labels": [d[0].label for d in untraced],
        "attempted": len(done),
        "failed": sum(r is not None for r in reasons),
        "failures": [r for r in reasons if r is not None][:10],
        "peak_rss_mb": peak_rss_mb,
        "facts": _facts(),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
