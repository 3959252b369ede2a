"""Benchmark entry point.

    python3 perfbench/run.py --workload {deep,fits,recovery,shots} \\
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``.  Every workload runs in fresh interpreters with the
BLAS/OpenMP thread counts pinned to 1.  ``--trace 0`` gives the end-to-end
metrics, ``--trace 1`` the per-layer ones from a separate traced run.  The
last line of standard output is one JSON object; the lines before it list
every metric with its unit and the machine facts, and the full record
(including spans in a traced run) goes to ``perfbench/out/``.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# pinned before numpy is imported anywhere; the worker processes inherit it
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("deep", "fits", "recovery", "shots")
CLI_SAMPLES = 3
CHILD_TIMEOUT_S = 170
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}
# printed and recorded, not declared: on a host whose speed switches between
# two states, a single run's tail quantile jumps between them (README.md)
REPORTED = {"op_tail_ms": "ms", "failed_frac": "ratio"}
PER_LAYER = {
    "cli.cold_start_s": "s",
    "symgroup.gram_matrix.cold_s": "s",
    "twirl.tables.cold_s": "s",
    "protocol_sim.calibrate.cold_s": "s",
    "twirl.build.calls": "count", "twirl.build.self_s": "s", "twirl.build.peak_mb": "MB",
    "twirl.moment.calls": "count", "twirl.moment.self_s": "s",
    "twirl.fit.calls": "count", "twirl.fit.self_s": "s",
    "protocol_sim.recover.calls": "count", "protocol_sim.recover.self_s": "s",
    "protocol_sim.recover_kempe.calls": "count", "protocol_sim.recover_kempe.self_s": "s",
    "protocol_sim.simulate.calls": "count", "protocol_sim.simulate.self_s": "s",
    "protocol_sim.simulate.copies": "count",
    "haar_mc.mc_moment.calls": "count", "haar_mc.mc_moment.self_s": "s",
    "haar_mc.mc_moment.samples": "count",
    "trace.overhead_frac": "ratio", "trace.uncovered_frac": "ratio",
}


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def _worker(mode: str, args) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--size", args.size]
    try:
        proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cli_cold_start() -> float:
    """Median wall time of a fresh ``python -m rmoments.cli --help``."""
    times = []
    for _ in range(CLI_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "rmoments.cli", "--help"], env=_env(),
                              cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"rmoments.cli --help exited {proc.returncode}: {proc.stderr}")
    return statistics.median(times)


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile p among n values, in exact
    integer arithmetic (p has at most one decimal)."""
    return max(1, -(-round(10 * p) * n // 1000))


def nearest_rank(sorted_values, p: float) -> float:
    return sorted_values[_rank(p, len(sorted_values)) - 1]


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten operations beyond it
    (the median when there are too few operations for any)."""
    fits = [p for p in TAIL_LADDER if n - _rank(p, n) >= 10]
    return fits[-1] if fits else 50


def end_to_end(setups, run) -> tuple:
    """The declared metrics, and the tail latency with its percentile."""
    durations = sorted(run["durations"])
    p = tail_percentile(len(durations))
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(durations) / sum(durations),
        "op_p50_ms": 1e3 * nearest_rank(durations, 50),
        "peak_rss_mb": run["peak_rss_mb"],
    }, 1e3 * nearest_rank(durations, p), p


def source_revision() -> dict:
    """Git revision when the checkout is a repository (never searching above
    the checkout), and a digest of src."""
    try:
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
        rev = proc.stdout.strip() if proc.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        rev = None
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {"git": rev, "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a few cheap operations, for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "rmoments", "__init__.py")):
        print(f"no package source at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "revision": source_revision()}
    try:
        if args.trace:
            cli_s = _cli_cold_start()
            run = _worker("trace", args)
            spans_file = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
            with open(spans_file, "w") as fh:
                json.dump(run.pop("spans"), fh)
            metrics = {"cli.cold_start_s": cli_s, **run["layers"]}
            units = PER_LAYER
        else:
            # set-up-only processes before and after the workload process, so
            # that the set-up samples span the whole run, not one stretch of it
            setups = [_worker("setup", args)["setup_s"]]
            run = _worker("run", args)
            setups += [run["setup_s"], _worker("setup", args)["setup_s"]]
            metrics, tail_ms, p = end_to_end(setups, run)
            record.update(setup_samples=setups, op_tail_ms=tail_ms, tail_percentile=p)
            units = END_TO_END
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    n = len(run["durations"])
    attempted, failed = run["attempted"], run["failed"]
    by_class = {}
    for label, dt in zip(run["labels"], run["durations"]):
        by_class.setdefault(label, []).append(dt)
    record.update(
        facts=run["facts"], passes=run["passes"], operations=n, attempted=attempted,
        failed=failed, failures=run["failures"], metrics=metrics,
        class_p50_ms={k: 1e3 * statistics.median(v) for k, v in sorted(by_class.items())},
        operations_ms=[[label, 1e3 * dt] for label, dt in zip(run["labels"], run["durations"])],
    )
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)

    facts = run["facts"]
    blas = facts["blas"] or {}
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"git={record['revision']['git']} src={record['revision']['src_sha256'][:12]}")
    print(f"  nproc={facts['nproc']} affinity={facts['affinity']} python={facts['python']} "
          f"numpy={facts['numpy']} blas={blas.get('name')} {blas.get('version')} "
          f"threads={','.join(f'{k}={v}' for k, v in facts['threads'].items())}")
    for name, value in metrics.items():
        note = ""
        if name == "setup_s":
            note = f"  (median of {len(record['setup_samples'])} fresh processes)"
        elif name == "ops_per_s":
            note = f"  ({n} operations in {run['passes']} passes)"
        print(f"  {name:34s} {value:.6g} {units[name]}{note}")
    if not args.trace:
        print(f"  {'op_tail_ms':34s} {record['op_tail_ms']:.6g} {REPORTED['op_tail_ms']}  "
              f"(p{record['tail_percentile']:g} of {n} operations)")
    print(f"  {'failed_frac':34s} {failed / attempted:.6g} {REPORTED['failed_frac']}  "
          f"({failed} of {attempted})")
    for reason in run["failures"]:
        print(f"  FAILED {reason}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
