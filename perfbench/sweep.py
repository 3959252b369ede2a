"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 101-110 --out perfbench/out/sweep.json
    python3 perfbench/sweep.py --seeds 101-101 --trace 1 --out perfbench/out/traced.json

It runs every workload of BENCHMARK.json for its ``run_seconds``.  For
each workload and metric it records every value, the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
interquartile distance as a share of the median.  Runs go one at a time,
in workload order, so that they never compete for the CPU.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list) -> dict:
    med = statistics.median(values)
    out = {"values": values, "median": med}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seed_list, required=True, help="e.g. 101-110")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    names = [w["name"] for w in contract["workloads"]]
    seconds = contract["run_seconds"]
    summary = {"seconds": seconds, "trace": args.trace, "seeds": args.seeds, "workloads": {}}
    for name in names:
        metrics, runs = {}, []
        for seed in args.seeds:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, "wall_s": wall, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"]})
            for k, v in result["metrics"].items():
                metrics.setdefault(k, []).append(v["value"])
            print(f"{name} seed {seed}: {wall:.1f} s, failed {result['failed']}/"
                  f"{result['attempted']}", flush=True)
        summary["workloads"][name] = {
            "runs": runs, "metrics": {k: summarise(v) for k, v in metrics.items()}}
        for k, s in summary["workloads"][name]["metrics"].items():
            print(f"  {k:34s} median {s['median']:.6g}  spread {s.get('spread')}")
    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
