#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload ckpt_serial --seeds 1-10 --seconds 45 [--trace 0|1]
    python3 perfbench/spread.py --files .bench_out/runs/ckpt_serial-*.out

For every metric it prints the median of the runs, the quartiles as
statistics.quantiles(values, n=4) gives them, and the interquartile
distance as a share of the median. Run from the repository root; each
run's full output is kept under .bench_out/runs/.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

COMMAND = ["cargo", "run", "--release", "--offline", "--quiet",
           "--manifest-path", "perfbench/Cargo.toml", "--"]


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def result_of(text):
    lines = [l for l in text.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def summarize(results):
    by_metric = {}
    for r in results:
        for name, m in r["metrics"].items():
            by_metric.setdefault(name, (m["unit"], []))[1].append(m["value"])
    rows = {}
    for name, (unit, values) in by_metric.items():
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / abs(med) if med else 0.0
        rows[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                      "spread": spread, "runs": len(values)}
    return rows


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="45")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--files", nargs="*")
    args = ap.parse_args()

    results = []
    if args.files:
        for path in args.files:
            with open(path) as f:
                results.append(result_of(f.read()))
    else:
        os.makedirs(".bench_out/runs", exist_ok=True)
        for seed in seeds(args.seeds):
            cmd = COMMAND + ["--workload", args.workload, "--seed", str(seed),
                             "--seconds", args.seconds, "--trace", args.trace]
            run = subprocess.run(cmd, capture_output=True, text=True)
            out = f".bench_out/runs/{args.workload}-seed{seed}-trace{args.trace}.out"
            with open(out, "w") as f:
                f.write(run.stdout)
            r = result_of(run.stdout)
            if run.returncode != 0 or not r or not r["correct"]:
                print(f"seed {seed}: exit {run.returncode}\n{run.stderr}", file=sys.stderr)
                sys.exit(1)
            results.append(r)
    print(json.dumps(summarize(results), indent=1))


if __name__ == "__main__":
    main()
