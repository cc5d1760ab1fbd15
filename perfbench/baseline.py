#!/usr/bin/env python3
"""Measure a perfbench baseline and write it to perfbench/baseline.json.

Run from the repository root:

    python3 perfbench/baseline.py [--runs 10] [--workloads a,b] [--out FILE]

Each workload of BENCHMARK.json runs --runs times with seeds 1..runs, as
BENCHMARK.json's command with its run_seconds. The record holds every
end-to-end value, its median and quartiles (statistics.quantiles, n=4),
the spread (Q3 - Q1) / median against the metric's bound, and the host:
logical CPUs and CPU model. Timings mean nothing without the host.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    started = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    elapsed = time.time() - started
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    print(f"{workload} seed {seed}: {elapsed:.1f} s, correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']} "
          + " ".join(f"{k}={v:.5g}" for k, v in values.items()), flush=True)
    return result, elapsed


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="perfbench/baseline.json")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {
        "schema": "perfbench-baseline-v1",
        "host": {
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "machine": platform.machine(),
        },
        "date": time.strftime("%Y-%m-%d", time.gmtime()),
        "run_seconds": bench["run_seconds"],
        "workloads": {},
    }
    ok = True
    for name in names:
        runs = [run_once(bench, name, seed) for seed in range(1, args.runs + 1)]
        metrics = {}
        for metric in bounds:
            values = [r["metrics"][metric]["value"] for r, _ in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med if med else 0.0
            metrics[metric] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "bound": bounds[metric], "values": values,
            }
            steady = spread < bounds[metric] / 3
            ok &= steady
            print(f"  {name} {metric:26s} median {med:<12.6g} spread {spread:.4f} "
                  f"(bound {bounds[metric]}){'' if steady else '  NOT STEADY'}")
        record["workloads"][name] = {
            "seeds": list(range(1, args.runs + 1)),
            "all_correct": all(r["correct"] for r, _ in runs),
            "attempted": sum(r["attempted"] for r, _ in runs),
            "failed": sum(r["failed"] for r, _ in runs),
            "run_wall_s": [round(e, 1) for _, e in runs],
            "metrics": metrics,
        }
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print(f"wrote {args.out}; every spread below a third of its bound: {ok}")


if __name__ == "__main__":
    main()
