#!/usr/bin/env python3
"""Run-to-run steadiness report for the live benchmark.

Runs the benchmark command from BENCHMARK.json several times per workload,
each time with another seed, and reports for every metric the median over
the runs and the interquartile spread (Q3 - Q1, from
statistics.quantiles(values, n=4)) as a share of that median, next to a
third of the metric's bound.

    python3 crates/bench/livebench/steadiness.py [--runs 10] [--trace 0|1]
        [--workload NAME ...] [--seconds S] [--first-seed N]

Run it from the repository root. The report is also written as JSON to
crates/bench/livebench/out/steadiness.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    if p.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["checks_failed"] = [l for l in lines if l.startswith("CHECK FAILED")]
    return result


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--first-seed", type=int, default=1)
    a = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    metrics = spec["end_to_end"] if a.trace == 0 else spec["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    workloads = a.workload or [w["name"] for w in spec["workloads"]]
    seconds = a.seconds or spec["run_seconds"]

    report = {}
    worst = 0.0
    for w in workloads:
        values = {m["name"]: [] for m in metrics}
        failures = 0
        for i in range(a.runs):
            r = run_once(spec["command"], w, a.first_seed + i, seconds, a.trace)
            if not r["correct"] or r["failed"]:
                failures += 1
                print(f"  seed {a.first_seed + i}: incorrect: {r['checks_failed']}")
            for name, v in r["metrics"].items():
                values[name].append(v["value"])
        print(f"== {w}: {a.runs} runs, {failures} incorrect")
        report[w] = {"runs": a.runs, "incorrect": failures, "metrics": {}}
        for name, vs in values.items():
            med, sp = spread(vs)
            bound = bounds[name]
            limit = bound / 3 if bound else None
            flag = ""
            if limit is not None and name != "setup_s":
                worst = max(worst, sp / limit)
                flag = "  OVER" if sp > limit else ""
            lim = f"{limit:.4f}" if limit is not None else "-"
            print(f"  {name:<32} median {med:>14.4f}  spread {sp:.4f}  (bound/3 {lim}){flag}")
            report[w]["metrics"][name] = {"median": med, "spread": sp, "values": vs}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steadiness.json"), "w") as f:
        json.dump(report, f, indent=1)
    if a.trace == 0:
        print(f"worst spread / (bound/3), setup_s excluded: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
