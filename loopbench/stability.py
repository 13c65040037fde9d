#!/usr/bin/env python3
"""Run the benchmark N times per workload and report how steady it is.

For each workload this runs BENCHMARK.json's command N times with
seeds S, S+1, ..., S+N-1 and --trace 0, then once more with seed S and
--trace 1. It prints each end-to-end metric's median, quartiles and
spread (quartile distance over the median, as statistics.quantiles gives
the quartiles) and flags a metric whose spread exceeds its bound. It
asserts that every run passed its outcome checks, and that every work
count of the traced run equals the untraced run's at the same seed, and
that every result line holds exactly the manifest's metrics, in their
units, as numbers a double holds exactly.
Finally it prints the traced run's per-layer breakdown and the tracing
overhead against the untraced runs' median.

    python3 loopbench/stability.py [--runs N] [--seed S] [--workloads a,b]

Run from anywhere; commands run from the repository root. Builds go to
$CARGO_TARGET_DIR, or .bench_build when it is unset. Exits 1 if any check
or bound fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    prefixed = {l.split(" ", 1)[0]: l.split(" ", 1)[1] for l in lines[:-1]
                if l.startswith(("counts ", "meta "))}
    return (json.loads(lines[-1]), json.loads(prefixed["counts"]),
            json.loads(prefixed["meta"]))


def line_problems(bench, res, trace):
    """What the result line gets wrong against the manifest, if anything."""
    out = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        out.append(f"result keys {sorted(res)}")
    want = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = res.get("metrics", {})
    if set(got) != set(want):
        out.append(f"metrics differ from the manifest: {sorted(set(got) ^ set(want))}")
    for name, m in got.items():
        v = m.get("value")
        if m.get("unit") != want.get(name, m.get("unit")):
            out.append(f"{name}: unit {m.get('unit')!r}, manifest {want[name]!r}")
        if type(v) not in (int, float) or not abs(v) <= 2 ** 53:
            out.append(f"{name}: value {v!r} is not a number within ±2^53")
    return out


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workloads", help="comma-separated subset")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]
    problems = []

    for w in names:
        print(f"== {w}: {args.runs} runs, seeds {args.seed}..{args.seed + args.runs - 1}")
        values = {m["name"]: [] for m in bench["end_to_end"]}
        first_counts = None
        for i in range(args.runs):
            seed = args.seed + i
            res, counts, meta = run_once(bench, w, seed, 0)
            if i == 0:
                first_counts = counts
            if not res["correct"] or res["failed"]:
                problems.append(f"{w} seed {seed}: {res['failed']}/{res['attempted']} loops failed")
            problems += [f"{w} seed {seed}: {p}" for p in line_problems(bench, res, 0)]
            for name in values:
                values[name].append(res["metrics"][name]["value"])
            print(f"  seed {seed}: " + "  ".join(
                f"{k}={v['value']:.6g}" for k, v in res["metrics"].items())
                + f"  steal={meta['steal_share']} load1={meta['loadavg'][0]}"
                + f" fan_out_min_cost={meta['fan_out_min_cost']}")
        print(f"  {'metric':<22}{'unit':>6}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}")
        for m in bench["end_to_end"]:
            q1, med, q3, s = spread(values[m["name"]])
            flag = "  EXCEEDS BOUND" if s > m["bound"] else ""
            if flag:
                problems.append(f"{w} {m['name']}: spread {s:.3f} > bound {m['bound']}")
            print(f"  {m['name']:<22}{m['unit']:>6}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{s:>9.3f}{m['bound']:>7}{flag}")

        traced, tcounts, tmeta = run_once(bench, w, args.seed, 1)
        if not traced["correct"] or traced["failed"]:
            problems.append(f"{w} traced seed {args.seed}: loops failed")
        problems += [f"{w} traced seed {args.seed}: {p}" for p in line_problems(bench, traced, 1)]
        if tcounts != first_counts:
            diff = {k: (first_counts.get(k), v) for k, v in tcounts.items()
                    if first_counts.get(k) != v}
            problems.append(f"{w} seed {args.seed}: work counts differ between runs: {diff}")
        else:
            print(f"  work counts repeat exactly across the two seed-{args.seed} runs")
        layers = traced["metrics"]
        wall = layers["loop.wall_s"]["value"]
        print(f"  traced per-layer breakdown (seed {args.seed}):")
        for name, m in layers.items():
            share = (f"{100 * m['value'] / wall:6.1f}% of loop wall"
                     if m["unit"] == "s" and wall and not name.endswith("new_s")
                     and name != "experiment.build_s" else "")
            print(f"    {name:<30}{m['value']:>22.6f} {m['unit']:<6}{share}")
        untraced = statistics.median(values["machine_epochs_per_s"])
        t = layers["traced.machine_epochs_per_s"]["value"]
        if t:
            print(f"  tracing overhead: {100 * (untraced / t - 1):+.1f}% ({untraced:.6g} untraced median "
                  f"vs {t:.6g} traced machine-epochs/s, traced-run steal {tmeta['steal_share']})")

    for p in problems:
        print("FAIL:", p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
