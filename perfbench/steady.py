#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread and record the runs behind it.

Run from the repository root:

    python3 perfbench/steady.py --workloads attack_grid,sharded_twl --seeds 1-10

Each workload runs once per seed (untraced). For every end-to-end metric the
script prints the median and the interquartile spread as a share of the
median (statistics.quantiles, n=4), the figure BENCHMARK.json's bounds are
set against, and merges every run, with the host-speed record it printed
(host.ref_ms, host.steal_ticks), into perfbench/runs.json.
"""
import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.time()
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.time() - start
    if p.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{p.stderr}")
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    printed = {}
    for line in lines[:-1]:
        f = line.split()
        if len(f) == 3 and not line.startswith("#"):
            printed[f[0]] = float(f[1])
    return {
        "seed": seed,
        "wall_s": round(wall, 3),
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "host.ref_ms": printed.get("host.ref_ms"),
        "host.steal_ticks": printed.get("host.steal_ticks"),
        "printed": printed,
    }


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", default=os.path.join(HERE, "runs.json"))
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"workloads": {}}
    if os.path.exists(args.out):
        with open(args.out) as f:
            record = json.load(f)
    for w in args.workloads.split(","):
        runs = [run_once(w, s, bench["run_seconds"]) for s in seeds(args.seeds)]
        summary = {}
        for name, bound in bounds.items():
            med, sp = spread([r["metrics"][name] for r in runs])
            summary[name] = {"median": med, "spread": round(sp, 4), "bound": bound}
            flag = "" if sp < bound / 3 else "  <-- above a third of the bound"
            print(f"{w:18} {name:14} median {med:12.5g} spread {sp:7.2%} bound {bound:.2f}{flag}")
        refs = [r["host.ref_ms"] for r in runs if r["host.ref_ms"] is not None]
        if refs:
            print(f"{w:18} host.ref_ms    min {min(refs):.3f} max {max(refs):.3f}")
        record["workloads"][w] = {
            "measured": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
            "run_seconds": bench["run_seconds"],
            "summary": summary,
            "runs": runs,
        }
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
