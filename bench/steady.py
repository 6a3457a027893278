#!/usr/bin/env python3
"""Steadiness check: run every workload several times, one seed each.

    python3 bench/steady.py --runs 10

Runs bench/run.py once per workload in BENCHMARK.json and seed 1..runs,
for BENCHMARK.json's run_seconds, one process at a time, and prints for
each workload and end-to-end metric the median, the quartiles (as
statistics.quantiles(values, n=4) gives them), the spread (quartile
distance over the median) and the metric's bound. A metric whose spread
exceeds its bound is flagged. Every result line is
also written to .bench_out/steady.json. Exits 1 when a run was incorrect
or a metric was flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    results: dict[str, list[dict]] = {}
    ok = True
    for name in (w["name"] for w in spec["workloads"]):
        results[name] = []
        for seed in range(1, args.runs + 1):
            command = [
                sys.executable, str(BENCH / "run.py"), "--workload", name,
                "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                print(f"{name} seed {seed}: exit status {done.returncode}")
                ok = False
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            results[name].append(result)
            ok &= result["correct"]
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)

    out = ROOT / ".bench_out" / "steady.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n")

    print(f"\n{'workload':<20} {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name, runs in results.items():
        if len(runs) < 2:
            continue
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(median)
            flag = ""
            if spread > metric["bound"]:
                flag = "EXCEEDS BOUND"
                ok = False
            elif spread > metric["bound"] / 3:
                flag = "above a third of the bound"
            print(f"{name:<20} {metric['name']:<18} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f} {metric['bound']:>6} {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
