"""Run the benchmark several times and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workload verify-all --seeds 1-10 [--trace 0] [--seconds 10]

For every metric it prints the median, the quartiles (run.summary) and the distance between the quartiles as a share of the median,
next to the bound in BENCHMARK.json, and the same for the raw (unscaled)
times from the stamp line.  Add --json FILE to keep the runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import run

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default=None)
    parser.add_argument("--trace", default="0")
    parser.add_argument("--json", default=None)
    args = parser.parse_args()
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = args.seconds or str(bench["run_seconds"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in _seeds(args.seeds):
        start = time.perf_counter()
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", seconds, "--trace", args.trace],
            capture_output=True, text=True, check=True).stdout
        *_, stamp, last = out.strip().splitlines()
        result = json.loads(last)
        result["seed"], result["run_s"] = seed, time.perf_counter() - start
        for name, value in json.loads(stamp).items():
            if name.startswith("raw_") or name == "probe_s":
                result["metrics"]["(diagnostic) " + name] = {"value": value}
        runs.append(result)
        print("seed %d: %.1f s correct=%s attempted=%d failed=%d" % (
            seed, result["run_s"], result["correct"], result["attempted"], result["failed"]),
            flush=True)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(runs, fh, indent=1)
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        if any(v is None for v in values):
            print("%-36s absent" % name)
            continue
        stats = run.summary(values)
        med, q1, q3 = stats["median"], stats["q1"], stats["q3"]
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        print("%-36s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f%s" % (
            name, med, q1, q3, spread, "" if bound is None else "  bound %.2f" % bound))
    print("run seconds: median %.1f, max %.1f" % (
        statistics.median(r["run_s"] for r in runs), max(r["run_s"] for r in runs)))
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
