#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and summarise its spread.

Run from the repository root::

    python3 perfbench/steadiness.py --seeds 101-110 --seconds 10 \\
        --out perfbench/steadiness.json query_100k ingest_100k

Each run is one ``perfbench/run.py --trace 0`` subprocess.  For every
workload and end-to-end metric it records the ten values, their median and
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    started = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{done.stdout}\n{done.stderr}")
    result = json.loads(lines[-1])
    host = next(json.loads(line[len("host-json "):]) for line in lines
                if line.startswith("host-json "))
    return {"seed": seed, "wall_s": wall, "host": host, **result}


def summarise(runs, bounds) -> dict:
    summary = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "bound": bounds.get(name),
            "values": values,
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="+")
    parser.add_argument("--seeds", default="101-110")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    report = {"seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            run = run_once(workload, seed, seconds)
            runs.append(run)
            print(f"{workload} seed {seed}: wall {run['wall_s']:.1f} s, correct {run['correct']}, "
                  f"load {run['host']['loadavg']['1m']}", flush=True)
        summary = summarise(runs, bounds)
        report["workloads"][workload] = {
            "correct": all(run["correct"] for run in runs),
            "max_wall_s": max(run["wall_s"] for run in runs),
            "loaded_runs": sum(run["host"]["loaded"] for run in runs),
            "metrics": summary,
        }
        for name, stats in summary.items():
            flag = ""
            if stats["bound"] and name != "setup_s" and stats["spread"] > stats["bound"] / 3:
                flag = "  <-- above a third of its bound"
            print(f"  {name:12s} median {stats['median']:.4g} {stats['unit']:5s} "
                  f"spread {stats['spread']:.4f} (bound {stats['bound']}){flag}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
