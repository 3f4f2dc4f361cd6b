"""Run-to-run spread of the end-to-end metrics, and the baseline record.

    python3 perfbench/spread.py [--workload NAME ...] [--seeds 10] [--first-seed 1]
                                [--baseline perfbench/BASELINE.json]

Runs run.py once per seed and workload (by default the workloads of
BENCHMARK.json; tracing off, run length from BENCHMARK.json), then prints for every metric the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median next to the
metric's bound.  With --baseline it also makes one traced run per workload
(the first seed, twice, to confirm that the counts repeat) and writes the
record: end-to-end medians and quartiles, per-layer numbers, and the map
from each layer metric to the end-to-end metric it should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402


def bench_config() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: wrong answers\n{proc.stderr}")
    return result, elapsed


def summarize(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values), "spread": (q3 - q1) / med}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--baseline", default=None, help="write the baseline record here")
    args = parser.parse_args()
    config = bench_config()
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    names = args.workload or [w["name"] for w in config["workloads"]]
    record = {"workloads": {}, "traced": {}}
    for workload in names:
        values: dict[str, list] = {}
        elapsed = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result, took = run_once(workload, seed, config["run_seconds"], 0)
            elapsed.append(took)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary = {name: summarize(v) for name, v in values.items()}
        summary["run_wall_s"] = summarize(elapsed)
        record["workloads"][workload] = summary
        for name, s in summary.items():
            bound = bounds.get(name)
            verdict = "" if bound is None else (
                "steady" if s["spread"] < bound / 3 else "WITHIN BOUND" if s["spread"] <= bound else "TOO WIDE")
            print(f"{workload:22s} {name:12s} median {s['median']:.5g} q1 {s['q1']:.5g} q3 {s['q3']:.5g} "
                  f"spread {s['spread']:.3f}" + (f" bound {bound} {verdict}" if bound else ""), flush=True)
        if args.baseline:
            first, _ = run_once(workload, args.first_seed, config["run_seconds"], 1)
            second, _ = run_once(workload, args.first_seed, config["run_seconds"], 1)
            counts = [n for n, m in first["metrics"].items() if m["unit"] in ("count", "bytes")]
            record["traced"][workload] = {
                "seed": args.first_seed,
                "counts_repeat": all(first["metrics"][n] == second["metrics"][n] for n in counts),
                "metrics": {n: m["value"] for n, m in first["metrics"].items()},
            }
    if args.baseline:
        record["moves"] = tracing.MOVES
        record["machine"] = {"python": platform.python_version(), "cpus": os.cpu_count(),
                             "arch": platform.machine()}
        record["run_seconds"] = config["run_seconds"]
        record["seeds"] = [args.first_seed, args.first_seed + args.seeds - 1]
        if os.path.exists(args.baseline):  # hand-written notes survive a re-run
            with open(args.baseline, encoding="utf-8") as fh:
                record["notes"] = json.load(fh).get("notes", [])
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
