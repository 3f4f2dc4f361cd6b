"""Benchmark of the stanleydepth engine, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N --seconds S        # every workload, one process each

Run from the root of a source checkout; the package is imported from
`src/` and the shipped examples are read from `data/`.  A run generates
its inputs from the seed, writes them under `.perfbench/`, and then
measures in one process with one client issuing operations in a closed
loop (the next operation starts when the previous one returns).

--trace 0 (end to end, tracing off): the run alternates set-up (import
the package, load every module of the workload, confirm it is
g-determined) and one pass over the workload's operations, until the
next pair would end after --seconds; at least one pass, and at least
three set-ups.  Pass k draws its inputs from the seed string "N/k".  Reported: setup_s (median set-up), solve_s (median pass
time), op_p50_ms and op_p90_ms (per-operation latency over all passes,
nearest rank), peak_rss_mb.  Times are in reference seconds (see
Clock); the wall-clock median goes to stderr.  Failed operations
(raised, hit a budget, or gave an answer the check rejects) are counted
in `failed`.

--trace 1 (per layer): one untraced pass, then a fresh import with every
layer wrapped, set-up and one traced pass, both on the inputs of pass 0.  Reports the per-layer
metrics of tracing.LAYER_METRICS, plus trace.overhead_s (traced minus
untraced pass time), and writes the spans to .perfbench/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Exit code 0 when every answer
was right, 1 when one was wrong, 2 when the program or its data is
missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DATA = os.path.join(ROOT, "data")
OUT = os.path.join(ROOT, ".perfbench")
REQUIRED = [os.path.join(SRC, "stanleydepth", "__init__.py")] + [
    os.path.join(DATA, f) for f in ("m6r9.json", "m6r9_partition.json", "ex36.json", "ex36_dec.json")]

MIN_SETUPS = 3
TAIL_SAMPLES = 10  # a percentile is trusted when at least this many samples lie beyond it
REF_SECONDS = 0.015  # nominal duration of reference_work(), the unit of the reported times

import tracing  # noqa: E402
import workloads  # noqa: E402


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% of the
    samples at or below it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100 * len(ordered))) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie above the nearest-rank q-th percentile."""
    return n - max(1, math.ceil(q / 100 * n))


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def reference_work():
    """Fixed work of the kinds the program does (exact Gaussian elimination
    over Fractions, tuple keys counted in a dict), in code the benchmark
    owns, so that no change to the program changes it."""
    n = 12
    rows = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + 2 * j) % 5) for j in range(n)] for i in range(n)]
    r = 0
    for c in range(n):
        p = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [inv * x for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    counts = {}
    for cell in itertools.product(range(4), repeat=6):
        key = tuple(sorted(cell))
        counts[key] = counts.get(key, 0) + 1
    return r, len(counts)


def reference_time() -> float:
    """Median of three timed runs of reference_work()."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Clock:
    """Converts wall time to reference seconds.

    On a shared host the CPU's speed can drift by a factor of two within
    a minute (measured with reference_work() on a 2-vCPU virtual machine),
    and a run is too short to average that out.  So the reference work is timed before every measured segment,
    between operations at least every SAMPLE_EVERY seconds, and after the
    last one; an operation's wall time is scaled by REF_SECONDS over the
    mean of the samples on either side of it: the time it would take on a
    machine where the reference work takes REF_SECONDS."""

    SAMPLE_EVERY = 0.5

    def __init__(self):
        self.samples: list[float] = []
        self.sample()

    def sample(self) -> None:
        self.samples.append(reference_time())
        self.taken_at = time.perf_counter()

    def due(self) -> bool:
        return time.perf_counter() - self.taken_at >= self.SAMPLE_EVERY

    def factor(self, mark: int) -> float:
        """Scale for a segment that started after sample `mark` and ended
        before sample `mark + 1`."""
        return REF_SECONDS / ((self.samples[mark] + self.samples[mark + 1]) / 2)

    def scaled(self, seconds: float) -> float:
        """Close the segment that started at the latest sample and scale it."""
        self.sample()
        return seconds * self.factor(len(self.samples) - 2)


def fresh_import():
    """Import the package as a new process would, dropping any earlier copy."""
    for name in [m for m in sys.modules if m == "stanleydepth" or m.startswith("stanleydepth.")]:
        del sys.modules[name]
    return importlib.import_module("stanleydepth")


def build_modules(sd, plan) -> dict:
    mods = {}
    for label, path in plan.modules.items():
        gm = sd.modules.load_module_file(path)
        sd.hilbert.require_g_determined(gm)
        mods[label] = gm
    return mods


def timed_setup(plan):
    gc.collect()
    start = time.perf_counter()
    sd = fresh_import()
    mods = build_modules(sd, plan)
    return sd, mods, time.perf_counter() - start


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def fail(self, op, reason: str) -> None:
        self.failed += 1
        print(f"FAIL {op.kind} {op.label}: {reason}", file=sys.stderr)


def run_pass(sd, mods, ops, tally: Tally, clock: Clock, tracer=None):
    """Issue every operation once; return the pass time (sum of the
    operations' scaled latencies) and the scaled latencies.  Answers are
    checked after the pass, outside the timed region."""
    gc.collect()
    latencies, marks, results = [], [], []
    for i, op in enumerate(ops):
        if clock.due():
            clock.sample()
        marks.append(len(clock.samples) - 1)
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            answer, error = op.run(sd, mods), None
        except Exception as exc:  # an operation that raises counts as failed
            answer, error = None, f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.op = None
        results.append((answer, error))
    clock.sample()
    scaled = [x * clock.factor(m) for x, m in zip(latencies, marks)]
    for op, (answer, error) in zip(ops, results):
        tally.attempted += 1
        if error is None:
            try:
                error = op.check(sd, mods, answer)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            tally.fail(op, error)
    return sum(scaled), scaled, sum(latencies)


def measure(make_plan, seconds: float, tally: Tally) -> dict:
    """Each pass gets its own inputs, make_plan(pass number).  Every time
    is in reference seconds (see Clock); the wall-clock median pass time
    goes to stderr."""
    setups, passes, latencies, walls = [], [], [], []
    start = time.perf_counter()
    clock = Clock()
    while True:
        plan = make_plan(len(passes))
        clock.sample()
        sd, mods, setup = timed_setup(plan)
        setups.append(clock.scaled(setup))
        solve, lat, wall = run_pass(sd, mods, plan.ops, tally, clock)
        passes.append(solve)
        walls.append(wall)
        latencies += lat
        if time.perf_counter() - start + setup + wall > seconds:
            break
    while len(setups) < MIN_SETUPS:
        clock.sample()
        setups.append(clock.scaled(timed_setup(plan)[2]))
    lat_ms = [x * 1000 for x in latencies]
    print(f"wall-clock solve time: median {statistics.median(walls):.6g} s over {len(walls)} passes",
          file=sys.stderr)
    return {
        "setup_s": (setups, "s"),
        "solve_s": (passes, "s"),
        "op_p50_ms": ([percentile(lat_ms, 50)], "ms", lat_ms),
        "op_p90_ms": ([percentile(lat_ms, 90)], "ms", lat_ms),
        "peak_rss_mb": ([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024], "MB"),
    }


def measure_traced(plan, tally: Tally, spans_path: str) -> dict:
    sd, mods, _ = timed_setup(plan)
    clock = Clock()
    untraced = run_pass(sd, mods, plan.ops, tally, clock)[0]
    sd = fresh_import()
    tracer = tracing.Tracer()
    tracer.patch(sd)
    try:
        tracer.op = "setup"
        mods = build_modules(sd, plan)
        tracer.op = None
        traced = run_pass(sd, mods, plan.ops, tally, clock, tracer)[0]
    finally:
        tracer.op = None
        tracer.unpatch()
    tracer.write(spans_path)
    metrics = tracing.layer_metrics(tracer.summary())
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    return metrics


def report(workload: str, metrics: dict, tally: Tally, traced: bool) -> dict:
    out = {}
    for name, entry in metrics.items():
        if traced:
            value, unit = entry
            print(f"{workload} {name} {value:.6g} {unit}")
        else:
            values, unit = entry[0], entry[1]
            q1, value, q3 = quartiles(values)
            note = f"median of {len(values)}, quartiles {q1:.6g}..{q3:.6g}"
            if len(entry) > 2:
                n = len(entry[2])
                q = 50 if name == "op_p50_ms" else 90
                beyond = samples_beyond(n, q)
                note = f"over {n} operations, {beyond} beyond it" + (
                    "" if beyond >= TAIL_SAMPLES else f", fewer than {TAIL_SAMPLES}: indicative only")
            print(f"{workload} {name} {value:.6g} {unit} ({note})")
        out[name] = {"value": value, "unit": unit}
    rate = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"{workload} fail_rate {rate:.6g} ratio ({tally.failed} of {tally.attempted} operations)")
    return out


def run_one(args) -> int:
    plan_fn = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        sys.path.insert(0, SRC)
        pins = workloads.load_pins()

        def make_plan(number):
            passdir = os.path.join(workdir, str(number))
            os.makedirs(passdir)
            return plan_fn(f"{args.seed}/{number}", passdir, DATA, pins)

        tally = Tally()
        if args.trace:
            spans = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.jsonl.gz")
            metrics = measure_traced(make_plan(0), tally, spans)
        else:
            metrics = measure(make_plan, args.seconds, tally)
        result = report(args.workload, metrics, tally, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": result}))
    return 0 if correct else 1


def run_all(args) -> int:
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), default=None,
                        help="one workload; omitted, every workload in its own process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in REQUIRED if not os.path.isfile(p)]
    if missing:
        print(f"perfbench: missing {os.path.relpath(missing[0], ROOT)}; run from a "
              "stanleydepth source checkout", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
