"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Covers the self-time arithmetic of the tracer, the percentile rule, the
seeded input generation, and a smoke run of the smallest member of each
workload through the traced path.
"""

from __future__ import annotations

import os
import random
import shutil
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        # root [0, 10] with children [1, 4] and [5, 9]; the second has a child [6, 8].
        spans = [
            ["root", 0.0, 10.0, -1, 0, None],
            ["a", 1.0, 4.0, 0, 0, None],
            ["b", 5.0, 9.0, 0, 0, None],
            ["c", 6.0, 8.0, 2, 0, None],
        ]
        self.assertEqual(tracing.self_times(spans), [3.0, 3.0, 2.0, 2.0])

    def test_recursion_counts_each_level_once(self):
        # power_map calling itself: f [0, 8] > f [1, 6] > f [2, 3]
        spans = [["f", 0.0, 8.0, -1, 0, None], ["f", 1.0, 6.0, 0, 0, None], ["f", 2.0, 3.0, 1, 0, None]]
        summary = tracing.summarize(spans)
        self.assertEqual(summary["f"]["calls"], 3)
        self.assertEqual(summary["f"]["self_s"], 8.0)

    def test_generator_steps_and_refutation(self):
        tracer = tracing.Tracer()

        def gen(k):
            yield from range(k)

        wrapped = tracer._wrap(tracing.GENERATOR_SPAN, gen)
        tracer.op = 0
        self.assertEqual(list(wrapped(2)), [0, 1])
        self.assertEqual(list(wrapped(0)), [])
        summary = tracer.summary()
        self.assertEqual(summary[tracing.GENERATOR_SPAN]["calls"], 2)  # partitions yielded
        self.assertEqual(summary["hilbert.refute"]["calls"], 1)  # one level yielded nothing

    def test_untraced_outside_operations(self):
        tracer = tracing.Tracer()
        wrapped = tracer._wrap("x.f", lambda v: v + 1)
        self.assertEqual(wrapped(1), 2)
        self.assertEqual(tracer.spans, [])


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(run.percentile(values, 50), 50)
        self.assertEqual(run.percentile(values, 90), 90)
        self.assertEqual(run.percentile([7.0], 90), 7.0)

    def test_p90_needs_a_hundred_samples_for_ten_beyond(self):
        self.assertEqual(run.samples_beyond(100, 90), run.TAIL_SAMPLES)
        self.assertLess(run.samples_beyond(99, 90), run.TAIL_SAMPLES)
        self.assertGreaterEqual(run.samples_beyond(20, 50), run.TAIL_SAMPLES)


class Inputs(unittest.TestCase):
    def test_same_seed_same_partitions(self):
        universe = workloads.load_pins()["universes"]["ex36-d1"]
        series = inputs.series_from_pin(universe["series"])
        keys = set(universe["keys"].split())
        first = inputs.sample_partitions(series, universe["g"], 1, 20, random.Random(3))
        again = inputs.sample_partitions(series, universe["g"], 1, 20, random.Random(3))
        self.assertEqual(first, again)
        self.assertEqual(len({inputs.partition_key(p) for p in first}), 20)
        self.assertTrue(all(inputs.partition_key(p) in keys for p in first))

    def test_permutation_is_a_relabelling(self):
        obj = {"intervals": [{"a": [0, 0, 1], "b": [1, 0, 1], "mult": 2}]}
        self.assertEqual(inputs.permute_partition(obj, [2, 0, 1]),
                         {"intervals": [{"a": [1, 0, 0], "b": [1, 1, 0], "mult": 2}]})


def smallest(plan, label_prefixes):
    """Keep only the modules and operations of the smallest members."""
    ops = [op for op in plan.ops if op.label.startswith(label_prefixes)]
    keep = {op.label.split(":")[0] for op in ops}
    return workloads.Plan({k: v for k, v in plan.modules.items() if k in keep}, ops[:4])


SMALLEST = {
    "m6r9-check": None,  # a single 13 s operation; covered by the traced layer checks below
    "depth-search": ("m4",),
    "finite-field-certify": ("ex36/F2",),
    "polytope-roundtrip": ("m3+m3+R", "m4:hilbert"),
}


class Smoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.makedirs(run.OUT, exist_ok=True)
        cls.workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
        sys.path.insert(0, run.SRC)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir, ignore_errors=True)

    def test_smallest_member_of_each_workload(self):
        pins = workloads.load_pins()
        for name, prefixes in SMALLEST.items():
            with self.subTest(workload=name):
                workdir = os.path.join(self.workdir, name)
                os.makedirs(workdir)
                plan = workloads.WORKLOADS[name](1, workdir, run.DATA, pins)
                if prefixes is None:
                    self.assertEqual([op.kind for op in plan.ops], ["check"])
                    continue
                plan = smallest(plan, prefixes)
                self.assertTrue(plan.ops)
                tally = run.Tally()
                spans = os.path.join(workdir, "spans.jsonl.gz")
                metrics = run.measure_traced(plan, tally, spans)
                self.assertEqual(tally.failed, 0)
                self.assertEqual(set(metrics) - {"trace.spans"},
                                 set(tracing.LAYER_METRICS) | {"trace.overhead_s"})
                self.assertTrue(os.path.getsize(spans) > 0)
                if name == "finite-field-certify":
                    self.assertEqual(metrics["transversal.calls"][0], 0)
                if name == "polytope-roundtrip":
                    self.assertGreater(metrics["polytope.rows"][0], 0)

    def test_wrong_answer_is_counted(self):
        pins = workloads.load_pins()
        workdir = os.path.join(self.workdir, "wrong")
        os.makedirs(workdir)
        plan = smallest(workloads.WORKLOADS["depth-search"](1, workdir, run.DATA, pins), ("m4",))
        plan.ops[0] = workloads.op_hdepth("m4", 3)  # hdepth(m_4) is 2
        tally = run.Tally()
        sd, mods, _ = run.timed_setup(plan)
        run.run_pass(sd, mods, plan.ops, tally, run.Clock())
        self.assertEqual(tally.failed, 1)


if __name__ == "__main__":
    unittest.main()
