"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import sys
import unittest
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import metrics  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from worker import run_pass  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            ["root", 0.0, 10.0, -1],
            ["a", 1.0, 4.0, 0],
            ["leaf", 2.0, 3.0, 1],
            ["b", 3.0, 6.0, 0],      # overlaps a: covered once
            ["c", 9.0, 12.0, 0],     # runs past its parent: clipped
        ]
        got = self_times(spans)
        self.assertEqual(got["root"], (1, 10.0 - (5.0 + 1.0), 10.0))
        self.assertEqual(got["a"], (1, 2.0, 3.0))
        self.assertEqual(got["leaf"], (1, 1.0, 1.0))
        self.assertEqual(got["b"], (1, 3.0, 3.0))
        self.assertEqual(got["c"], (1, 3.0, 3.0))

    def test_repeated_names_sum(self):
        spans = [["f", 0.0, 2.0, -1], ["g", 0.5, 1.0, 0], ["f", 3.0, 4.0, -1]]
        self.assertEqual(self_times(spans)["f"], (2, 1.5 + 1.0, 3.0))

    def test_wrapped_calls_record_parents(self):
        tracer = Tracer(clock=FakeClock())
        inner = tracer.wrap("inner", lambda x: x + 1)
        outer = tracer.wrap("outer", lambda x: inner(x) * 2)
        self.assertEqual(outer(1), 4)
        self.assertEqual([s[0] for s in tracer.spans], ["outer", "inner"])
        self.assertEqual([s[3] for s in tracer.spans], [-1, 0])
        got = self_times(tracer.spans)
        # clock ticks: outer 1..4, inner 2..3
        self.assertEqual(got["outer"], (1, 2.0, 3.0))
        self.assertEqual(got["inner"], (1, 1.0, 1.0))


class InstallTest(unittest.TestCase):
    def test_install_wraps_every_binding_and_restores(self):
        import numpy as np

        import markovlens
        from markovlens import divisibility, superop

        before = (superop.apply, divisibility.apply, markovlens.apply, np.linalg.svd)
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIs(divisibility.apply, superop.apply)
            self.assertIsNot(superop.apply, before[0])
            fam = markovlens.preset_amplitude_damping(g=markovlens.exp_decay(0.5), t_max=1.0)
            markovlens.kernel_basis(fam.evaluate(0.5))
        finally:
            tracer.uninstall()
        self.assertEqual((superop.apply, divisibility.apply, markovlens.apply,
                          np.linalg.svd), before)
        names = [s[0] for s in tracer.spans]
        self.assertEqual(names, ["dynamics.evaluate", "divisibility.kernel_basis",
                                 "linalg.svd"])
        self.assertEqual(tracer.counters["linalg.svd.matrices"], 1)


def _op(name, ok, known=None):
    return workloads.Op(name=name, prepare=lambda: None, call=lambda _: ok,
                        check=lambda out: (out, "ok" if out else "wrong status"),
                        expected="CP_DIVISIBLE", known_failure=known)


def _doc(ops, passes=2):
    return {
        "ops_meta": [{"name": op.name, "expected": op.expected,
                      "known_failure": op.known_failure} for op in ops],
        "passes": [run_pass(ops) for _ in range(passes)],
        "setup_runs_s": [0.5, 0.4, 0.6],
        "setup_speeds": [1.0, 1.0, 1.0],
        "maxrss_kb": 2048,
    }


class FailureCountTest(unittest.TestCase):
    def test_injected_wrong_status_is_counted(self):
        status = SimpleNamespace(value="DIVISIBLE_ONLY")
        ok, detail = workloads.check_verdict(
            "ad_exp", SimpleNamespace(status=status, projectors=()), [])
        self.assertFalse(ok)
        self.assertIn("expected CP_DIVISIBLE", detail)

        ops = [_op("a", True), _op("b", False), _op("c", True), _op("d", True)]
        doc = _doc(ops)
        summary = metrics.summarize(doc)
        self.assertEqual((summary["attempted"], summary["failed"]), (8, 2))
        self.assertEqual(summary["failed_ops"], ["b"])
        self.assertFalse(summary["correct"])
        self.assertEqual(metrics.end_to_end(doc)["ok_ops_frac"], (0.75, "frac"))

    def test_known_failure_keeps_run_correct(self):
        doc = _doc([_op("a", True), _op("b", False, known="documented defect")])
        summary = metrics.summarize(doc)
        self.assertEqual(summary["failed"], 2)
        self.assertTrue(summary["correct"])


class NamesTest(unittest.TestCase):
    def test_metric_names(self):
        names = [n for n, _ in metrics.END_TO_END + metrics.PER_LAYER]
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
            self.assertLessEqual(len(name), 64)
        self.assertEqual(len(names), len(set(names)))

    def test_benchmark_json_matches(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         list(metrics.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         list(metrics.PER_LAYER))
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(workloads.WORKLOAD_NAMES))
        self.assertEqual({w["name"]: w["why"] for w in bench["workloads"]}, workloads.WHY)


if __name__ == "__main__":
    unittest.main()
