"""Checks of the benchmark's own arithmetic; no daemon is started.

Run from the repository root with either of::

    python3 perfbench/selftest.py
    PYTHONPATH=src python -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from harness import run_job                                  # noqa: E402
from repro.service import ServiceError                       # noqa: E402
from repro.sweep import SweepSpec                            # noqa: E402
from stats import (busy_times, failed_ratio,                 # noqa: E402
                   reportable_percentile, self_times)
from tracing import LAYER_METRICS, Tracer                    # noqa: E402
from workloads import WORKLOADS                              # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond(self):
        values = [float(v) for v in range(1, 101)]
        self.assertEqual(reportable_percentile(values, 90), 90.0)
        self.assertIsNone(reportable_percentile(values[:99], 90))
        self.assertIsNone(reportable_percentile(values[:10], 90))

    def test_median_rank_with_few_samples(self):
        self.assertEqual(reportable_percentile([3.0] * 20 + [1.0], 50), 3.0)
        self.assertIsNone(reportable_percentile([], 50))


class SelfTime(unittest.TestCase):
    def test_publish_nested_in_run_is_subtracted(self):
        spans = [(1, "sim.run", 0.0, 10.0),
                 (1, "physics_store.store", 2.0, 5.0)]
        seconds, per_thread, misnested = self_times(spans, 0.0, 12.0)
        self.assertAlmostEqual(seconds["sim.run"], 7.0)
        self.assertAlmostEqual(seconds["physics_store.store"], 3.0)
        self.assertAlmostEqual(per_thread[1], 10.0)
        self.assertEqual(misnested, 0)
        self.assertAlmostEqual(busy_times(spans, 0.0, 12.0)[1], 10.0)

    def test_only_direct_children_are_subtracted(self):
        spans = [(1, "sim.run", 0.0, 10.0),
                 (1, "physics_store.store", 2.0, 6.0),
                 (1, "physics_store.load", 3.0, 4.0)]
        seconds, _, _ = self_times(spans, 0.0, 10.0)
        self.assertAlmostEqual(seconds["sim.run"], 6.0)
        self.assertAlmostEqual(seconds["physics_store.store"], 3.0)
        self.assertAlmostEqual(seconds["physics_store.load"], 1.0)

    def test_threads_keep_their_own_self_time(self):
        spans = [(1, "sim.run", 0.0, 10.0),
                 (1, "physics_store.store", 2.0, 5.0),
                 (2, "records.scan", 4.0, 6.0)]
        seconds, per_thread, _ = self_times(spans, 0.0, 12.0)
        self.assertAlmostEqual(seconds["sim.run"], 7.0)
        self.assertAlmostEqual(seconds["records.scan"], 2.0)
        self.assertEqual(per_thread, {1: 10.0, 2: 2.0})

    def test_idle_wait_is_nobodys_time(self):
        spans = [(1, "api.handle", 0.0, 10.0), (1, None, 1.0, 9.0),
                 (1, "records.scan", 9.0, 9.5)]
        seconds, per_thread, _ = self_times(spans, 0.0, 10.0)
        self.assertAlmostEqual(seconds["api.handle"], 1.5)
        self.assertAlmostEqual(seconds["records.scan"], 0.5)
        self.assertAlmostEqual(per_thread[1], 2.0)
        self.assertAlmostEqual(busy_times(spans, 0.0, 10.0)[1], 2.0)

    def test_a_span_outliving_its_parent_is_a_fault(self):
        spans = [(1, "daemon.submit", 0.0, 2.0),
                 (1, "journal.append", 1.0, 3.0)]
        _, per_thread, misnested = self_times(spans, 0.0, 4.0)
        self.assertEqual(misnested, 1)
        self.assertNotAlmostEqual(per_thread[1],
                                  busy_times(spans, 0.0, 4.0)[1])

    def test_work_outliving_the_window_shows(self):
        spans = [(1, "records.seal", 1.0, 3.0), (1, "api.handle", -1.0, 0.5)]
        _, per_thread, _ = self_times(spans, 0.0, 2.0)
        self.assertAlmostEqual(per_thread[1], 2.0)
        self.assertAlmostEqual(busy_times(spans, 0.0, 2.0)[1], 1.0)


class Reconcile(unittest.TestCase):
    def test_job_thread_self_times_add_up_to_wall(self):
        tracer = Tracer()
        tracer.spans.extend([
            (7, "runner.prepare", 1.0, 2.0), (7, "sim.run", 2.0, 6.0),
            (7, "physics_store.store", 3.0, 4.0),
            (8, "api.handle", 0.5, 5.0), (8, None, 1.0, 4.5)])
        metrics = tracer.layer_metrics(
            0.0, 8.0, {"hits": 0, "misses": 0, "bytes": 0}, 0)
        self.assertEqual(tracer.reconcile(0.0, 8.0), [])
        self.assertAlmostEqual(metrics["trace.job_thread_s"], 5.0)
        self.assertAlmostEqual(metrics["trace.unattributed_s"], 3.0)
        self.assertAlmostEqual(metrics["sim.run_s"], 3.0)
        self.assertAlmostEqual(metrics["api.handle_s"], 1.0)

    def test_a_tracing_fault_is_reported(self):
        tracer = Tracer()
        tracer.spans.extend([(7, "runner.prepare", 1.0, 2.0),
                             (7, "sim.run", 1.5, 9.0)])
        self.assertTrue(tracer.reconcile(0.0, 8.0))
        self.assertTrue(Tracer().reconcile(0.0, 8.0))


class _FakeClient:
    """The client surface :func:`run_job` uses, with scripted answers."""

    def __init__(self, refuse: bool = False, state: str = "done") -> None:
        self.refuse = refuse
        self.state = state

    def submit(self, spec):
        if self.refuse:
            raise ServiceError(429, {"error": "queue full",
                                     "retry_after": 1.0})
        return {"job_id": "job-1"}

    def records(self, job_id, **query):
        return {"count": 1, "seq": 1, "resting": True}

    def result(self, job_id):
        return {"state": self.state, "n_failed": 0, "records": []}


class FailedRatio(unittest.TestCase):
    def test_refused_and_unfinished_jobs_count(self):
        spec = SweepSpec(name="tiny")
        done = run_job(_FakeClient(), spec)
        refused = run_job(_FakeClient(refuse=True), spec)
        unfinished = run_job(_FakeClient(state="failed"), spec)
        self.assertFalse(done.failed)
        self.assertTrue(refused.failed)
        self.assertIsNone(refused.job_s)
        self.assertTrue(unfinished.failed)
        self.assertAlmostEqual(
            failed_ratio(o.failed for o in (done, refused, unfinished)),
            2 / 3)

    def test_no_attempts_is_an_error(self):
        with self.assertRaises(ValueError):
            failed_ratio([])


class Catalogue(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            declared = json.load(handle)
        self.assertEqual([m["name"] for m in declared["per_layer"]],
                         [name for name, *_ in LAYER_METRICS])
        self.assertEqual([w["name"] for w in declared["workloads"]],
                         list(WORKLOADS))

    def test_every_layer_metric_is_computed(self):
        metrics = Tracer().layer_metrics(
            0.0, 1.0, {"hits": 0, "misses": 0, "bytes": 0}, 0)
        self.assertEqual(set(metrics) | {"trace.overhead_s"},
                         {name for name, *_ in LAYER_METRICS})
        self.assertEqual(metrics["trace.unattributed_s"], 1.0)
        self.assertEqual(metrics["trace.job_thread_s"], 0.0)


if __name__ == "__main__":
    unittest.main()
