"""Layer tracing from outside the program.

:class:`Tracer` wraps each layer's public entry point where its caller looks
it up (a module global such as ``repro.sweep.runner.build_compiled_workload``,
or a method on its class), records one span per call, and restores the
originals on :meth:`Tracer.uninstall`.  The program itself is not edited.

Per-layer numbers are self times: a span's duration minus the durations of
the spans nested in it, summed over every thread (see
:func:`stats.self_times`).  Layers on the HTTP threads run beside the jobs,
so the per-layer seconds of a phase can add up to more than its wall time.
The wall time is reconciled on the thread that runs the jobs: its layer
self times plus ``trace.unattributed_s`` add up to ``trace.wall_s``.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

from stats import Span, busy_times, self_times

#: Per-layer metrics: name, unit, better, and the end-to-end metric (and
#: workload) the layer should move.  ``BENCHMARK.json`` lists the same names.
LAYER_METRICS: List[Tuple[str, str, str, str]] = [
    ("builders.build_s", "s", "lower", "job_s, first_record_s on model_cold"),
    ("builders.calls", "count", "lower", "job_s, first_record_s on model_cold"),
    ("sim.run_s", "s", "lower", "job_s, runs_per_s on model_cold"),
    ("sim.runs", "count", "higher", "job_s, runs_per_s on model_cold"),
    ("level_cache.hits", "count", "higher", "job_s, peak_rss_mb on model_cold"),
    ("level_cache.misses", "count", "lower", "job_s, peak_rss_mb on model_cold"),
    ("level_cache.hit_ratio", "ratio", "higher", "job_s, peak_rss_mb on model_cold"),
    ("level_cache.bytes", "bytes", "lower", "job_s, peak_rss_mb on model_cold"),
    ("physics_store.store_s", "s", "lower", "job_s on all; state_dir_mb; first_record_s on churn"),
    ("physics_store.stores", "count", "lower", "job_s on all; state_dir_mb; first_record_s on churn"),
    ("physics_store.load_s", "s", "lower", "job_s on all; state_dir_mb; first_record_s on churn"),
    ("physics_store.load_hits", "count", "higher", "job_s on all; state_dir_mb; first_record_s on churn"),
    ("physics_store.bytes", "bytes", "lower", "job_s on all; state_dir_mb; first_record_s on churn"),
    ("records.open_s", "s", "lower", "job_s, first_record_s on churn"),
    ("records.append_s", "s", "lower", "job_p90_s, first_record_s on churn"),
    ("records.flush_s", "s", "lower", "job_p90_s, first_record_s on churn"),
    ("records.flushes", "count", "lower", "job_p90_s, first_record_s on churn"),
    ("records.seal_s", "s", "lower", "job_p90_s, first_record_s on churn"),
    ("records.scan_s", "s", "lower", "job_p90_s, first_record_s on churn"),
    ("records.scans", "count", "lower", "job_p90_s, first_record_s on churn"),
    ("journal.appends", "count", "lower", "submit_ms, job_s on churn"),
    ("journal.append_s", "s", "lower", "submit_ms, job_s on churn"),
    ("daemon.submit_s", "s", "lower", "submit_ms, job_p90_s on churn"),
    ("daemon.queue_wait_s", "s", "lower", "submit_ms, job_p90_s on churn"),
    ("runner.prepare_s", "s", "lower", "job_s, failed_ratio on churn"),
    ("runner.consume_s", "s", "lower", "job_s, failed_ratio on churn"),
    ("runner.failed_runs", "count", "lower", "job_s, failed_ratio on churn"),
    ("aggregate.summary_s", "s", "lower", "job_s on churn"),
    ("api.requests", "count", "lower", "submit_ms on churn"),
    ("api.errors", "count", "lower", "submit_ms on churn"),
    ("api.handle_s", "s", "lower", "submit_ms on churn"),
    ("trace.wall_s", "s", "lower", "the phase wall time"),
    ("trace.job_thread_s", "s", "lower", "layer self time on the thread that runs the jobs"),
    ("trace.unattributed_s", "s", "lower", "wall time the job thread spends inside no traced layer"),
    ("trace.overhead_s", "s", "lower", "traced job_s minus untraced job_s"),
]

#: Metric name -> span layer, for self times and call counts.
_SECONDS = {
    "builders.build_s": "builders.build", "sim.run_s": "sim.run",
    "physics_store.store_s": "physics_store.store",
    "physics_store.load_s": "physics_store.load",
    "records.open_s": "records.open", "records.append_s": "records.append",
    "records.flush_s": "records.flush", "records.seal_s": "records.seal",
    "records.scan_s": "records.scan", "journal.append_s": "journal.append",
    "daemon.submit_s": "daemon.submit", "runner.prepare_s": "runner.prepare",
    "runner.consume_s": "runner.consume",
    "aggregate.summary_s": "aggregate.summary", "api.handle_s": "api.handle",
}
_CALLS = {
    "builders.calls": "builders.build", "sim.runs": "sim.run",
    "physics_store.stores": "physics_store.store",
    "records.flushes": "records.flush", "records.scans": "records.scan",
    "journal.appends": "journal.append", "api.requests": "api.handle",
}


class Tracer:
    """Records spans and counts while installed; one instance per phase."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []
        self._submitted: Dict[str, float] = {}
        self._queue_waits: List[Tuple[float, float]] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def _count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def _wrap(self, fn: Callable, layer: Optional[str],
              after: Optional[Callable] = None) -> Callable:
        spans, clock = self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.append((threading.get_ident(), layer, start, clock()))
            if after is not None:
                after(args, result, start)
            return result
        return traced

    def _after_load(self, args, result, start) -> None:
        if result is not None:
            self._count("physics_store.load_hits")

    def _after_handle(self, args, result, start) -> None:
        if result[0] >= 400:
            self._count("api.errors")

    def _after_consume(self, args, result, start) -> None:
        from repro.sweep.records import FailedRun
        if isinstance(args[1], FailedRun):
            self._count("runner.failed_runs")

    def _after_submit(self, args, result, start) -> None:
        job, created = result
        if created:
            with self._lock:
                self._submitted[job.spec["name"]] = time.perf_counter()

    def _after_prepare(self, args, result, start) -> None:
        with self._lock:
            submitted = self._submitted.pop(args[0].spec.name, None)
            if submitted is not None:
                self._queue_waits.append((submitted, start))

    # ------------------------------------------------------------------ #
    # installation
    # ------------------------------------------------------------------ #
    def _targets(self):
        """(module, class or None, attribute, layer, after-hook)."""
        return [
            ("repro.sweep.runner", None, "build_compiled_workload",
             "builders.build", None),
            ("repro.sim.runtime", "PIMRuntime", "run", "sim.run", None),
            ("repro.sim.shared_store", "SharedPhysicsStore", "store",
             "physics_store.store", None),
            ("repro.sim.shared_store", "SharedPhysicsStore", "load",
             "physics_store.load", self._after_load),
            ("repro.store.sharded", "ShardedRecordStore", "__init__",
             "records.open", None),
            ("repro.store.sharded", "ShardedRecordStore", "append",
             "records.append", None),
            ("repro.store.sharded", "ShardedRecordStore", "append_failed",
             "records.append", None),
            ("repro.store.sharded", "ShardedRecordStore", "flush",
             "records.flush", None),
            ("repro.store.sharded", "ShardedRecordStore", "seal",
             "records.seal", None),
            # The daemon imports scan_store from the package at call time.
            ("repro.store", None, "scan_store", "records.scan", None),
            ("repro.service.journal", "JobJournal", "append",
             "journal.append", None),
            ("repro.service.daemon", "SweepService", "submit",
             "daemon.submit", self._after_submit),
            ("repro.sweep.runner", "SweepPass", "prepare", "runner.prepare",
             self._after_prepare),
            ("repro.sweep.runner", "SweepPass", "consume", "runner.consume",
             self._after_consume),
            ("repro.sweep.records", "SweepResult", "summary_payload",
             "aggregate.summary", None),
            ("repro.service.api", "ServiceAPI", "handle", "api.handle",
             self._after_handle),
        ]

    def install(self) -> "Tracer":
        for module_name, class_name, attr, layer, after in self._targets():
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attr] if class_name else \
                getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer, after))
        return self

    def attach(self, service) -> None:
        """Mark the service's long-poll waits idle (no layer is busy)."""
        cond = service._records_cond
        cond.wait = self._wrap(cond.wait, None)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # per-phase metrics
    # ------------------------------------------------------------------ #
    def job_threads(self, start: float, end: float) -> List[int]:
        """The threads that prepared a job in ``[start, end]``."""
        return sorted({thread for thread, layer, begun, _ in self.spans
                       if layer == "runner.prepare" and start <= begun < end})

    def reconcile(self, start: float, end: float) -> List[str]:
        """Faults in the phase's tracing: spans that do not nest, and
        threads whose self times differ from their busy time (both
        computed from spans that start in the window; the busy time is
        clipped to it, so work that outlives the phase shows here)."""
        faults = []
        _seconds, per_thread, misnested = self_times(self.spans, start, end)
        if misnested:
            faults.append(f"{misnested} span(s) end after their parent")
        busy = busy_times(self.spans, start, end)
        for thread, total in per_thread.items():
            if abs(total - busy[thread]) > 1e-9 * max(1.0, end - start):
                faults.append(f"thread {thread}: self times {total:.6f} s "
                              f"!= busy {busy[thread]:.6f} s")
        if not self.job_threads(start, end):
            faults.append("no job was prepared in the phase")
        return faults

    def layer_metrics(self, start: float, end: float, level_stats: Dict,
                      store_bytes: int) -> Dict[str, float]:
        """Every per-layer metric except ``trace.overhead_s`` for the phase
        ``[start, end]``.  ``trace.job_thread_s`` is the layer self time on
        the job thread, and ``trace.unattributed_s`` the rest of the wall
        time, both from the busy-time sweep (see :meth:`reconcile`)."""
        seconds, _per_thread, _misnested = self_times(self.spans, start, end)
        busy = busy_times(self.spans, start, end)
        job_busy = sum(busy[t] for t in self.job_threads(start, end))
        calls = Counter(layer for _, layer, begun, _ in self.spans
                        if layer is not None and start <= begun < end)
        metrics = {name: seconds.get(layer, 0.0)
                   for name, layer in _SECONDS.items()}
        metrics.update({name: float(calls[layer])
                        for name, layer in _CALLS.items()})
        for name in ("physics_store.load_hits", "runner.failed_runs",
                     "api.errors"):
            metrics[name] = float(self.counts[name])
        hits, misses = level_stats["hits"], level_stats["misses"]
        metrics.update({
            "level_cache.hits": float(hits),
            "level_cache.misses": float(misses),
            "level_cache.hit_ratio": hits / (hits + misses)
            if hits + misses else 0.0,
            "level_cache.bytes": float(level_stats["bytes"]),
            "physics_store.bytes": float(store_bytes),
            "daemon.queue_wait_s": sum(
                max(0.0, prepared - submitted)
                for submitted, prepared in self._queue_waits),
            "trace.wall_s": end - start,
            "trace.job_thread_s": job_busy,
            "trace.unattributed_s": end - start - job_busy,
        })
        return metrics
