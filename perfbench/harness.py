"""One repetition: a fresh daemon, its HTTP server, and the clients.

:func:`run_repetition` starts a :class:`~repro.service.SweepService` with
its default settings (serial fleet, shared physics store attached) on a
fresh state directory with a :class:`~repro.service.ServiceHTTPServer` in
front, drives the jobs through :class:`~repro.service.ServiceClient` from
closed-loop client threads, and returns the timings plus what the
correctness gate needs.  :func:`check_records` is the oracle half of that
gate; it runs after the timed phase.
"""

from __future__ import annotations

import ctypes
import functools
import gc
import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.service import ServiceClient, ServiceError, ServiceHTTPServer, \
    SweepService
from repro.sim import clear_level_cache, level_cache_stats
from repro.store import audit_store
from repro.sweep import SerialExecutor, SweepRunner, SweepSpec, \
    clear_workload_cache
from repro.workloads.generator import clear_flip_cache

#: Seconds a client waits on one long-poll before asking again.
LONG_POLL_S = 30.0
#: Seconds a repetition's clients may take before the run is failed.
CLIENT_DEADLINE_S = 150.0


@dataclass
class JobOutcome:
    """What one client saw of one job, plus any correctness violation."""

    spec: SweepSpec
    job_id: Optional[str] = None
    submit_ms: Optional[float] = None
    first_record_s: Optional[float] = None
    job_s: Optional[float] = None
    state: Optional[str] = None
    records: List[Dict] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)

    @property
    def runs(self) -> int:
        return self.spec.n_runs

    @property
    def failed(self) -> bool:
        return bool(self.errors)


@dataclass
class Repetition:
    setup_s: float
    phase_s: float
    outcomes: List[JobOutcome]
    state_bytes: int
    store_bytes: int
    level_stats: Dict
    phase_start: float
    phase_end: float


try:
    _LIBC = ctypes.CDLL("libc.so.6")
    _LIBC.malloc_trim.argtypes = [ctypes.c_size_t]
    _LIBC.malloc_trim.restype = ctypes.c_int
except OSError:                          # not glibc: nothing to trim
    _LIBC = None


def reset_process_caches() -> None:
    """Forget what earlier repetitions built, as a fresh daemon would.

    Freed heap goes back to the system too: each repetition's scheduler is
    a new thread, and memory that glibc keeps in an earlier thread's arena
    would otherwise add to the peak resident size of later repetitions.
    """
    clear_workload_cache()
    clear_level_cache()
    clear_flip_cache()
    gc.collect()
    if _LIBC is not None:
        _LIBC.malloc_trim(0)


def tree_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(root, name))
            except FileNotFoundError:
                pass
    return total


def run_job(client: ServiceClient, spec: SweepSpec) -> JobOutcome:
    """Submit, stream the records by long-poll until the job rests, then
    fetch the result; time each step from the submit."""
    outcome = JobOutcome(spec)
    clock = time.perf_counter
    start = clock()
    try:
        outcome.job_id = client.submit(spec)["job_id"]
        outcome.submit_ms = (clock() - start) * 1e3
        seq = 0
        while True:
            page = client.records(outcome.job_id, offset=seq, limit=4096,
                                  wait_seq=seq, wait_timeout=LONG_POLL_S)
            if page["count"] and outcome.first_record_s is None:
                outcome.first_record_s = clock() - start
            seq = page["seq"]
            if page["resting"]:
                break
        result = client.result(outcome.job_id)
        outcome.job_s = clock() - start
    except (ServiceError, OSError) as error:
        outcome.errors.append(f"request failed: {error}")
        return outcome
    outcome.state = result["state"]
    outcome.records = result.get("records", [])
    if outcome.state != "done":
        outcome.errors.append(f"job ended {outcome.state}")
    if result.get("n_failed"):
        outcome.errors.append(f"{result['n_failed']} run(s) quarantined")
    if outcome.first_record_s is None:
        outcome.errors.append("no record was streamed")
    return outcome


def _drive(url: str, specs: List[SweepSpec], clients: int
           ) -> List[JobOutcome]:
    """Closed loop: each client takes the next job only after its last."""
    queue = deque(enumerate(specs))
    outcomes: List[Optional[JobOutcome]] = [None] * len(specs)

    def client_loop() -> None:
        client = ServiceClient(url)
        while True:
            try:
                index, spec = queue.popleft()
            except IndexError:
                return
            outcomes[index] = run_job(client, spec)

    threads = [threading.Thread(target=client_loop, daemon=True,
                                name=f"perfbench-client-{i}")
               for i in range(clients)]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + CLIENT_DEADLINE_S
    for thread in threads:
        thread.join(timeout=max(0.0, deadline - time.monotonic()))
    for index, spec in enumerate(specs):
        if outcomes[index] is None:
            outcomes[index] = JobOutcome(
                spec, errors=[f"no answer within {CLIENT_DEADLINE_S:.0f}s"])
    return outcomes


def run_repetition(specs: List[SweepSpec], clients: int, state_dir: str,
                   tracer=None) -> Repetition:
    """One cold daemon lifetime; ``setup_s`` runs from daemon construction
    to the first healthy ``GET /health``."""
    reset_process_caches()
    clock = time.perf_counter
    start = clock()
    service = SweepService(state_dir)
    if tracer is not None:
        tracer.attach(service)
    service.start()
    server = None
    try:
        server = ServiceHTTPServer(service)
        # The listener's idle poll only bounds how long stop() takes (0.5 s
        # by default); requests are served as they arrive either way.
        server.server.serve_forever = functools.partial(
            server.server.serve_forever, poll_interval=0.01)
        server.start()
        client = ServiceClient(server.url)
        if client.health()["status"] != "ok":
            raise RuntimeError("daemon did not report healthy")
        setup_s = clock() - start
        phase_start = clock()
        outcomes = _drive(server.url, specs, clients)
        phase_end = clock()
        level_stats = level_cache_stats()
        degraded = bool(client.health()["degraded"])
    finally:
        if server is not None:
            server.stop()
        service.shutdown()
    for outcome in outcomes:
        if outcome.job_id is not None:
            report = audit_store(service.store_path(outcome.job_id))
            if not report["clean"]:
                outcome.errors.append(
                    f"audit: {report['scan']['problems']}")
        if degraded:
            outcome.errors.append("daemon health reported degraded")
    return Repetition(
        setup_s=setup_s, phase_s=phase_end - phase_start, outcomes=outcomes,
        state_bytes=tree_bytes(state_dir),
        store_bytes=tree_bytes(os.path.join(state_dir, "store")),
        level_stats=level_stats,
        phase_start=phase_start, phase_end=phase_end)


def _canonical(records: List[Dict]) -> List[str]:
    return [json.dumps(record, sort_keys=True) for record in records]


def check_records(reps: List[Repetition]) -> None:
    """The oracle gate: every job's records must be bit-identical to an
    in-process ``SerialExecutor`` run of the same spec."""
    expected: Dict[SweepSpec, List[str]] = {}
    reset_process_caches()
    for rep in reps:
        for outcome in rep.outcomes:
            if outcome.state is None:
                continue
            if outcome.spec not in expected:
                clear_level_cache()
                result = SweepRunner(outcome.spec, SerialExecutor()).run()
                expected[outcome.spec] = _canonical(
                    [r.to_json_dict() for r in result.sorted_records()])
            if _canonical(outcome.records) != expected[outcome.spec]:
                outcome.errors.append(
                    "records differ from the SerialExecutor oracle")
