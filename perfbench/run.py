"""End-to-end benchmark of the sweep service, from HTTP submit to sealed
record store.

Usage (from the repository root)::

    python3 perfbench/run.py --workload churn --seed 1 --seconds 40 --trace 0

Each run repeats the workload on freshly started daemons until ``--seconds``
are used (at least two repetitions).  Job timings are means per
repetition, then the median over repetitions.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced
repetitions of the same jobs and prints the per-layer metrics of the traced
ones (means per repetition) and the tracing overhead (median over pairs of
traced minus untraced ``job_s``).  A traced run fails unless its spans
nest, each thread's self times add up to its busy time, and a job thread
is found, whose self times plus ``trace.unattributed_s`` give
``trace.wall_s``.  Every job is checked after the timed phase: records bit-identical to a ``SerialExecutor`` run of the
same spec, the daemon not degraded, and each job's record store clean
under ``audit_store``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a JSON report with run metadata, sample counts and spreads.  The exit
code is 1 when any check failed and 2 when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from statistics import median
from typing import Dict, List

from stats import failed_ratio, reportable_percentile, spread
from tracing import LAYER_METRICS, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Every run makes at least this many repetitions (one traced and one
#: untraced under ``--trace 1``).
MIN_REPETITIONS = 2
#: Job-less daemon start-ups before each repetition: they give ``setup_s``
#: more samples, spread over the run like the repetitions.
SETUP_PROBES = 8
STATE_ROOT = ".perfbench_state"


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _rep_means(reps, field: str) -> List[float]:
    """Per repetition, the mean of ``field`` over the jobs that have it.

    The jobs of one repetition share a daemon and wait for each other, so
    they are one sample, not several, and their latencies come in steps
    (each pair of churn jobs pays for the physics-store entries of all
    earlier ones): a median inside a repetition jumps between steps from
    run to run, a mean does not.  The median is then taken over
    repetitions.
    """
    values = []
    for rep in reps:
        xs = [getattr(o, field) for o in rep.outcomes
              if getattr(o, field) is not None]
        if xs:
            values.append(sum(xs) / len(xs))
    return values


def _metric(value: float, unit: str) -> Dict:
    return {"value": value, "unit": unit}


def _measure(workload, args, run_repetition) -> Dict:
    """Repetitions (with setup probes) until ``--seconds`` are used."""
    state_root = os.path.join(os.getcwd(), STATE_ROOT)
    shutil.rmtree(state_root, ignore_errors=True)
    runs: Dict = {"probes": [], "untraced": [], "traced": [], "layers": [],
                  "trace_faults": []}
    begin = time.perf_counter()
    try:
        for index in itertools.count():
            for probe in range(SETUP_PROBES):
                probe_dir = os.path.join(state_root, f"probe{index}.{probe}")
                runs["probes"].append(run_repetition([], 1, probe_dir))
            # Under --trace 1 repetitions come in pairs that run the same
            # jobs, one traced and one not, so their difference is the
            # tracing overhead; the traced one goes first in every other
            # pair, so one-time costs of the first repetition cancel out.
            draw = index // 2 if args.trace else index
            traced = args.trace and index % 2 != draw % 2
            tracer = Tracer().install() if traced else None
            rep_start = time.perf_counter()
            try:
                rep = run_repetition(
                    workload.jobs(args.seed, draw), workload.clients,
                    os.path.join(state_root, f"rep{index:03d}"), tracer)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            if tracer is None:
                runs["untraced"].append(rep)
            else:
                runs["traced"].append(rep)
                runs["layers"].append(tracer.layer_metrics(
                    rep.phase_start, rep.phase_end, rep.level_stats,
                    rep.store_bytes))
                runs["trace_faults"].extend(
                    tracer.reconcile(rep.phase_start, rep.phase_end))
            shutil.rmtree(state_root, ignore_errors=True)
            now = time.perf_counter()
            if index + 1 >= MIN_REPETITIONS \
                    and now - begin + (now - rep_start) > args.seconds:
                break
        runs["measured_s"] = time.perf_counter() - begin
    finally:
        shutil.rmtree(state_root, ignore_errors=True)
    runs["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return runs


def _end_to_end(runs: Dict) -> Dict:
    untraced = runs["untraced"]
    metrics = {
        "job_s": (_rep_means(untraced, "job_s"), "s"),
        "runs_per_s": ([sum(o.runs for o in rep.outcomes
                            if o.state == "done") / rep.phase_s
                        for rep in untraced], "1/s"),
        "setup_s": ([rep.setup_s for rep in runs["probes"] + untraced], "s"),
        "peak_rss_mb": ([runs["peak_rss_mb"]], "MiB"),
        "state_dir_mb": ([rep.state_bytes / 2 ** 20 for rep in untraced],
                         "MiB"),
    }
    return {name: _metric(median(values), unit)
            for name, (values, unit) in metrics.items() if values}


def _per_layer(runs: Dict, report: Dict) -> Dict:
    rows = runs["layers"]
    metrics = {name: _metric(sum(row[name] for row in rows) / len(rows),
                             unit)
               for name, unit, _better, _target in LAYER_METRICS
               if name != "trace.overhead_s"}
    traced = _rep_means(runs["traced"], "job_s")
    untraced = _rep_means(runs["untraced"], "job_s")
    if traced and untraced:
        metrics["trace.overhead_s"] = _metric(median(
            [t - u for t, u in zip(traced, untraced)]), "s")
    report["layer_targets"] = {name: target
                               for name, _u, _b, target in LAYER_METRICS}
    return metrics


def main(argv: List[str]) -> int:
    args = _parse(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import numpy
        from harness import check_records, run_repetition
        from workloads import WORKLOADS
    except ImportError as error:
        print(f"perfbench: cannot import the program: {error}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    runs = _measure(workload, args, run_repetition)
    gate_start = time.perf_counter()
    check_records(runs["untraced"] + runs["traced"])
    gate_s = time.perf_counter() - gate_start

    outcomes = [o for rep in runs["untraced"] + runs["traced"]
                for o in rep.outcomes]
    failures = [o for o in outcomes if o.failed]
    job_samples = [o.job_s for rep in runs["untraced"] for o in rep.outcomes
                   if o.job_s is not None]
    submit_ms = _rep_means(runs["untraced"], "submit_ms")
    first_s = _rep_means(runs["untraced"], "first_record_s")
    report: Dict = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "git_commit": _git_commit(),
        "repetitions": {key: len(runs[key])
                        for key in ("untraced", "traced", "probes")},
        "measured_s": runs["measured_s"], "oracle_gate_s": gate_s,
        "jobs": len(outcomes),
        "failed_ratio": failed_ratio(o.failed for o in outcomes),
        "failures": [f"{o.spec.name}: {'; '.join(o.errors)}"
                     for o in failures],
        # Reported only with at least ten samples beyond it.
        "job_p90_s": reportable_percentile(job_samples, 90),
        # A churn figure: model_cold submits once per repetition.
        "submit_ms": median(submit_ms) if submit_ms else None,
        "first_record_s": median(first_s) if first_s else None,
        "spread_iqr_share": {
            "job_s": spread(_rep_means(runs["untraced"], "job_s")),
            "first_record_s": spread(first_s),
            "submit_ms": spread(submit_ms)},
        "per_repetition": [
            {"traced": key == "traced", "setup_s": rep.setup_s,
             "phase_s": rep.phase_s,
             "job_s": [o.job_s for o in rep.outcomes],
             "first_record_s": [o.first_record_s for o in rep.outcomes]}
            for key in ("untraced", "traced") for rep in runs[key]],
    }
    if args.trace:
        metrics = _per_layer(runs, report)
        report["failures"].extend(runs["trace_faults"])
    else:
        metrics = _end_to_end(runs)
    correct = not report["failures"] and bool(job_samples)

    for name, metric in metrics.items():
        print(f"{name:<28} {metric['value']:>14.6g} {metric['unit']}")
    if not args.trace:
        # End-to-end figures that are not benchmark metrics: the ratio is
        # 0 on a healthy run; on churn a job's first record waits for the
        # scheduler round the other client's job is in, so first_record_s
        # swings with that race more than any bound allows; submit_ms is a
        # churn figure; and job_p90_s needs 100 jobs, more than a run of
        # either workload makes.
        for name, unit, samples in (
                ("failed_ratio", "ratio", f"{len(outcomes)} jobs"),
                ("first_record_s", "s", f"median of {len(first_s)} "
                                        "repetition means"),
                ("submit_ms", "ms", f"median of {len(submit_ms)} "
                                    "repetition means"),
                ("job_p90_s", "s", f"{len(job_samples)} jobs")):
            value = report[name]
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"{name:<28} {shown:>14} {unit}  ({samples})")
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": len(outcomes),
                      "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
