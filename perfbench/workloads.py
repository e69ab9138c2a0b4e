"""The benchmark's workloads, built from the ``--seed`` argument.

Each workload is a list of sweep jobs per repetition plus the number of
client threads that submit them.  A repetition is one freshly started
daemon on a fresh state directory, so every repetition pays what a newly
started daemon pays.  Each repetition draws its own master seeds from
``(seed, repetition)``: how much work a job is depends on its seed (how
many distinct voltage levels its runs visit), so a run averages over
several draws instead of resting on one.  Why each workload was chosen,
and the layer it loads, is recorded in ``BENCHMARK.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from repro.sweep import SweepSpec, WorkloadSpec


@dataclass(frozen=True)
class Workload:
    name: str
    #: client threads submitting in a closed loop.
    clients: int
    #: the jobs of one repetition, from the benchmark seed and the
    #: repetition index.
    jobs: Callable[[int, int], List[SweepSpec]]


def derived_seeds(seed: int, repetition: int, count: int) -> List[int]:
    """``count`` master seeds for one repetition of the benchmark seed."""
    sequence = np.random.SeedSequence(seed, spawn_key=(repetition,))
    return [int(v) for v in sequence.generate_state(count, dtype=np.uint32)]


def model_cold_jobs(seed: int, repetition: int) -> List[SweepSpec]:
    """The default resnet18 workload (QAT+LHR, WDS, HR-aware mapping on the
    8x2-macro chip) on a booster/dvfs/booster_safe x 2-beta x 2-seed grid."""
    return [SweepSpec(
        name="model_cold", workloads=(WorkloadSpec(),),
        controllers=("booster", "dvfs", "booster_safe"), betas=(25, 50),
        cycles=2000, seeds=2, master_seed=derived_seeds(seed, repetition, 1)[0])]


#: Tiny jobs per churn repetition, all on one daemon and split over the
#: two clients.  Each physics-store publish rewrites the store's index, so
#: later jobs of a daemon's life cost more than earlier ones; the median
#: job of a repetition pays for that growth.
CHURN_JOBS = 8


def churn_jobs(seed: int, repetition: int) -> List[SweepSpec]:
    """Tiny synthetic jobs (2x2 macros, 8 runs of 400 cycles), each with a
    distinct master seed and name."""
    tiny = WorkloadSpec(builder="synthetic", groups=2, macros_per_group=2,
                        banks=4, rows=8, n_operators=4, label="tiny")
    return [SweepSpec(name=f"churn{index:03d}", workloads=(tiny,),
                      controllers=("booster",), betas=(10, 20, 30, 40),
                      cycles=400, seeds=2, master_seed=master)
            for index, master in enumerate(
                derived_seeds(seed, repetition, CHURN_JOBS))]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("model_cold", clients=1, jobs=model_cold_jobs),
    Workload("churn", clients=2, jobs=churn_jobs),
)}
