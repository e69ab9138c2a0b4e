"""Worker-side construction of compiled workloads from :class:`WorkloadSpec`s.

Sweep workers never receive a compiled workload over the pipe — a chip image
holds numpy weight matrices for every loaded macro and pickling it per run
would dwarf the simulation itself.  Instead each worker process reconstructs
the workload from its (tiny, picklable) :class:`~repro.sweep.spec.WorkloadSpec`
through a registered *builder* function and memoizes it in a per-process cache,
so a worker pays the construction cost once per distinct workload no matter how
many grid points share it.  Construction is deterministic (every builder seeds
its RNGs from the spec), which is half of the sweep determinism contract; the
other half is the seed derivation in :mod:`repro.sweep.spec`.

Two builders ship by default:

* ``"model"`` — the full paper flow: QAT (optionally LHR-regularized) on a
  model-zoo network, profile extraction, WDS + task mapping, chip load.  This
  is what the benchmark harnesses sweep.  It trains without evaluating
  (:func:`~repro.quant.qat.train_qat`): the compiled image needs only the
  integer codes and weight shapes, never the task metric.  A default
  resnet18 spec builds in about 1.5 s on a 2-core x86 machine.
* ``"synthetic"`` — random Laplace-code conv/linear/attention operators
  compiled directly, no training.  Milliseconds per build; used by the tier-1
  sweep tests and the examples.

Custom builders can be registered with :func:`register_workload_builder`; they
must be module-level functions (picklable by reference) taking a
:class:`WorkloadSpec` and returning a
:class:`~repro.sim.compiler.CompiledWorkload`.  Registration is per-process:
``fork``-started pool workers inherit the parent's registry, but
``spawn``-started workers only see builders registered at import time of a
module they import too.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from ..pim.config import small_chip_config
from ..pim.dataflow import Operator
from ..sim.compiler import CompiledWorkload, CompilerConfig, compile_workload
from ..workloads.profiles import WorkloadProfile, build_workload_profile
from .spec import WorkloadSpec, workload_fingerprint

__all__ = [
    "register_workload_builder",
    "build_compiled_workload",
    "clear_workload_cache",
]

_BUILDERS: Dict[str, Callable[[WorkloadSpec], CompiledWorkload]] = {}

#: Per-process memo of built workloads.  With the default ``fork`` start
#: method, pool workers inherit the parent's already-built entries for free.
_CACHE: Dict[WorkloadSpec, CompiledWorkload] = {}


def register_workload_builder(name: str,
                              builder: Callable[[WorkloadSpec], CompiledWorkload],
                              overwrite: bool = False) -> None:
    """Register a builder under ``WorkloadSpec.builder == name``."""
    if name in _BUILDERS and not overwrite:
        raise ValueError(f"builder {name!r} is already registered")
    _BUILDERS[name] = builder


def build_compiled_workload(spec: WorkloadSpec) -> CompiledWorkload:
    """Build (or fetch from the per-process cache) the workload for ``spec``."""
    cached = _CACHE.get(spec)
    if cached is not None:
        return cached
    try:
        builder = _BUILDERS[spec.builder]
    except KeyError:
        raise KeyError(f"unknown workload builder {spec.builder!r}; "
                       f"registered: {sorted(_BUILDERS)}") from None
    compiled = builder(spec)
    # Tag the image with the spec's deterministic fingerprint: the simulation
    # engine keys its process-level per-(group, level) physics cache
    # (repro.sim.level_cache) on it, so every run of any rebuild of this spec
    # — across betas, controllers and modes — shares the same entries.
    compiled.cache_key = workload_fingerprint(spec)
    _CACHE[spec] = compiled
    return compiled


def clear_workload_cache() -> None:
    """Drop the per-process workload memo (tests and memory-bounded sweeps)."""
    _CACHE.clear()


# ---------------------------------------------------------------------- #
# built-in builders
# ---------------------------------------------------------------------- #
def _chip_and_config(spec: WorkloadSpec):
    chip = small_chip_config(groups=spec.groups,
                             macros_per_group=spec.macros_per_group,
                             banks=spec.banks, rows=spec.rows)
    config = CompilerConfig(bits=spec.bits, wds_delta=spec.wds_delta,
                            mapping_strategy=spec.mapping, mode=spec.mode,
                            max_tasks_per_operator=spec.max_tasks_per_operator,
                            seed=spec.compile_seed)
    return chip, config


def build_model_workload(spec: WorkloadSpec) -> CompiledWorkload:
    """QAT-train ``spec.model`` and compile it onto the spec's chip geometry.

    This mirrors the cached flow of ``benchmarks/common.py`` (same QAT
    hyper-parameters, same profile construction) so sweeps over the benchmark
    workloads reproduce the single-run harness numbers exactly.  The codes
    are those of ``run_qat(...).weight_codes()``; the evaluation pass
    ``run_qat`` adds on top is skipped.
    """
    from ..models import get_model_spec
    from ..quant import QATConfig, train_qat

    model_spec = get_model_spec(spec.model)
    qat = train_qat(model_spec, QATConfig(
        bits=spec.bits, epochs=spec.qat_epochs,
        learning_rate=spec.qat_learning_rate,
        lhr_lambda=2.0 if spec.lhr else 0.0, seed=spec.compile_seed))
    profile = build_workload_profile(
        qat.model, name=spec.model, family=model_spec.family,
        codes_by_layer=qat.weight_codes(), bits=spec.bits,
        attention_seq_len=spec.attention_seq_len, seed=spec.compile_seed)
    chip, config = _chip_and_config(spec)
    return compile_workload(profile, chip, config=config)


def build_synthetic_workload(spec: WorkloadSpec) -> CompiledWorkload:
    """Random mixed-operator workload: fast, deterministic, training-free.

    Operators cycle through conv / linear / qk_t kinds with Laplace-distributed
    codes of scale ``spec.code_spread`` sized to the spec's macro geometry, so
    the compiled image exercises both weight-stationary and input-determined
    groups without any QAT cost.
    """
    rng_seed = spec.compile_seed
    qmax = (1 << (spec.bits - 1)) - 1
    kinds = ("conv", "linear", "qk_t")
    operator_rows = spec.operator_rows or spec.rows
    operators = []
    for i in range(spec.n_operators):
        rng = np.random.default_rng(rng_seed + 31 * i)
        codes = np.clip(
            np.round(rng.laplace(0.0, spec.code_spread,
                                 size=(operator_rows, spec.banks))),
            -qmax - 1, qmax).astype(np.int64)
        kind = kinds[i % len(kinds)]
        operators.append(Operator(name=f"syn{i}.{kind}", kind=kind,
                                  codes=codes, bits=spec.bits))
    profile = WorkloadProfile(name=spec.name, family="mixed",
                              operators=operators)
    chip, config = _chip_and_config(spec)
    return compile_workload(profile, chip, config=config)


register_workload_builder("model", build_model_workload)
register_workload_builder("synthetic", build_synthetic_workload)
