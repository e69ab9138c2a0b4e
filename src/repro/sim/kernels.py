"""Closed-form failure-timeline kernels for no-level-change group spans.

An event-by-event walk of a group's failure timeline (per-member ``bisect``
pointers, as the engine's heap scheduler still does for coupled groups) is
pure overhead for groups whose V-f level never changes — every ``dvfs`` and
``booster_safe`` group, and ``booster`` groups between two level breaks: the
whole timeline is a *greedy min-gap selection* over one merged candidate
stream, which this module resolves in closed form for the vectorized engine
(:mod:`repro.sim.engine`).

The selection rule
------------------
Recompute stalls propagate within a failing macro's logical Set and, with a
constant level, never across Sets — so the timeline decomposes per Set.
Within one Set, every member's candidate failure cycles merge into a single
sorted stream of packed keys::

    key = (cycle << shift) | row          # numeric order == (cycle, row) lex

where ``row`` is the member's global activity-matrix row — the reference
loop's within-cycle visit order.  When the candidate ``(f, r)`` fails, the
reference semantics stall the whole Set: rows visited at or before ``r`` from
cycle ``f + 1``, later rows from ``f`` — i.e. for a recompute window of ``R``
cycles, the next eligible candidate is exactly the first one
*lexicographically after* ``(f + R, r)``, which in packed form is the first
key **greater than** ``selected_key + (R << shift)``.  The whole timeline
therefore resolves with at most one binary search per **selected** failure,
never touching the suppressed candidates in between; ``R == 0`` degenerates
to "every candidate fails", a single slice.

A single *frontier key* — "only keys strictly greater are eligible" — is the
kernel's entire carry-over state (``(cycle << shift) - 1`` encodes "every row
at ``cycle``").  It survives level changes unchanged (stall windows are
level-independent), which is how the engine resumes a ``booster`` group's
Sets across level-stable spans.

Implementations
---------------
The default pure-Python selection loop runs ``bisect`` over a plain list of
keys (a scalar list bisect is several times faster than a scalar
``np.searchsorted`` — the same trade the engine's heap scheduler makes),
and skips even that when the next key already clears the frontier.  The same
algorithm is also written against a plain int64 array
(:func:`_select_failures_impl`) so it compiles unchanged under :mod:`numba`:
``REPRO_KERNEL=numba`` (environment variable, read at import) or
:func:`set_kernel` selects the jitted variant.  Numba is *not* a dependency —
requesting it without the wheel installed warns and falls back to the default
kernel (``REPRO_KERNEL=numpy``).  Both variants are bit-for-bit identical;
the equivalence suite (``tests/test_kernels.py``) runs against whichever is
active.
"""

from __future__ import annotations

import os
import warnings
from bisect import bisect_left, bisect_right
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

__all__ = [
    "EXHAUSTED_KEY",
    "KERNEL_NAMES",
    "MergedCandidates",
    "active_kernel",
    "frontier_key",
    "merge_candidates",
    "resume_frontiers_runs",
    "select_failures",
    "select_failures_runs",
    "set_kernel",
]

#: Selectable kernel implementations (``REPRO_KERNEL``).
KERNEL_NAMES = ("numpy", "numba")

#: Sentinel "no eligible candidate" key of the runs-axis span-resume kernel —
#: sorts above every real packed key (cycles and rows are far below 2^31).
EXHAUSTED_KEY = 1 << 62


class MergedCandidates(NamedTuple):
    """One Set's merged candidate stream of packed ``(cycle, row)`` keys.

    Both representations hold the same sorted keys: the int64 array feeds the
    numba-jitted kernel, the plain list the default scalar-``bisect`` paths.
    ``shift``/``mask`` decode a key back into ``(key >> shift, key & mask)``.
    """

    keys: np.ndarray
    keys_list: List[int]
    shift: int
    mask: int


def frontier_key(cycle: int, row: int, shift: int) -> int:
    """The packed frontier "strictly after ``(cycle, row)``".

    ``row = -1`` means "strictly before every row at ``cycle``" — i.e. all
    of ``cycle``'s candidates are still eligible.
    """
    return (cycle << shift) + row


def merge_candidates(per_row_cycles: List[np.ndarray], row_ids: List[int],
                     shift: int) -> MergedCandidates:
    """Merge per-member candidate arrays into one sorted packed-key stream.

    ``per_row_cycles[k]`` holds the sorted candidate cycles of global row
    ``row_ids[k]``; every row id must fit ``shift`` bits.  Packing makes the
    merge a single flat ``np.sort`` — no argsort, no tuple keys.
    """
    mask = (1 << shift) - 1
    total = sum(len(c) for c in per_row_cycles)
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return MergedCandidates(empty, [], shift, mask)
    keys = np.concatenate(
        [(np.asarray(c, dtype=np.int64) << shift) | rid
         for c, rid in zip(per_row_cycles, row_ids)])
    keys.sort()
    return MergedCandidates(keys, keys.tolist(), shift, mask)


def _select_failures_list(keys: List[int], shift: int, end_cycle: int,
                          recompute: int, frontier: int
                          ) -> Tuple[List[int], int]:
    """Default greedy selection: scalar ``bisect`` over the plain key list.

    Returns the selected keys and the final frontier.  After a selection the
    frontier jumps by ``recompute << shift``; when the very next key already
    clears it (dense streams — and always when ``recompute == 0``) no search
    is needed at all, so the bisect only pays for genuine jumps.
    """
    n = len(keys)
    end_key = end_cycle << shift
    if recompute == 0:
        i = bisect_right(keys, frontier)
        j = bisect_left(keys, end_key, i)
        out = keys[i:j]
        return out, (out[-1] if out else frontier)
    out: List[int] = []
    push = out.append
    jump = recompute << shift
    i = bisect_right(keys, frontier)
    while i < n:
        key = keys[i]
        if key >= end_key:
            break
        push(key)
        frontier = key + jump
        i += 1
        if i < n and keys[i] <= frontier:
            i = bisect_right(keys, frontier, i + 1)
    return out, frontier


def _select_failures_impl(keys: np.ndarray, shift: int, end_cycle: int,
                          recompute: int, frontier: int,
                          out_keys: np.ndarray) -> Tuple[int, int]:
    """The same greedy selection against an int64 array (numba-compilable).

    Writes selections into the preallocated ``out_keys`` (at least
    ``keys.size`` long) and returns ``(count, frontier)``.  Pure scalar/array
    code with no Python containers: compiles unchanged under ``numba.njit``.
    """
    n = keys.shape[0]
    count = 0
    end_key = end_cycle << shift
    jump = recompute << shift
    i = np.searchsorted(keys, frontier, side="right")
    while i < n:
        key = keys[i]
        if key >= end_key:
            break
        out_keys[count] = key
        count += 1
        frontier = key + jump
        i += 1
        if i < n and keys[i] <= frontier:
            i = np.searchsorted(keys[i + 1:], frontier,
                                side="right") + i + 1
    return count, frontier


def _select_failures_numpy(merged: MergedCandidates, end_cycle: int,
                           recompute: int, frontier: int
                           ) -> Tuple[List[int], int]:
    return _select_failures_list(merged.keys_list, merged.shift, end_cycle,
                                 recompute, frontier)


def _select_failures_runs_numpy(streams: Sequence[MergedCandidates],
                                end_cycles: Sequence[int],
                                recomputes: Sequence[int],
                                frontiers: Sequence[int]
                                ) -> Tuple[List[List[int]], List[int]]:
    outs: List[List[int]] = []
    fronts: List[int] = []
    for merged, end_cycle, recompute, frontier in zip(
            streams, end_cycles, recomputes, frontiers):
        out, front = _select_failures_list(merged.keys_list, merged.shift,
                                           end_cycle, recompute, frontier)
        outs.append(out)
        fronts.append(front)
    return outs, fronts


def _resume_frontiers_runs_numpy(streams: Sequence[MergedCandidates],
                                 frontiers: Sequence[int]
                                 ) -> Tuple[List[int], List[int]]:
    next_keys: List[int] = []
    indices: List[int] = []
    for merged, frontier in zip(streams, frontiers):
        lst = merged.keys_list
        i = bisect_right(lst, frontier)
        indices.append(i)
        next_keys.append(lst[i] if i < len(lst) else EXHAUSTED_KEY)
    return next_keys, indices


class KernelImpls(NamedTuple):
    """One implementation family: the scalar kernel plus its runs-axis
    variants (all three always switch together under :func:`set_kernel`)."""

    select: Callable
    select_runs: Callable
    resume_runs: Callable


def _stack_streams(streams: Sequence[MergedCandidates]
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenate per-run key arrays with ``(n_runs + 1,)`` slice offsets.

    The runs-axis jitted kernels take one flat int64 array so the whole
    batch crosses the Python/numba boundary once.
    """
    offsets = np.zeros(len(streams) + 1, dtype=np.int64)
    for i, merged in enumerate(streams):
        offsets[i + 1] = offsets[i] + merged.keys.shape[0]
    if offsets[-1] == 0:
        return np.empty(0, dtype=np.int64), offsets
    return np.concatenate([merged.keys for merged in streams]), offsets


def _select_failures_runs_impl(keys: np.ndarray, offsets: np.ndarray,
                               shift: int, end_cycles: np.ndarray,
                               recomputes: np.ndarray, frontiers: np.ndarray,
                               out_keys: np.ndarray, out_counts: np.ndarray,
                               out_frontiers: np.ndarray) -> None:
    """Runs-axis greedy selection over stacked streams (numba-compilable).

    Run ``r`` owns ``keys[offsets[r]:offsets[r + 1]]`` and writes its
    selections into the same slice of ``out_keys`` — each run is exactly
    :func:`_select_failures_impl`, so the stacked variant is bit-identical
    to per-run dispatch by construction.
    """
    for r in range(offsets.shape[0] - 1):
        lo = offsets[r]
        hi = offsets[r + 1]
        count, frontier = _select_failures_impl(
            keys[lo:hi], shift, end_cycles[r], recomputes[r], frontiers[r],
            out_keys[lo:hi])
        out_counts[r] = count
        out_frontiers[r] = frontier


def _resume_frontiers_runs_impl(keys: np.ndarray, offsets: np.ndarray,
                                frontiers: np.ndarray, out_keys: np.ndarray,
                                out_indices: np.ndarray) -> None:
    """Runs-axis span-resume peek (numba-compilable): per run, the index and
    value of the first key strictly above its frontier."""
    for r in range(offsets.shape[0] - 1):
        lo = offsets[r]
        hi = offsets[r + 1]
        i = np.searchsorted(keys[lo:hi], frontiers[r], side="right")
        out_indices[r] = i
        if lo + i < hi:
            out_keys[r] = keys[lo + i]
        else:
            out_keys[r] = EXHAUSTED_KEY


_NUMPY_IMPLS = KernelImpls(select=_select_failures_numpy,
                           select_runs=_select_failures_runs_numpy,
                           resume_runs=_resume_frontiers_runs_numpy)


def _uniform_shift(streams: Sequence[MergedCandidates]) -> int:
    shift = streams[0].shift
    for merged in streams:
        if merged.shift != shift:
            raise ValueError(
                "runs-axis kernels require a uniform key shift across the "
                f"stacked streams, got {merged.shift} != {shift}")
    return shift


def _make_numba_impls() -> KernelImpls:
    """Jit-compile the kernel family (raises ImportError without numba)."""
    import numba

    jitted = numba.njit(cache=True)(_select_failures_impl)
    # The runs-axis loops call the jitted scalar kernel, so exec_globals must
    # resolve _select_failures_impl to the compiled dispatcher.
    jitted_runs = numba.njit(cache=False)(
        _rebind(_select_failures_runs_impl, _select_failures_impl=jitted))
    jitted_resume = numba.njit(cache=True)(_resume_frontiers_runs_impl)

    def run(merged: MergedCandidates, end_cycle: int, recompute: int,
            frontier: int) -> Tuple[List[int], int]:
        keys = merged.keys
        out_keys = np.empty(keys.shape[0], dtype=np.int64)
        count, new_frontier = jitted(keys, merged.shift, end_cycle,
                                     recompute, frontier, out_keys)
        return out_keys[:count].tolist(), int(new_frontier)

    def run_runs(streams, end_cycles, recomputes, frontiers):
        if not streams:
            return [], []
        shift = _uniform_shift(streams)
        keys, offsets = _stack_streams(streams)
        n_runs = len(streams)
        out_keys = np.empty(keys.shape[0], dtype=np.int64)
        out_counts = np.zeros(n_runs, dtype=np.int64)
        out_frontiers = np.empty(n_runs, dtype=np.int64)
        jitted_runs(keys, offsets, shift,
                    np.asarray(end_cycles, dtype=np.int64),
                    np.asarray(recomputes, dtype=np.int64),
                    np.asarray(frontiers, dtype=np.int64),
                    out_keys, out_counts, out_frontiers)
        outs = [out_keys[offsets[r]:offsets[r] + out_counts[r]].tolist()
                for r in range(n_runs)]
        return outs, out_frontiers.tolist()

    def run_resume(streams, frontiers):
        if not streams:
            return [], []
        keys, offsets = _stack_streams(streams)
        n_runs = len(streams)
        out_keys = np.empty(n_runs, dtype=np.int64)
        out_indices = np.empty(n_runs, dtype=np.int64)
        jitted_resume(keys, offsets,
                      np.asarray(frontiers, dtype=np.int64),
                      out_keys, out_indices)
        return out_keys.tolist(), out_indices.tolist()

    return KernelImpls(select=run, select_runs=run_runs,
                       resume_runs=run_resume)


def _rebind(fn: Callable, **overrides) -> Callable:
    """A copy of ``fn`` whose module globals are overlaid with ``overrides``
    (lets the jitted runs-axis loop call the jitted scalar kernel)."""
    import types
    namespace = dict(fn.__globals__)
    namespace.update(overrides)
    clone = types.FunctionType(fn.__code__, namespace, fn.__name__,
                               fn.__defaults__, fn.__closure__)
    clone.__doc__ = fn.__doc__
    return clone


_IMPLS: Dict[str, KernelImpls] = {"numpy": _NUMPY_IMPLS}
_active_name = "numpy"
_active_impls: KernelImpls = _NUMPY_IMPLS


def set_kernel(name: str) -> str:
    """Select the active kernel implementation; returns the previous name.

    ``"numba"`` without the wheel installed emits a ``RuntimeWarning`` and
    keeps the default kernel — the jit is an accelerator, never a dependency.
    The scalar and runs-axis kernels always switch together.
    """
    global _active_name, _active_impls
    if name not in KERNEL_NAMES:
        raise ValueError(f"unknown kernel {name!r}; known: {KERNEL_NAMES}")
    previous = _active_name
    if name == "numba" and "numba" not in _IMPLS:
        try:
            _IMPLS["numba"] = _make_numba_impls()
        except ImportError:
            warnings.warn(
                "REPRO_KERNEL=numba requested but numba is not installed; "
                "falling back to the pure-numpy kernel", RuntimeWarning,
                stacklevel=2)
            name = "numpy"
    _active_name = name
    _active_impls = _IMPLS[name]
    return previous


def active_kernel() -> str:
    """Name of the active kernel implementation ("numpy" or "numba")."""
    return _active_name


def select_failures(merged: MergedCandidates, end_cycle: int, recompute: int,
                    frontier: int) -> Tuple[List[int], int]:
    """Resolve one Set's failure timeline up to ``end_cycle`` in closed form.

    Returns ``(selected_keys, frontier)`` — selections as packed keys in
    order, the frontier as the resume state for a later span (see module
    docstring).  Dispatches to the active implementation
    (:func:`set_kernel`).
    """
    return _active_impls.select(merged, end_cycle, recompute, frontier)


def select_failures_runs(streams: Sequence[MergedCandidates],
                         end_cycles: Sequence[int],
                         recomputes: Sequence[int],
                         frontiers: Sequence[int]
                         ) -> Tuple[List[List[int]], List[int]]:
    """Runs-axis :func:`select_failures`: one call resolves many timelines.

    ``streams[r]`` is an independent merged candidate stream — one ensemble
    member's view of one Set — selected up to ``end_cycles[r]`` with stall
    window ``recomputes[r]`` from frontier ``frontiers[r]``.  Returns the
    per-run selections and final frontiers, each run bit-identical to a
    per-run :func:`select_failures` call; the numba variant crosses the
    Python boundary once for the whole batch over stacked key arrays.
    Streams must share one key ``shift`` (they do whenever the runs simulate
    one workload, which is what the ensemble engine batches).
    """
    if not streams:
        return [], []
    _uniform_shift(streams)
    return _active_impls.select_runs(streams, end_cycles, recomputes,
                                     frontiers)


def resume_frontiers_runs(streams: Sequence[MergedCandidates],
                          frontiers: Sequence[int]
                          ) -> Tuple[List[int], List[int]]:
    """Runs-axis span-resume peek: each run's next eligible candidate.

    For every stream, returns the first key strictly greater than its
    frontier (:data:`EXHAUSTED_KEY` when none is left) together with its
    index — the bound a span-resume ``bisect`` would have produced.  The
    ensemble engine uses it to re-arm a whole batch of member timelines in
    one call when a group's level-stable span opens.
    """
    if not streams:
        return [], []
    return _active_impls.resume_runs(streams, frontiers)


_env_kernel = os.environ.get("REPRO_KERNEL", "").strip().lower()
if _env_kernel:
    if _env_kernel in KERNEL_NAMES:
        set_kernel(_env_kernel)
    else:
        warnings.warn(
            f"ignoring unknown REPRO_KERNEL={_env_kernel!r}; "
            f"known kernels: {KERNEL_NAMES}", RuntimeWarning)
