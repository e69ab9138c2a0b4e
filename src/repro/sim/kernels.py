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
from typing import Callable, Dict, List, NamedTuple, Tuple

import numpy as np

__all__ = [
    "KERNEL_NAMES",
    "MergedCandidates",
    "active_kernel",
    "frontier_key",
    "merge_candidates",
    "select_failures",
    "set_kernel",
]

#: Selectable kernel implementations (``REPRO_KERNEL``).
KERNEL_NAMES = ("numpy", "numba")


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


KernelImpl = Callable[[MergedCandidates, int, int, int],
                     Tuple[List[int], int]]


def _make_numba_impl() -> KernelImpl:
    """Jit-compile the kernel (raises ImportError without numba)."""
    import numba

    jitted = numba.njit(cache=True)(_select_failures_impl)

    def run(merged: MergedCandidates, end_cycle: int, recompute: int,
            frontier: int) -> Tuple[List[int], int]:
        keys = merged.keys
        out_keys = np.empty(keys.shape[0], dtype=np.int64)
        count, new_frontier = jitted(keys, merged.shift, end_cycle,
                                     recompute, frontier, out_keys)
        return out_keys[:count].tolist(), int(new_frontier)

    return run


_IMPLS: Dict[str, KernelImpl] = {"numpy": _select_failures_numpy}
_active_name = "numpy"
_active_impl: KernelImpl = _select_failures_numpy


def set_kernel(name: str) -> str:
    """Select the active kernel implementation; returns the previous name.

    ``"numba"`` without the wheel installed emits a ``RuntimeWarning`` and
    keeps the default kernel — the jit is an accelerator, never a dependency.
    """
    global _active_name, _active_impl
    if name not in KERNEL_NAMES:
        raise ValueError(f"unknown kernel {name!r}; known: {KERNEL_NAMES}")
    previous = _active_name
    if name == "numba" and "numba" not in _IMPLS:
        try:
            _IMPLS["numba"] = _make_numba_impl()
        except ImportError:
            warnings.warn(
                "REPRO_KERNEL=numba requested but numba is not installed; "
                "falling back to the pure-numpy kernel", RuntimeWarning,
                stacklevel=2)
            name = "numpy"
    _active_name = name
    _active_impl = _IMPLS[name]
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
    return _active_impl(merged, end_cycle, recompute, frontier)


_env_kernel = os.environ.get("REPRO_KERNEL", "").strip().lower()
if _env_kernel:
    if _env_kernel in KERNEL_NAMES:
        set_kernel(_env_kernel)
    else:
        warnings.warn(
            f"ignoring unknown REPRO_KERNEL={_env_kernel!r}; "
            f"known kernels: {KERNEL_NAMES}", RuntimeWarning)
