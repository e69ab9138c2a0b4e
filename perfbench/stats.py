"""The benchmark's arithmetic: medians, spreads, the percentile rule, the
failure ratio, and the self time of traced layers.

Everything here is a pure function of its arguments so that
``perfbench/selftest.py`` can check it without starting a daemon.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A traced interval: ``(thread, layer, start, end)``.  ``layer=None`` marks
#: an idle interval (a long-poll waiting for records): its time is taken
#: from the span it is nested in and counted for no layer.
Span = Tuple[int, Optional[str], float, float]

#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def spread(values: Sequence[float]) -> Optional[float]:
    """Inter-quartile distance as a share of the median (None below 2)."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    centre = statistics.median(values)
    return (q3 - q1) / centre if centre else None


def reportable_percentile(values: Sequence[float], pct: float,
                          min_beyond: int = MIN_SAMPLES_BEYOND
                          ) -> Optional[float]:
    """Nearest-rank ``pct`` percentile, or None when fewer than
    ``min_beyond`` samples lie above its rank.

    The p90 of 100 samples is the 90th smallest with 10 samples beyond it,
    so it is reported; with 99 samples only 9 lie beyond, so it is not.
    """
    n = len(values)
    if n == 0:
        return None
    rank = max(1, math.ceil(pct / 100.0 * n))
    if n - rank < min_beyond:
        return None
    return sorted(values)[rank - 1]


def failed_ratio(failed_flags: Iterable[bool]) -> float:
    """Failures over attempts; an attempt is one submitted job."""
    flags = list(failed_flags)
    if not flags:
        raise ValueError("no attempts to take a failure ratio over")
    return sum(1 for flag in flags if flag) / len(flags)


def _leaf_segments(spans: List[Tuple[float, float, Optional[str]]]
                   ) -> List[Tuple[float, float, Optional[str]]]:
    """Split one thread's nested spans into intervals owned by the innermost
    open span, by a sweep over span boundaries."""
    segments = []
    stack: List[Tuple[float, Optional[str]]] = []      # (end, layer)
    cursor = 0.0
    for start, end, layer in sorted(spans, key=lambda s: (s[0], -s[1])):
        while stack and stack[-1][0] <= start:
            closed_end, closed = stack.pop()
            segments.append((cursor, closed_end, closed))
            cursor = closed_end
        if stack:
            segments.append((cursor, start, stack[-1][1]))
        stack.append((end, layer))
        cursor = start
    while stack:
        closed_end, closed = stack.pop()
        segments.append((cursor, closed_end, closed))
        cursor = closed_end
    return [seg for seg in segments if seg[1] > seg[0]]


def _by_thread(spans: Iterable[Span], window_start: float,
               window_end: float) -> Dict[int, List]:
    """The spans that start inside the window, per thread."""
    by_thread: Dict[int, List] = defaultdict(list)
    for thread, layer, start, end in spans:
        if window_start <= start < window_end:
            by_thread[thread].append((start, end, layer))
    return by_thread


def self_times(spans: Iterable[Span], window_start: float,
               window_end: float
               ) -> Tuple[Dict[str, float], Dict[int, float], int]:
    """Self time per layer: each span's duration minus the durations of the
    spans directly nested in it, summed over all threads.

    Only spans that start inside the window count.  Returns the per-layer
    totals, each thread's total over all layers, and the number of spans
    that end after the span they start in (calls on one thread nest, so
    any such span is a tracing fault).  Idle spans (``layer=None``) are
    subtracted from their parent and counted for no layer.
    """
    totals: Dict[str, float] = defaultdict(float)
    per_thread: Dict[int, float] = {}
    misnested = 0
    for thread, thread_spans in _by_thread(
            spans, window_start, window_end).items():
        own = [end - start for start, end, _ in thread_spans]
        ordered = sorted(range(len(thread_spans)), key=lambda i: (
            thread_spans[i][0], -thread_spans[i][1]))
        stack: List[int] = []
        for i in ordered:
            start, end, _layer = thread_spans[i]
            while stack and thread_spans[stack[-1]][1] <= start:
                stack.pop()
            if stack:
                parent = stack[-1]
                if end > thread_spans[parent][1]:
                    misnested += 1
                own[parent] -= end - start
            stack.append(i)
        per_thread[thread] = 0.0
        for (_start, _end, layer), seconds in zip(thread_spans, own):
            if layer is not None:
                totals[layer] += seconds
                per_thread[thread] += seconds
    return dict(totals), per_thread, misnested


def busy_times(spans: Iterable[Span], window_start: float,
               window_end: float) -> Dict[int, float]:
    """Per thread, the wall time inside the window during which its
    innermost open span is a layer (not idle).

    This is computed by a sweep over span boundaries clipped to the window,
    independently of :func:`self_times`: on a thread whose spans nest and
    end inside the window the two agree, so a gap between them means the
    tracing is wrong or work outlived the window.
    """
    busy: Dict[int, float] = {}
    for thread, thread_spans in _by_thread(
            spans, window_start, window_end).items():
        busy[thread] = sum(
            min(end, window_end) - max(start, window_start)
            for start, end, layer in _leaf_segments(thread_spans)
            if layer is not None and min(end, window_end) > start)
    return busy
