"""In-memory spans recorded around calls into the program's layers.

A span is (name, start, end, parent index).  Spans stay in memory while the
traced pass runs and are reduced to per-name totals at the end.  Wrapping
is done from outside the program: every module attribute bound to a wrapped
function is rebound to one shared wrapper, so a function imported under
several names is still counted once per call.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional


class Tracer:
    """Records nested spans and named counters for one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []      # [name, start, end, parent]
        self.counters: Dict[str, float] = defaultdict(float)
        self._open: List[int] = []

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.clock(), None, parent])
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._open.pop()

    def current(self) -> Optional[str]:
        """Name of the innermost open span, or None outside all spans."""
        return self.spans[self._open[-1]][0] if self._open else None

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] += amount


def summarize(spans: Iterable[list]) -> Dict[str, dict]:
    """Per-name calls, inclusive time and self time.

    Self time is a span's duration minus the durations of its direct
    children (children of one span never overlap: calls are synchronous).
    Inclusive time counts only the outermost span of a name, so a function
    that re-enters itself is not counted twice.
    """
    spans = list(spans)
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: Dict[str, dict] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "time_s": 0.0, "self_s": 0.0})
        dur = end - start
        agg["calls"] += 1
        agg["self_s"] += dur - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            agg["time_s"] += dur
    return out


def wrap(tracer: Tracer, fn: Callable, name: str,
         name_of: Optional[Callable] = None,
         before: Optional[Callable] = None,
         after: Optional[Callable] = None) -> Callable:
    """A wrapper recording one span per call of fn.

    name_of(args, kwargs) may refine the span name; before(args, kwargs)
    and after(args, kwargs, result) update counters outside the span.
    """
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        index = tracer.open(name if name_of is None else name_of(args, kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            after(args, kwargs, result)
        return result

    return traced


def rebind(modules: Iterable, original: Callable, replacement: Callable) -> int:
    """Point every attribute of the modules bound to original at replacement.

    Returns the number of bindings changed.
    """
    changed = 0
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                changed += 1
    return changed


class FirstSeen:
    """Counts calls whose key was already seen earlier in the process."""

    def __init__(self):
        self.seen = set()
        self.calls = 0
        self.hits = 0

    def observe(self, key) -> bool:
        self.calls += 1
        hit = key in self.seen
        self.hits += hit
        self.seen.add(key)
        return hit

    @property
    def ratio(self) -> float:
        return self.hits / self.calls if self.calls else 0.0
