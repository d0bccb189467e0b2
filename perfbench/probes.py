"""Layer attribution for traced runs: hot-boundary counters and span trees.

Two instruments, both installed from the benchmark's side of the program's
public classes and removed afterwards:

* :class:`Probes` wraps hot methods (cache, ports, buses, DRAM, MSHR,
  mechanism hooks) and keeps, per boundary, a call count and summed total
  and self nanoseconds.  One span per call would not fit in memory, so
  the counters are snapshotted per cell and attached to the cell's span.
* Coarse boundaries (workload build, each cell, ``Executor.run``, store
  and journal calls, lint rule families) are spans in a private
  :class:`repro.obs.tracing.Tracer`; the program's global ``TRACER`` and
  its own internal spans stay off.

Self time is a boundary's duration minus the part of it that its children
cover: :class:`Probes` computes it on the fly with a stack of child-time
accumulators, :func:`span_self_us` computes it after the fact from
exported complete ("X") events.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


class Counter:
    """Calls, total and self nanoseconds of one boundary."""

    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class Probes:
    """Counting, timing wrappers around methods of the program's classes."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.counters: Dict[str, Counter] = {}
        #: Child-time accumulator of each open wrapped call; the bottom
        #: entry collects top-level time and is never popped.
        self._stack: List[int] = [0]
        self._patches = Patches()

    def counter(self, key: str) -> Counter:
        found = self.counters.get(key)
        if found is None:
            found = self.counters[key] = Counter()
        return found

    def wrap(self, fn: Callable, key: Any) -> Callable:
        """``fn`` counted under ``key``: a boundary name, or a function of
        the call's first argument (the instance) returning one."""
        stack = self._stack
        clock = self.clock
        if isinstance(key, str):
            fixed = self.counter(key)
            pick: Callable[[Any], Counter] = lambda _args: fixed
        else:
            pick = lambda args: self.counter(key(args[0]))

        @functools.wraps(fn)
        def probed(*args: Any, **kwargs: Any) -> Any:
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                counter = pick(args)
                counter.calls += 1
                counter.total_ns += elapsed
                counter.self_ns += elapsed - child
                stack[-1] += elapsed

        return probed

    def patch(self, cls: type, name: str, key: Any,
              fn: Optional[Callable] = None) -> None:
        """Replace ``cls.name`` with a probed ``fn`` until :meth:`remove`.

        ``fn`` defaults to the method found through the MRO; it is set on
        ``cls`` itself, so a subclass is probed without touching its base.
        """
        if fn is None:
            fn = getattr(cls, name)
        self._patches.replace(cls, name, self.wrap(fn, key))

    def remove(self) -> None:
        """Restore every patched method."""
        self._patches.undo()

    def take(self) -> Dict[str, Tuple[int, int, int]]:
        """Return ``{key: (calls, total_ns, self_ns)}`` and zero the counters."""
        snapshot = {}
        for key, c in self.counters.items():
            if c.calls:
                snapshot[key] = (c.calls, c.total_ns, c.self_ns)
            c.calls = c.total_ns = c.self_ns = 0
        return snapshot


_ABSENT = object()


class Patches:
    """Reversible replacement of class attributes and mapping entries."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def replace(self, owner: Any, name: str, value: Any) -> None:
        if isinstance(owner, dict):
            self._saved.append((owner, name, owner.get(name, _ABSENT)))
            owner[name] = value
        else:
            self._saved.append((owner, name, owner.__dict__.get(name, _ABSENT)))
            setattr(owner, name, value)

    def span(self, owner: Any, name: str, tracer: Any, span: str,
             cat: str) -> None:
        """Record every call of ``owner.name`` as a ``span`` in ``tracer``."""
        fn = owner[name] if isinstance(owner, dict) else getattr(owner, name)

        @functools.wraps(fn)
        def spanned(*args: Any, **kwargs: Any) -> Any:
            tracer.begin(span, cat=cat)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end()

        self.replace(owner, name, spanned)

    def undo(self) -> None:
        """Put back everything replaced, newest first."""
        while self._saved:
            owner, name, original = self._saved.pop()
            if isinstance(owner, dict):
                if original is _ABSENT:
                    owner.pop(name, None)
                else:
                    owner[name] = original
            elif original is _ABSENT:
                delattr(owner, name)
            else:
                setattr(owner, name, original)


def add_into(totals: Dict[str, List[int]],
             snapshot: Dict[str, Tuple[int, int, int]]) -> None:
    """Accumulate one :meth:`Probes.take` snapshot into ``totals``."""
    for key, values in snapshot.items():
        acc = totals.setdefault(key, [0, 0, 0])
        for i, value in enumerate(values):
            acc[i] += value


def span_self_us(events: Iterable[Dict[str, Any]]) -> Dict[str, float]:
    """Summed self time per span name, in microseconds.

    Each complete event's self time is its duration minus the union of the
    intervals of the spans directly inside it.  Spans nest by containment
    on the same ``(pid, tid)``, as the tracer emits them.
    """
    by_thread: Dict[Tuple[int, int], List[Dict[str, Any]]] = {}
    for event in events:
        if event.get("ph") == "X":
            by_thread.setdefault((event["pid"], event["tid"]), []).append(event)
    totals: Dict[str, float] = {}
    for spans in by_thread.values():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        children: Dict[int, List[Tuple[float, float]]] = {}
        open_: List[Tuple[int, float]] = []  # (index, end)
        for i, span in enumerate(spans):
            start, end = span["ts"], span["ts"] + span["dur"]
            while open_ and open_[-1][1] <= start:
                open_.pop()
            if open_:
                children.setdefault(open_[-1][0], []).append((start, end))
            open_.append((i, end))
        for i, span in enumerate(spans):
            covered = _covered(children.get(i, ()), span["ts"],
                               span["ts"] + span["dur"])
            name = span["name"]
            totals[name] = totals.get(name, 0.0) + span["dur"] - covered
    return totals


def _covered(intervals: Iterable[Tuple[float, float]],
             lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    covered = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def private_tracer() -> Any:
    """A started tracer of the program's own type, separate from ``TRACER``."""
    from repro.obs.tracing import Tracer

    return Tracer().start()


def ns_to_s(ns: Optional[int]) -> float:
    return (ns or 0) / 1e9
