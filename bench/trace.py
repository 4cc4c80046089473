"""Span tracing from outside the program.

The traced run patches public entry points (methods on a class, or a
function in a module) with wrappers that record one span per call:
name, request id, parent span, start, end, busy time and an optional
work count read from the return value.  Spans stay in memory and are
written as JSON lines when the run ends.

Everything runs on one thread, so at any instant exactly one piece of
code executes and busy intervals nest like a call stack — also under
asyncio: a traced coroutine is stepped by hand, each step from resume
to the next suspension is one busy interval, and the parent of a new
span is whatever span is executing when it starts.  A span's *busy*
time is the sum of its intervals (for a plain call, its duration); its
*self* time is busy minus the busy time of its direct children.  Self
times therefore add up to the busy time of the root span, which is the
identity :func:`self_time_share` checks.
"""

from __future__ import annotations

import inspect
import json
import time
import types
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

NAME, RID, PARENT, START, END, BUSY, WORK = range(7)

RidOf = Callable[[tuple, dict], Any]
WorkOf = Callable[[Any], int]


@dataclass(slots=True)
class SpanStats:
    """All spans of one name, aggregated."""

    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    work: int = 0
    durations: list[float] = field(default_factory=list)
    waits: list[float] = field(default_factory=list)
    """Per span, ``end - start - busy``: time suspended at an await."""


class Tracer:
    """Records spans around patched entry points."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _open(self, name: str, rid: Any) -> tuple[int, list[Any]]:
        stack = self._stack
        span = [name, rid, stack[-1] if stack else -1, 0.0, 0.0, 0.0, 0]
        self.spans.append(span)
        return len(self.spans) - 1, span

    @contextmanager
    def span(self, name: str, rid: Any = None) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        index, span = self._open(name, rid)
        self._stack.append(index)
        span[START] = time.perf_counter()
        try:
            yield
        finally:
            span[END] = time.perf_counter()
            span[BUSY] = span[END] - span[START]
            self._stack.pop()

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        rid: RidOf | None = None,
        work: WorkOf | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a recording wrapper until
        :meth:`unpatch_all`.  *owner* is a class or a module; *rid*
        maps the call's ``(args, kwargs)`` to a request id (a span
        without one inherits its parent's); *work* maps the return
        value to a count of work done."""
        original = getattr(owner, attr)
        if inspect.iscoroutinefunction(original):
            wrapper = self._wrap_async(original, name, rid, work)
        else:
            wrapper = self._wrap_sync(original, name, rid, work)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def unpatch_all(self) -> None:
        """Put every patched attribute back."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap_sync(self, original, name, rid, work):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index, span = self._open(
                name, rid(args, kwargs) if rid is not None else None
            )
            stack.append(index)
            span[START] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = clock()
                span[BUSY] = span[END] - span[START]
                stack.pop()
            if work is not None:
                span[WORK] = work(result)
            return result

        return traced

    def _wrap_async(self, original, name, rid, work):
        stack = self._stack
        clock = time.perf_counter

        @types.coroutine
        def traced(*args, **kwargs):
            index, span = self._open(
                name, rid(args, kwargs) if rid is not None else None
            )
            coro = original(*args, **kwargs)
            span[START] = clock()
            busy = 0.0
            value, error = None, None
            try:
                while True:
                    stack.append(index)
                    resumed = clock()
                    try:
                        if error is None:
                            yielded = coro.send(value)
                        else:
                            yielded = coro.throw(error)
                    except StopIteration as stop:
                        result = stop.value
                        break
                    finally:
                        busy += clock() - resumed
                        stack.pop()
                    value, error = None, None
                    try:
                        value = yield yielded
                    except GeneratorExit:
                        coro.close()
                        raise
                    except BaseException as thrown:  # cancellation too:
                        error = thrown  # forwarded into the coroutine
            finally:
                span[END] = clock()
                span[BUSY] = busy
            if work is not None:
                span[WORK] = work(result)
            return result

        return traced

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def self_times(self) -> list[float]:
        """Self time of every span, in span order."""
        own = [span[BUSY] for span in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= span[BUSY]
        return own

    def summary(self, under: str | None = None) -> dict[str, SpanStats]:
        """Per-name aggregates; a missing name means the layer was idle.

        With *under*, only spans that descend from a span of that name
        are counted (``"bench.drive"``: the timed part of a repeat)."""
        stats: dict[str, SpanStats] = {}
        inside: list[bool] = []
        for span, own in zip(self.spans, self.self_times()):
            parent = span[PARENT]
            inside.append(
                under is None
                or span[NAME] == under
                or (parent >= 0 and inside[parent])
            )
            if not inside[-1]:
                continue
            entry = stats.get(span[NAME])
            if entry is None:
                entry = stats[span[NAME]] = SpanStats()
            entry.calls += 1
            entry.busy_s += span[BUSY]
            entry.self_s += own
            entry.work += span[WORK]
            duration = span[END] - span[START]
            entry.durations.append(duration)
            entry.waits.append(duration - span[BUSY])
        return stats

    def self_time_share(self) -> float:
        """Sum of all self times over the wall time of the root spans.

        1.0 when spans nest properly; the acceptance bound is 5 %."""
        wall = sum(
            span[END] - span[START]
            for span in self.spans
            if span[PARENT] < 0
        )
        return sum(self.self_times()) / wall if wall else 0.0

    def write(self, path) -> None:
        """One JSON object per span, times in seconds from the first
        span's start; ``rid`` is inherited from the parent when the
        span has none of its own."""
        spans = self.spans
        origin = spans[0][START] if spans else 0.0
        own = self.self_times()
        with open(path, "w", encoding="ascii") as out:
            for index, span in enumerate(spans):
                rid, parent = span[RID], span[PARENT]
                if rid is None and parent >= 0:
                    rid = span[RID] = spans[parent][RID]
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span[NAME],
                            "rid": rid,
                            "parent": parent,
                            "start": span[START] - origin,
                            "end": span[END] - origin,
                            "busy": span[BUSY],
                            "self": own[index],
                            "work": span[WORK],
                        }
                    )
                )
                out.write("\n")
