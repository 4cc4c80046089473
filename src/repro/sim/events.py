"""The discrete-event core: timestamped events and a deterministic queue.

The simulator is a classic discrete-event loop.  Two facts matter for
reproducibility:

* ties in time are broken by scheduling order, so two runs with the same
  seed pop events in exactly the same order;
* the queue stores opaque *items* and knows nothing about messages —
  message semantics live entirely in :mod:`repro.sim.network`.

:class:`EventQueue` is a bucket (calendar) queue: one list per distinct
timestamp and a heap over the distinct timestamps only.  Appending to
an existing bucket is a single ``list.append``, which is what makes
constant-delay workloads (the common case) cheap; a new timestamp gets a
fresh one-item list and a drained bucket is dropped (CPython's own free
list of list objects makes the next one cheap).
Within a bucket append order *is* scheduling order and buckets drain in
time order, so the total order is the classic ``(time, seq)``; same-time
items scheduled while a bucket drains are appended to the live bucket
and picked up in the same pass.

A :class:`SchedulerHook` may be installed to take over tie-breaking:
the hook's *frontier* is the unconsumed tail of the live bucket, and
whenever it holds more than one item the hook chooses which runs next
instead of the default FIFO order.  :meth:`EventQueue.clear` drops any
installed hook so a reused queue cannot leak one exploration's
tie-break state into the next.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable


class SchedulerHook:
    """Tie-break arbiter for equal-time events (duck-typed interface).

    Install one with :meth:`EventQueue.install_hook`.  Whenever two or
    more pending items share the minimum timestamp, the queue calls
    :meth:`choose` with the ready list — the unconsumed items of the
    live bucket in scheduling order, the order the default scheduler
    would have used — and runs the item at the returned index.  Message
    deliveries appear as the :class:`~repro.sim.messages.Message`
    itself, so a hook can make informed choices; every other item is a
    local action and should be treated as opaque.

    ``choose`` must return an index in ``range(len(ready))``; anything
    else raises ``IndexError`` at pop time.  Hooks see only *ordering*
    freedom the event model already allows, so any hook produces a
    legal execution.
    """

    def choose(self, ready: list[Any]) -> int:
        raise NotImplementedError


@dataclass(slots=True)
class Event:
    """A callback scheduled at a simulated time — the view type
    :meth:`EventQueue.schedule` and :meth:`EventQueue.pop` return."""

    time: float
    action: Callable[[], None]


class EventQueue:
    """A deterministic bucket queue of scheduled items.

    The queue also tracks the current simulated time: consuming an item
    advances ``now`` to that item's timestamp.  Scheduling into the past
    is a programming error and raises ``ValueError``.

    Items scheduled through :meth:`schedule` are zero-argument actions,
    and :meth:`pop` / :meth:`run_next` / :meth:`run_many` execute items
    as such.  An owner that appends other payloads through
    :meth:`push_at` must also be the one that drains them (the network's
    messages and ``(action, op_index)`` local events ride bare).
    """

    __slots__ = (
        "_buckets",
        "_times",
        "_active",
        "_active_pos",
        "_now",
        "_len",
        "_hook",
    )

    def __init__(self) -> None:
        self._buckets: dict[float, list[Any]] = {}
        self._times: list[float] = []
        # The live bucket (the one at ``now``) and the cursor into it.
        # It stays registered in ``_buckets`` until fully drained, so
        # zero-delay schedules land in it and run this pass.
        self._active: list[Any] | None = None
        self._active_pos = 0
        self._now = 0.0
        self._len = 0
        self._hook: SchedulerHook | None = None

    @property
    def now(self) -> float:
        """Current simulated time (time of the last consumed item)."""
        return self._now

    @property
    def scheduler_hook(self) -> SchedulerHook | None:
        """The installed tie-break hook, or ``None`` (default FIFO)."""
        return self._hook

    def install_hook(self, hook: SchedulerHook | None) -> None:
        """Install (or with ``None`` remove) a tie-break arbiter.

        While installed, every pop that finds several items sharing the
        minimum time asks ``hook.choose(ready)`` which runs first.
        Pending items keep their order either way.  The hook is dropped
        by :meth:`clear` — a reused queue always starts with default
        FIFO tie-breaking.
        """
        self._hook = hook

    def __len__(self) -> int:
        return self._len

    def __bool__(self) -> bool:
        return self._len > 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def push_at(self, time: float, item: Any) -> None:
        """Append *item* to the bucket for absolute *time*."""
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [item]
            heapq.heappush(self._times, time)
        else:
            bucket.append(item)
        self._len += 1

    def schedule(self, delay: float, action: Callable[[], None]) -> Event:
        """Schedule *action* to run *delay* time units from now.

        Returns the scheduled :class:`Event` (useful in tests).  A zero
        delay is allowed and preserves scheduling order among same-time
        events.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        time = self._now + delay
        self.push_at(time, action)
        return Event(time=time, action=action)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _next_item(self) -> Any:
        """Consume and return the next item, advancing ``now``.

        Raises ``IndexError`` on an empty queue (like ``heappop``).
        The network's fused drain loops inline this; keep them in sync.
        """
        bucket = self._active
        pos = self._active_pos
        if bucket is None or pos >= len(bucket):
            if bucket is not None:
                del self._buckets[self._now]
                self._active = None
            time = heapq.heappop(self._times)
            bucket = self._active = self._buckets[time]
            self._now = time
            pos = self._active_pos = 0
        hook = self._hook
        if hook is not None and len(bucket) - pos > 1:
            # The ready list is the unconsumed tail: drop the consumed
            # prefix so the bucket *is* that list, and remove the pick
            # in place so unchosen items keep their order.
            if pos:
                del bucket[:pos]
                self._active_pos = 0
            item = bucket.pop(hook.choose(bucket))
        else:
            item = bucket[pos]
            bucket[pos] = None
            self._active_pos = pos + 1
        self._len -= 1
        return item

    def pop(self) -> Event:
        """Remove and return the earliest event, advancing ``now``."""
        action = self._next_item()
        return Event(time=self._now, action=action)

    def run_next(self) -> None:
        """Pop the earliest event and execute its action."""
        self._next_item()()

    def run_many(self, limit: int) -> int:
        """Execute up to *limit* events; return how many ran."""
        ran = 0
        next_item = self._next_item
        while self._len and ran < limit:
            next_item()()
            ran += 1
        return ran

    def next_time(self) -> float | None:
        """Timestamp of the earliest pending item, or ``None`` if empty.

        A read-only peek — nothing is consumed and ``now`` does not
        move.  A live bucket with unconsumed items answers the current
        time; otherwise the earliest registered bucket time wins.
        """
        active = self._active
        if active is not None and self._active_pos < len(active):
            return self._now
        if self._times:
            return self._times[0]
        return None

    def clear(self) -> None:
        """Drop all pending events and reset the queue to its initial state.

        Simulated time returns to zero and any installed
        :class:`SchedulerHook` is removed, so a cleared queue is
        indistinguishable from a fresh one — a cleared-then-reused queue
        must not report the stale time of a schedule it abandoned nor
        replay a previous exploration's tie-break choices.
        """
        self._buckets.clear()
        self._times.clear()
        self._active = None
        self._active_pos = 0
        self._now = 0.0
        self._len = 0
        self._hook = None


# For the frozen bench/ probes; goes when a benchmark PR drops compat_*.
FlatEventQueue = EventQueue
