"""Resilience building blocks for the serving stack.

The paper guarantees the bottleneck; this module decides what happens
past it.  Every real deployment of a Θ(k)-bottlenecked counter
saturates — the serving knee of E24 locates *where* — so the service
needs machinery for the regime beyond the knee:

* :class:`ResilienceConfig` — the server-side policy knobs:
  bounded admission backlog (shed with ``ERR OVERLOADED`` instead of
  queueing without bound), per-request deadlines, request-id dedup
  capacity, protocol line limit, drain timeout;
* :class:`DedupTable` — exactly-once retry semantics: a bounded ledger
  mapping client-supplied request ids to in-flight or committed
  operations, so a retried ``INC`` attaches to the original instead of
  double-counting (the serving-layer twin of
  :class:`~repro.sim.transport.ReliableTransport`'s sequence-number
  dedup);
* :class:`RetryPolicy` / :class:`RetryBudget` — client-side capped
  exponential backoff with full jitter, and a shared budget so a sweep
  cannot amplify overload with unbounded retries;
* :class:`CircuitBreaker` — the classic closed → open → half-open
  machine on consecutive transport failures, failing fast locally
  instead of hammering a dead service.

All randomness (retry jitter) is seeded and all clocks are injectable,
so every component is deterministic under test.
"""

from __future__ import annotations

import random
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ConfigurationError

__all__ = [
    "CircuitBreaker",
    "DedupTable",
    "ResilienceConfig",
    "RetryBudget",
    "RetryPolicy",
]


@dataclass(frozen=True, slots=True)
class ResilienceConfig:
    """Server-side resilience policy for a :class:`~repro.serve.CounterService`.

    Attributes:
        max_backlog: operations allowed to *wait* for a free client
            processor (beyond the ``n`` in flight) before new arrivals
            are shed with ``ERR OVERLOADED``; ``None`` disables
            shedding (the pre-resilience unbounded behaviour).
        default_deadline: deadline in seconds applied to ``INC``
            requests that do not carry their own; ``None`` means no
            server-imposed deadline.
        dedup_capacity: bound on the request-id ledger; the oldest
            committed entries are evicted first.  A retry is
            recognised while fewer than ``dedup_capacity`` newer
            request ids were accepted since the original (see
            :class:`DedupTable`), so size it to the number of requests
            the service can accept within the longest retry delay —
            not to the service lifetime.
        line_limit: per-line byte bound on the TCP protocol reader; a
            longer line answers ``ERR LINE_TOO_LONG`` and drops the
            connection instead of growing memory without bound.
        drain_timeout: seconds a graceful ``SHUTDOWN`` waits for
            in-flight operations to commit before stopping anyway.
    """

    max_backlog: int | None = 256
    default_deadline: float | None = None
    dedup_capacity: int = 4096
    line_limit: int = 8192
    drain_timeout: float = 5.0

    def __post_init__(self) -> None:
        if self.max_backlog is not None and self.max_backlog < 0:
            raise ConfigurationError(
                f"max_backlog must be >= 0 or None, got {self.max_backlog}"
            )
        if self.default_deadline is not None and self.default_deadline <= 0:
            raise ConfigurationError(
                "default_deadline must be positive or None, "
                f"got {self.default_deadline}"
            )
        if self.dedup_capacity < 1:
            raise ConfigurationError(
                f"dedup_capacity must be >= 1, got {self.dedup_capacity}"
            )
        if self.line_limit < 16:
            raise ConfigurationError(
                f"line_limit must be >= 16 bytes, got {self.line_limit}"
            )
        if self.drain_timeout < 0:
            raise ConfigurationError(
                f"drain_timeout must be >= 0, got {self.drain_timeout}"
            )


class _RidEntry:
    """One request id's state: a future plus a committed flag."""

    __slots__ = ("future", "committed")

    def __init__(self, future: Any) -> None:
        self.future = future
        self.committed = False


class DedupTable:
    """Bounded request-id ledger giving retries exactly-once semantics.

    An entry is created the moment a request id is first seen (before
    admission), so two racing requests with the same id can never both
    inject an operation.  The entry's future resolves with the
    committed counter value — or with the admission error when the
    first attempt was shed or expired before injection, in which case
    the entry is removed and a later retry starts fresh.

    Eviction: a :meth:`create` that takes the table past ``capacity``
    evicts committed entries, oldest first (insertion order), until it
    fits again; pending entries are skipped and never evicted (they are
    bounded by the service's own in-flight + backlog caps).  The
    eviction costs one step per pending entry older than the oldest
    committed one — nothing that grows with ``capacity`` or with the
    number of request ids ever seen.

    The dedup window this gives, exactly: an answered request id is
    still recognised after ``capacity - 1`` newer ids were accepted,
    and is forgotten — a re-send runs as a new operation — once
    ``capacity`` newer ids were.  Newer ids that failed before
    injection (shed, expired) hold no slot and do not count; entries
    *older* than it that are still pending do, each shortening the
    window by one.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[str, _RidEntry] = OrderedDict()
        self.committed_total = 0
        """Distinct request ids whose operation committed, ever."""

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, rid: str) -> _RidEntry | None:
        """The live entry for *rid*, or ``None``."""
        return self._entries.get(rid)

    def create(self, rid: str, future: Any) -> _RidEntry:
        """Register a fresh pending entry for *rid* (must be unseen)."""
        if rid in self._entries:
            raise ConfigurationError(f"request id {rid!r} already tracked")
        entry = _RidEntry(future)
        self._entries[rid] = entry
        self._evict()
        return entry

    def commit(self, rid: str, value: int) -> None:
        """Resolve *rid* with its committed *value*."""
        entry = self._entries.get(rid)
        if entry is None:  # evicted mid-flight: impossible by policy
            return
        entry.committed = True
        self.committed_total += 1
        if not entry.future.done():
            entry.future.set_result(value)

    def fail(self, rid: str, error: BaseException) -> None:
        """Resolve *rid* with a pre-injection failure and forget it.

        Only legal before the operation was injected — afterwards the
        commit is inevitable and the entry must survive for retries.
        """
        entry = self._entries.pop(rid, None)
        if entry is None:
            return
        if not entry.future.done():
            entry.future.set_exception(error)
            # a retry may arrive only after this future was awaited; if
            # nobody ever awaits it, don't warn at garbage collection
            entry.future.exception()

    def _evict(self) -> None:
        entries = self._entries
        while len(entries) > self.capacity:
            # Walk from the oldest entry to the first committed one; the
            # walk is abandoned before the delete, so nothing is copied.
            for rid, entry in entries.items():
                if entry.committed:
                    break
            else:
                return  # everything live is pending
            del entries[rid]


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Capped exponential backoff with full jitter.

    Attempt ``k`` (0-based first *retry*) sleeps a uniform random
    duration in ``[0, min(max_delay, base_delay * 2**k)]`` — the
    "full jitter" scheme, which decorrelates retry storms instead of
    synchronizing them.

    Attributes:
        attempts: total tries per operation (first attempt + retries).
        base_delay: backoff scale in seconds.
        max_delay: backoff cap in seconds.
    """

    attempts: int = 4
    base_delay: float = 0.01
    max_delay: float = 0.5

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ConfigurationError(
                f"attempts must be >= 1, got {self.attempts}"
            )
        if self.base_delay < 0 or self.max_delay < self.base_delay:
            raise ConfigurationError(
                "need 0 <= base_delay <= max_delay, got "
                f"base={self.base_delay} max={self.max_delay}"
            )

    def delay(self, retry_index: int, rng: random.Random) -> float:
        """The jittered sleep before retry number *retry_index* (0-based)."""
        ceiling = min(self.max_delay, self.base_delay * (2 ** retry_index))
        return rng.uniform(0.0, ceiling)

    def worst_case_latency(self, attempt_timeout: float) -> float:
        """Upper bound on one operation's client-observed latency.

        Every attempt takes at most *attempt_timeout*, and every retry
        sleeps at most its backoff ceiling — the bound E26 asserts p99
        against.
        """
        total = self.attempts * attempt_timeout
        for retry_index in range(self.attempts - 1):
            total += min(self.max_delay, self.base_delay * (2 ** retry_index))
        return total


class RetryBudget:
    """A shared cap on total retries (one per sweep, not per request).

    Unbounded per-request retries amplify overload: at 2x the knee,
    every shed request retried forever doubles offered load again.  A
    budget makes the amplification factor explicit and finite.
    """

    def __init__(self, total: int) -> None:
        if total < 0:
            raise ConfigurationError(f"budget must be >= 0, got {total}")
        self.total = total
        self.used = 0

    @property
    def remaining(self) -> int:
        return self.total - self.used

    def take(self) -> bool:
        """Consume one retry token; ``False`` when the budget is dry."""
        if self.used >= self.total:
            return False
        self.used += 1
        return True


class CircuitBreaker:
    """Consecutive-failure circuit breaker: closed → open → half-open.

    * **closed** — requests flow; ``failure_threshold`` consecutive
      transport failures trip the breaker;
    * **open** — requests fail fast (the pool raises
      :class:`~repro.errors.CircuitOpenError`) for ``reset_timeout``
      seconds;
    * **half-open** — exactly one probe request is allowed through;
      success closes the breaker, failure re-opens it for another
      ``reset_timeout``.

    The clock is injectable for deterministic tests.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout: float = 1.0,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ConfigurationError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_timeout <= 0:
            raise ConfigurationError(
                f"reset_timeout must be positive, got {reset_timeout}"
            )
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._clock = clock
        self._consecutive_failures = 0
        self._opened_at: float | None = None
        self._probing = False
        self.trips = 0
        """Times the breaker has opened (monitoring counter)."""

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"`` or ``"half-open"``."""
        if self._opened_at is None:
            return "closed"
        if self._probing:
            return "half-open"
        if self._clock() - self._opened_at >= self.reset_timeout:
            return "half-open"
        return "open"

    def allow(self) -> bool:
        """May a request proceed right now?

        In half-open state the first caller becomes the probe; callers
        racing the probe are refused until it resolves.
        """
        if self._opened_at is None:
            return True
        if self._probing:
            return False
        if self._clock() - self._opened_at >= self.reset_timeout:
            self._probing = True
            return True
        return False

    def record_success(self) -> None:
        """A request completed its transport round-trip."""
        self._consecutive_failures = 0
        self._opened_at = None
        self._probing = False

    def record_failure(self) -> None:
        """A request failed at the transport level."""
        self._consecutive_failures += 1
        if self._probing:
            # failed probe: re-open for a fresh timeout
            self._opened_at = self._clock()
            self._probing = False
            self.trips += 1
        elif (
            self._opened_at is None
            and self._consecutive_failures >= self.failure_threshold
        ):
            self._opened_at = self._clock()
            self.trips += 1
