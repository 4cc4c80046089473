"""Open-loop load generation against a running counter service.

The generator is *open-loop*: request send times come from an arrival
process (Poisson or bursty, see
:mod:`repro.workloads.sequences`) fixed before the run, independent of
how fast the server answers.  Latency is measured from the scheduled
arrival time — a request that had to wait for a free connection counts
that wait, exactly like a user behind a saturated service would.  This
is the measurement discipline that makes the saturation knee visible;
a closed-loop client would politely slow down instead.

Resilience (opt-in via ``retry=``): each request carries a unique
request id and a deadline, failures are classified and counted per
type instead of killing the run, retries back off exponentially with
full jitter under a shared :class:`~repro.serve.resilience.RetryBudget`,
and the connection pool sits behind a
:class:`~repro.serve.resilience.CircuitBreaker` that fails fast after
consecutive transport errors.  Because the server dedups request ids,
a retried increment can never double-count — the client may safely
retry even ``ERR DEADLINE_EXCEEDED``, whose operation might have
committed.

:func:`run_load` drives one offered rate; :func:`run_rate_sweep` walks
an ascending rate grid and reports the detected knee
(:func:`repro.analysis.latency.detect_knee` on mean latency).
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field

from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    OverloadedError,
    ProtocolError,
    ServiceStoppedError,
)
from repro.serve.resilience import CircuitBreaker, RetryBudget, RetryPolicy
from repro.workloads.sequences import arrival_times, percentile, zipf_keys

__all__ = [
    "KeyedLoadResult",
    "LoadResult",
    "SweepResult",
    "run_keyed_load",
    "run_load",
    "run_rate_sweep",
]


@dataclass(slots=True)
class LoadResult:
    """One load-generation run at a single offered rate."""

    offered_rate: float
    process: str
    sent: int
    completed: int
    errors: int
    duration: float
    final_value: int
    latencies: list[float] = field(default_factory=list)
    values: list[int] = field(default_factory=list)
    error_counts: dict[str, int] = field(default_factory=dict)
    retries: int = 0

    @property
    def throughput(self) -> float:
        """Completed operations per second over the run (goodput)."""
        if self.duration <= 0:
            return 0.0
        return self.completed / self.duration

    @property
    def mean_latency(self) -> float:
        """Average arrival-to-response latency in seconds."""
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)

    def percentile(self, q: float) -> float:
        """Latency at quantile *q* in [0, 1] (nearest-rank), seconds."""
        return percentile(self.latencies, q)

    @property
    def p50(self) -> float:
        """Median latency, seconds."""
        return self.percentile(0.50)

    @property
    def p99(self) -> float:
        """99th-percentile latency, seconds."""
        return self.percentile(0.99)

    def summary(self) -> str:
        """One human-readable line (the CLI's per-rate output)."""
        line = (
            f"rate={self.offered_rate:g}/s sent={self.sent} "
            f"ok={self.completed} err={self.errors} "
            f"tput={self.throughput:.1f}/s "
            f"p50={self.p50 * 1000:.2f}ms p99={self.p99 * 1000:.2f}ms"
        )
        if self.retries:
            line += f" retries={self.retries}"
        if self.error_counts:
            breakdown = ",".join(
                f"{kind}:{count}"
                for kind, count in sorted(self.error_counts.items())
            )
            line += f" err_types={breakdown}"
        return line


@dataclass(slots=True)
class KeyedLoadResult(LoadResult):
    """A keyed load run: per-key values on top of the usual metrics.

    ``key_values`` maps each key to the values its completed requests
    observed.  Because a key's value is its private ledger count, the
    exactness oracle is per key: when every request for key ``k``
    completed, ``sorted(key_values[k])`` must be a contiguous run of
    consecutive integers — each increment got a distinct consecutive
    slot, none lost, none doubled.  Against a fresh service the run
    starts at 0; against a service that already served the key it
    starts at the key's prior count, which is why the check anchors at
    the observed minimum rather than at zero.
    """

    key_population: int = 0
    key_values: dict[str, list[int]] = field(default_factory=dict)

    def exactness_violations(self) -> list[str]:
        """Keys whose observed values are not one consecutive run."""
        violations = []
        for key, values in sorted(self.key_values.items()):
            lo = min(values)
            if sorted(values) != list(range(lo, lo + len(values))):
                violations.append(key)
        return violations


@dataclass(slots=True)
class SweepResult:
    """A rate sweep and its detected saturation knee."""

    runs: list[LoadResult]
    knee_rate: float | None

    @property
    def rates(self) -> list[float]:
        """The swept offered rates, ascending."""
        return [run.offered_rate for run in self.runs]


def _classify(error: BaseException) -> str:
    """Map a per-request failure to its accounting bucket."""
    if isinstance(error, OverloadedError):
        return "overloaded"
    if isinstance(error, DeadlineExceededError):
        return "deadline"
    if isinstance(error, CircuitOpenError):
        return "circuit_open"
    if isinstance(error, ServiceStoppedError):
        return "shutting_down"
    if isinstance(error, asyncio.TimeoutError):
        return "timeout"
    if isinstance(error, (ConnectionError, OSError, asyncio.IncompleteReadError)):
        return "connection"
    return "protocol"


_RETRYABLE = ("overloaded", "deadline", "circuit_open", "timeout", "connection")
"""Buckets worth retrying: transient overload or transport loss.  A
``protocol`` error is a contract violation and a ``shutting_down``
answer will not get better — neither is retried."""

_ERR_CODES: dict[str, type[Exception]] = {
    "OVERLOADED": OverloadedError,
    "DEADLINE_EXCEEDED": DeadlineExceededError,
    "SHUTTING_DOWN": ServiceStoppedError,
}


class _ConnectionPool:
    """A lazily-grown pool of persistent connections to the service.

    One request is in flight per connection (the line protocol answers
    in order), so the pool size caps client-side concurrency; arrivals
    beyond it wait for a free connection and their wait counts toward
    measured latency.

    A connection that fails mid-request is *discarded* — its slot
    returns to the pool as a permission to dial a fresh connection, so
    chaos-induced resets cannot silently shrink client concurrency to
    zero.  An optional :class:`CircuitBreaker` gates acquisition.
    """

    def __init__(
        self,
        host: str,
        port: int,
        limit: int,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        self._host = host
        self._port = port
        self._limit = limit
        self._breaker = breaker
        self._created = 0
        # holds live (reader, writer) pairs and None tokens, each token
        # being permission to dial a replacement connection
        self._free: asyncio.Queue = asyncio.Queue()

    async def _dial(self):
        self._created += 1
        try:
            connection = await asyncio.open_connection(self._host, self._port)
        except BaseException:
            self._created -= 1
            self.note_failure()
            raise
        return connection

    async def acquire(self):
        if self._breaker is not None and not self._breaker.allow():
            raise CircuitOpenError(
                f"circuit breaker is {self._breaker.state}; "
                "failing fast instead of dialing"
            )
        if self._free.empty() and self._created < self._limit:
            return await self._dial()
        connection = await self._free.get()
        if connection is None:  # a discarded slot: dial a replacement
            return await self._dial()
        return connection

    def release(self, connection) -> None:
        self._free.put_nowait(connection)

    def discard(self, connection) -> None:
        """Drop a broken connection; free its slot for a fresh dial."""
        _, writer = connection
        writer.close()
        self._created -= 1
        self._free.put_nowait(None)

    def note_success(self) -> None:
        if self._breaker is not None:
            self._breaker.record_success()

    def note_failure(self) -> None:
        if self._breaker is not None:
            self._breaker.record_failure()

    async def close(self) -> None:
        while not self._free.empty():
            connection = self._free.get_nowait()
            if connection is None:
                continue
            _, writer = connection
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass


async def _inc_once(
    pool: _ConnectionPool,
    rid: str | None = None,
    deadline: float | None = None,
    timeout: float | None = None,
    key: str | None = None,
) -> int:
    """One INC round-trip over a pooled connection; returns the value.

    With *key* the request is the keyed form ``INC <key> [rid]
    [deadline_ms]`` (see :class:`~repro.serve.KeyedCounterService`).
    *timeout* bounds the round-trip on the client side (a blackholed
    connection would otherwise hang forever); on timeout the connection
    is discarded, because a late response would desynchronize the
    request/response pairing of the pooled stream.
    """
    connection = await pool.acquire()
    reader, writer = connection
    request = "INC" if key is None else f"INC {key}"
    if rid is not None:
        request += f" {rid}"
        if deadline is not None:
            request += f" {deadline * 1000:g}"
    try:
        writer.write(f"{request}\n".encode("ascii"))
        await writer.drain()
        if timeout is None:
            line = await reader.readline()
        else:
            line = await asyncio.wait_for(reader.readline(), timeout)
    except BaseException:
        pool.discard(connection)
        pool.note_failure()
        raise
    if not line.endswith(b"\n"):
        # empty (EOF) or truncated mid-line: the connection died and
        # the answer — if any — is unusable; the operation may still
        # have committed server-side, so this must stay retryable
        pool.discard(connection)
        pool.note_failure()
        raise ConnectionResetError(
            "connection lost mid-answer"
            if line
            else "server closed the connection mid-request"
        )
    text = line.decode("ascii", "replace").strip()
    pool.release(connection)
    pool.note_success()
    if text.startswith("OK "):
        return int(text[3:])
    if text.startswith("ERR "):
        code = text[4:].split(None, 1)[0] if len(text) > 4 else ""
        error_type = _ERR_CODES.get(code, ProtocolError)
        raise error_type(f"INC failed: server answered {text!r}")
    raise ProtocolError(f"INC failed: server answered {text!r}")


async def _drive(
    host: str,
    port: int,
    ops: int,
    rate: float,
    request_keys: list[str] | None,
    default_rid_prefix: str,
    *,
    process: str,
    seed: int,
    max_connections: int,
    retry: RetryPolicy | None,
    retry_budget: RetryBudget | None,
    deadline: float | None,
    attempt_timeout: float | None,
    breaker: CircuitBreaker | None,
    rid_prefix: str | None,
) -> tuple[dict, dict[str, list[int]]]:
    """The paced, retrying driver behind both public load functions.

    Request *index* goes to ``request_keys[index]`` (keyed wire form)
    or, with no key list, to the single counter.  Returns the
    :class:`LoadResult` fields and the per-key observed values.
    """
    arrivals = arrival_times(process, ops, rate, seed=seed)
    pool = _ConnectionPool(host, port, max_connections, breaker)
    loop = asyncio.get_running_loop()
    jitter_rng = random.Random(seed ^ 0x5EED)
    if attempt_timeout is None and deadline is not None:
        attempt_timeout = 1.5 * deadline + 0.1
    if retry is not None and retry_budget is None:
        retry_budget = RetryBudget(ops * (retry.attempts - 1))
    if rid_prefix is None and retry is not None:
        rid_prefix = f"{default_rid_prefix}{seed}"
    latencies: list[float] = []
    values: list[int] = []
    key_values: dict[str, list[int]] = {}
    error_counts: dict[str, int] = {}
    errors = 0
    retries = 0

    async def one(index: int, offset: float) -> None:
        nonlocal errors, retries
        target = start + offset
        delay = target - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        key = None if request_keys is None else request_keys[index]
        rid = None if rid_prefix is None else f"{rid_prefix}-{index}"
        attempts = retry.attempts if retry is not None else 1
        for attempt in range(attempts):
            try:
                value = await _inc_once(
                    pool, rid, deadline, timeout=attempt_timeout, key=key
                )
            except Exception as exc:
                kind = _classify(exc)
                can_retry = (
                    retry is not None
                    and attempt + 1 < attempts
                    and kind in _RETRYABLE
                    and (retry_budget is None or retry_budget.take())
                )
                if not can_retry:
                    errors += 1
                    error_counts[kind] = error_counts.get(kind, 0) + 1
                    return
                retries += 1
                backoff = retry.delay(attempt, jitter_rng)
                if backoff > 0:
                    await asyncio.sleep(backoff)
                continue
            latencies.append(loop.time() - target)
            values.append(value)
            if key is not None:
                key_values.setdefault(key, []).append(value)
            return

    start = loop.time()
    try:
        await asyncio.gather(
            *(one(index, offset) for index, offset in enumerate(arrivals))
        )
    finally:
        await pool.close()
    fields = dict(
        offered_rate=rate,
        process=process,
        sent=ops,
        completed=len(values),
        errors=errors,
        duration=loop.time() - start,
        final_value=max(values, default=-1) + 1,
        latencies=latencies,
        values=values,
        error_counts=error_counts,
        retries=retries,
    )
    return fields, key_values


async def run_load(
    host: str,
    port: int,
    ops: int,
    rate: float,
    *,
    process: str = "poisson",
    seed: int = 0,
    max_connections: int = 64,
    retry: RetryPolicy | None = None,
    retry_budget: RetryBudget | None = None,
    deadline: float | None = None,
    attempt_timeout: float | None = None,
    breaker: CircuitBreaker | None = None,
    rid_prefix: str | None = None,
) -> LoadResult:
    """Drive *ops* increments at offered *rate* (ops/second).

    Arrival offsets come from the named *process*; each request is sent
    at its scheduled wall-clock time (never earlier) and measured from
    it.  *max_connections* caps client-side concurrency — requests
    arriving faster than connections free up queue, and their queueing
    time is part of the measured latency.

    Failures never kill the run: each request's final failure is
    counted in ``error_counts`` by type.  With *retry* set, every
    request carries a unique request id (``{rid_prefix}-{index}``) and
    retryable failures back off with full jitter, up to
    ``retry.attempts`` tries and within *retry_budget* (defaults to
    ``ops * (attempts - 1)``); the server's request-id dedup makes
    retries exactly-once.  *deadline* (seconds) rides on each request;
    *attempt_timeout* bounds each round-trip client-side (default:
    ``1.5 * deadline + 0.1`` when a deadline is set) so a blackholed
    connection cannot hang the generator.  *breaker* gates the
    connection pool.
    """
    fields, _ = await _drive(
        host,
        port,
        ops,
        rate,
        None,
        "lg",
        process=process,
        seed=seed,
        max_connections=max_connections,
        retry=retry,
        retry_budget=retry_budget,
        deadline=deadline,
        attempt_timeout=attempt_timeout,
        breaker=breaker,
        rid_prefix=rid_prefix,
    )
    return LoadResult(**fields)


async def run_keyed_load(
    host: str,
    port: int,
    ops: int,
    rate: float,
    *,
    keys: int = 64,
    zipf: float = 1.1,
    key_prefix: str = "k",
    process: str = "poisson",
    seed: int = 0,
    max_connections: int = 64,
    retry: RetryPolicy | None = None,
    retry_budget: RetryBudget | None = None,
    deadline: float | None = None,
    attempt_timeout: float | None = None,
    breaker: CircuitBreaker | None = None,
    rid_prefix: str | None = None,
) -> KeyedLoadResult:
    """Drive *ops* keyed increments at offered *rate* (ops/second).

    The keyed sibling of :func:`run_load`, against a
    :class:`~repro.serve.KeyedCounterService`: each request increments
    a key drawn from a Zipf(*zipf*) popularity distribution over *keys*
    names (:func:`~repro.workloads.sequences.zipf_keys` — ``k00`` is
    always the hottest).  Arrival pacing, retry/deadline/breaker
    semantics and error accounting are identical to :func:`run_load`;
    additionally every completed request's value is recorded per key,
    so :meth:`KeyedLoadResult.exactness_violations` can check the
    per-key exactly-once contract after the run.
    """
    fields, key_values = await _drive(
        host,
        port,
        ops,
        rate,
        zipf_keys(keys, ops, skew=zipf, seed=seed ^ 0x6B65, prefix=key_prefix),
        "klg",
        process=process,
        seed=seed,
        max_connections=max_connections,
        retry=retry,
        retry_budget=retry_budget,
        deadline=deadline,
        attempt_timeout=attempt_timeout,
        breaker=breaker,
        rid_prefix=rid_prefix,
    )
    return KeyedLoadResult(
        **fields, key_population=keys, key_values=key_values
    )


async def run_rate_sweep(
    host: str,
    port: int,
    ops: int,
    rates: list[float] | tuple[float, ...],
    *,
    process: str = "poisson",
    seed: int = 0,
    max_connections: int = 64,
    knee_threshold: float = 3.0,
    retry: RetryPolicy | None = None,
    retry_budget: RetryBudget | None = None,
    deadline: float | None = None,
    attempt_timeout: float | None = None,
    breaker: CircuitBreaker | None = None,
) -> SweepResult:
    """Run :func:`run_load` at each of the ascending *rates*; find the knee.

    The knee is the first rate whose mean latency exceeds
    *knee_threshold* times the lowest rate's — ``None`` if the sweep
    never saturated the service.  With *retry* set and no explicit
    *retry_budget*, one budget of ``ops * (attempts - 1)`` retries is
    shared across the whole sweep, so saturation at the top rates
    cannot amplify offered load without bound; the breaker (if given)
    is likewise shared.
    """
    from repro.analysis.latency import detect_knee

    if list(rates) != sorted(rates):
        raise ValueError("sweep rates must be ascending")
    if retry is not None and retry_budget is None:
        retry_budget = RetryBudget(ops * (retry.attempts - 1))
    runs: list[LoadResult] = []
    for index, rate in enumerate(rates):
        runs.append(
            await run_load(
                host,
                port,
                ops,
                rate,
                process=process,
                seed=seed + index,
                max_connections=max_connections,
                retry=retry,
                retry_budget=retry_budget,
                deadline=deadline,
                attempt_timeout=attempt_timeout,
                breaker=breaker,
                rid_prefix=f"lg{seed}r{index}" if retry is not None else None,
            )
        )
    knee = detect_knee(
        [run.offered_rate for run in runs],
        [run.mean_latency for run in runs],
        threshold=knee_threshold,
    )
    return SweepResult(runs=runs, knee_rate=knee)
