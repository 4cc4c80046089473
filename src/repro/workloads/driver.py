"""Workload drivers: execute operation sequences against a counter.

Three driving regimes, one protocol object:

* **Closed-loop sequential** (:func:`run_sequence`) realizes the paper's
  timing assumption: "enough time elapses in between any two inc
  requests to make sure that the preceding inc operation is finished
  before the next one starts" (§2).  Operation ``i+1`` is injected only
  after the runtime has quiesced from operation ``i``.
* **Closed-loop concurrent** (:func:`run_concurrent`) injects whole
  batches at one instant — the extension benchmarks' regime (combining
  and diffracting structures only show their strengths under
  concurrency); never used for lower-bound claims.
* **Open-loop** (:func:`run_open_loop`) injects requests at *arrival
  times* drawn from a traffic process (Poisson, bursty), regardless of
  whether earlier operations finished — the production regime, where
  the paper's bottleneck reappears as a saturation knee in latency
  rather than a message count.  Each client processor serves one
  operation at a time; arrivals finding every client busy queue FIFO,
  and their queueing delay counts toward latency.

Each closed-loop regime is written once, as a generator that yields at
every quiescence barrier (:func:`_sequence_steps`, :func:`_batch_steps`);
:func:`_drive` pumps it from synchronous code and :func:`_drive_async`
from inside a running loop, so ``run_sequence`` / ``run_sequence_async``
(and the concurrent pair, and the timed drivers the linearizability
checker consumes) are entry points over one body.  The counter keeps no
history of the values it returns: each driver installs its own record
(:class:`Received`, or the open-loop client pool) as the counter's one
observer for the run and puts the previous observer back after it.
Every driver takes an optional :class:`~repro.runtime.Runtime`: the
default is the discrete-event scheduler, and an
:class:`~repro.runtime.AsyncioRuntime` routes the same steps through a
real asyncio loop.
"""

from __future__ import annotations

import asyncio
from collections import defaultdict, deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import (
    Any, Callable, Collection, Generator, Iterable, Iterator, Sequence, TypeVar,
)

from repro.api import DistributedCounter
from repro.errors import CapabilityError, ProtocolError
from repro.runtime import AsyncioRuntime, Runtime, SimulatedRuntime
from repro.sim.columns import Rows
from repro.sim.messages import NO_OP, OpIndex, ProcessorId
from repro.sim.network import Network
from repro.sim.trace import Trace
from repro.workloads.sequences import percentile

_T = TypeVar("_T")


@dataclass(frozen=True, slots=True)
class OpOutcome:
    """One completed ``inc``: who asked, what value came back, at what cost.

    Attributes:
        op_index: position in the operation sequence.
        initiator: processor that requested the ``inc``.
        value: counter value returned to the initiator.
        messages: number of messages attributed to this operation, or
            ``-1`` when the network traced at
            :attr:`~repro.sim.trace.TraceLevel.OFF` and kept no counts.
    """

    op_index: OpIndex
    initiator: ProcessorId
    value: int
    messages: int


class Outcomes(Rows):
    """A run's completed operations as four columns (~20 bytes each,
    where an :class:`OpOutcome` object costs ~70): a read-only sequence
    of outcomes built on access; a driver appends through :meth:`add`."""

    __slots__ = ()
    schema = {"op_index": "i", "initiator": "i", "value": "O", "messages": "i"}
    row = OpOutcome


@dataclass(slots=True)
class RunResult:
    """Everything measured about one workload execution."""

    counter_name: str
    n: int
    trace: Trace
    outcomes: Outcomes = field(default_factory=Outcomes)

    @property
    def total_messages(self) -> int:
        """Messages delivered over the whole run."""
        return self.trace.total_messages

    @property
    def operation_count(self) -> int:
        """Number of completed operations."""
        return len(self.outcomes)

    def values(self) -> list[int]:
        """Returned counter values in operation order."""
        return [outcome.value for outcome in self.outcomes]

    def bottleneck_load(self) -> int:
        """The paper's ``m_b``: the maximum per-processor message load."""
        return self.trace.bottleneck()[1]

    def bottleneck_processor(self) -> ProcessorId:
        """The processor achieving the maximum load (smallest id on ties)."""
        return self.trace.bottleneck()[0]

    def average_messages_per_op(self) -> float:
        """The paper's ``L``: average messages per operation."""
        if not self.outcomes:
            return 0.0
        return self.total_messages / len(self.outcomes)


@dataclass(frozen=True, slots=True)
class TimedOp:
    """One completed operation with its real-time interval."""

    op_index: OpIndex
    initiator: ProcessorId
    value: int
    request_time: float
    response_time: float


def _cost(trace: Trace, op_index: OpIndex) -> int:
    """The messages *trace* attributes to one op (-1 at ``OFF``)."""
    return trace.messages_for_op(op_index) if trace.keeps_loads else -1


class Received:
    """A driver's record of the results its counter returned: per
    initiator, ``(value, time)`` pairs in arrival order.

    The counter keeps no history of its own; :meth:`add` is the observer
    a driver installs (see :func:`observing`) — a bound method, so a
    deep copy of the counter taken mid-run delivers into its own copy
    of the record.
    """

    __slots__ = ("network", "by_pid")

    def __init__(self, network: Network) -> None:
        self.network = network
        self.by_pid: defaultdict[ProcessorId, deque] = defaultdict(deque)

    def add(self, pid: ProcessorId, value: Any) -> None:
        """Note that *pid* received *value* now."""
        self.by_pid[pid].append((value, self.network.now))

    def take(self) -> defaultdict[ProcessorId, deque[tuple[Any, float]]]:
        """Everything noted so far; the record starts empty again."""
        taken, self.by_pid = self.by_pid, defaultdict(deque)
        return taken


@contextmanager
def observing(
    counter: DistributedCounter, observer: Callable[[ProcessorId, Any], None]
) -> Iterator[None]:
    """Make *observer* *counter*'s ``on_result`` for the block, then put
    the previous observer back."""
    previous, counter.on_result = counter.on_result, observer
    try:
        yield
    finally:
        counter.on_result = previous


# ----------------------------------------------------------------------
# Pumps: a regime is a generator that yields at every quiescence
# barrier; these run it, from sync or from async code
# ----------------------------------------------------------------------

def _drive(steps: Generator[None, None, _T], barrier: Callable[[], int]) -> _T:
    """Pump *steps*, blocking on *barrier* wherever it yields."""
    while True:
        try:
            next(steps)
        except StopIteration as finished:
            return finished.value
        barrier()


async def _drive_async(steps: Generator[None, None, _T], runtime: Runtime) -> _T:
    """Pump *steps*, awaiting *runtime*'s drain wherever it yields — other
    asyncio tasks interleave with the simulation at every barrier."""
    while True:
        try:
            next(steps)
        except StopIteration as finished:
            return finished.value
        await runtime.drain()


def _run(
    steps: Generator[None, None, _T],
    counter: DistributedCounter,
    runtime: Runtime | None,
) -> _T:
    """Run *steps* to completion from synchronous code: under the
    discrete-event scheduler by default, and an async runtime routes the
    whole workload through one ``asyncio.run``."""
    if runtime is None:
        runtime = SimulatedRuntime(counter.network)
    if runtime.is_async:
        return asyncio.run(_drive_async(steps, runtime))
    return _drive(steps, runtime.until_quiescent)


# ----------------------------------------------------------------------
# Closed-loop sequential
# ----------------------------------------------------------------------

def _sequence_steps(
    counter: DistributedCounter,
    initiators: Iterable[ProcessorId],
    check_values: bool,
    optional: Collection[ProcessorId],
) -> Generator[None, None, RunResult]:
    """The sequential regime: one op, one barrier, one verified outcome.

    Initiators in *optional* (Byzantine or permanently crashed
    processors) may legitimately see their operation vanish: the op is
    omitted instead of an error, and any value they *do* receive is
    recorded unchecked — a liar's view of its own result proves nothing.
    With a non-empty *optional* set the exact ``value == op_index``
    check degrades to "values handed to required initiators strictly
    increase": adversarial operations may or may not commit, so the
    absolute sequence shifts, but a correct counter still never hands
    out a duplicate.
    """
    trace = counter.network.trace
    result = RunResult(counter_name=counter.name, n=counter.n, trace=trace)
    last_required = -1
    received = Received(counter.network)
    with observing(counter, received.add):
        for op_index, pid in enumerate(initiators):
            counter.begin_inc(pid, op_index)
            yield
            # Quiescent: the operation's footprint is final, so it is
            # sealed into its compact form before anything else.
            trace.seal_op(op_index)
            mine = received.take().get(pid, ())
            required = pid not in optional
            if len(mine) != 1:
                if required:
                    raise ProtocolError(
                        f"operation {op_index}: processor {pid} received "
                        f"{len(mine)} results instead of 1"
                    )
                # A Byzantine initiator may get no result (its corrupted
                # request never formed a quorum) or several (it spawned
                # parallel bogus instances); neither is evidence of
                # anything.  Record the last value if any.
                if not mine:
                    continue
            value = mine[-1][0]
            if check_values:
                if not optional:
                    if value != op_index:
                        raise ProtocolError(
                            f"operation {op_index}: processor {pid} received "
                            f"value {value}, expected {op_index} "
                            "(sequential semantics)"
                        )
                elif required and value <= last_required:
                    raise ProtocolError(
                        f"operation {op_index}: processor {pid} received "
                        f"value {value}, but an earlier operation already "
                        f"received {last_required} (sequential values must "
                        "strictly increase)"
                    )
            if required:
                last_required = value
            result.outcomes.add(op_index, pid, value, _cost(trace, op_index))
    return result


def run_sequence(
    counter: DistributedCounter,
    initiators: Iterable[ProcessorId],
    check_values: bool = True,
    runtime: Runtime | None = None,
    optional: frozenset[ProcessorId] = frozenset(),
) -> RunResult:
    """Run *initiators* sequentially, quiescing between operations.

    With sequential operations a correct counter must hand out exactly
    ``0, 1, 2, ...`` in order; *check_values* enforces that and raises
    :class:`~repro.errors.ProtocolError` on the first deviation, so broken
    protocols fail loudly at the operation that went wrong.

    *runtime* selects the scheduler; ``None`` (and any non-async
    runtime) drives the network directly, an async runtime routes the
    whole workload through ``asyncio.run``.

    *optional* names initiators whose operations may vanish without
    error — Byzantine processors (a corrupted request may never form a
    quorum) and permanently crashed ones.  See :func:`_sequence_steps`
    for how it relaxes the value check.
    """
    steps = _sequence_steps(counter, initiators, check_values, optional)
    return _run(steps, counter, runtime)


async def run_sequence_async(
    counter: DistributedCounter,
    initiators: Iterable[ProcessorId],
    time_scale: float = 0.0,
    check_values: bool = True,
    runtime: Runtime | None = None,
    optional: frozenset[ProcessorId] = frozenset(),
) -> RunResult:
    """:func:`run_sequence` from inside a running loop.

    Identical semantics — the same steps — but the barriers are awaited,
    so other asyncio tasks interleave with the simulation.  *time_scale*
    builds a default :class:`~repro.runtime.AsyncioRuntime` when
    *runtime* is omitted.
    """
    if runtime is None:
        runtime = AsyncioRuntime(counter.network, time_scale=time_scale)
    steps = _sequence_steps(counter, initiators, check_values, optional)
    return await _drive_async(steps, runtime)


# ----------------------------------------------------------------------
# Closed-loop overlapping: concurrent batches, staggered starts
# ----------------------------------------------------------------------

def _require_concurrent(counter: DistributedCounter, regime: str) -> None:
    """Reject sequential-only counters before an overlapping-op run."""
    capabilities = counter.capabilities
    if not capabilities.supports_concurrent:
        reason = capabilities.restriction or "the protocol is sequential-only"
        raise CapabilityError(
            f"counter {counter.name!r} does not support the {regime} "
            f"driver: {reason}"
        )


def _start_batch(
    counter: DistributedCounter,
    batch: Sequence[ProcessorId],
    first_op: OpIndex,
    gap: float | None,
) -> list[tuple[OpIndex, ProcessorId, float]]:
    """Start every op of *batch*; return ``(op_index, pid,
    request_time)`` for each, in start order.

    Without *gap* all requests begin at this instant, before any event
    runs; with it request ``k`` is injected ``k * gap`` time units from
    now (the first included, so every start is an event of its op).
    """
    network = counter.network
    started: list[tuple[OpIndex, ProcessorId, float]] = []
    for offset, pid in enumerate(batch):
        op_index = first_op + offset
        if gap is None:
            started.append((op_index, pid, network.now))
            counter.begin_inc(pid, op_index)
            continue
        delay = offset * gap
        started.append((op_index, pid, network.now + delay))
        network.inject(
            partial(counter.begin_inc, pid, op_index),
            op_index=op_index,
            delay=delay,
        )
    return started


def _match_results(
    started: list[tuple[OpIndex, ProcessorId, float]],
    received: dict[ProcessorId, deque[tuple[Any, float]]],
    optional: Collection[ProcessorId],
) -> list[TimedOp]:
    """Pair the k-th op started at ``p`` with the k-th result ``p`` received
    (*received* holds the batch's results, oldest first per initiator).

    An op left without a result is a :class:`~repro.errors.ProtocolError`
    unless its initiator is in *optional*, whose unanswered ops are
    omitted — the standard treatment of incomplete operations: a
    linearization is free to place or drop them, and at-most-once
    counters burn any value such an op reserved.
    """
    ops: list[TimedOp] = []
    for op_index, pid, request_time in started:
        results = received.get(pid)
        if not results:
            if pid in optional:
                continue
            raise ProtocolError(
                f"operation {op_index}: processor {pid} never got a result"
            )
        value, response_time = results.popleft()
        ops.append(
            TimedOp(
                op_index=op_index,
                initiator=pid,
                value=value,
                request_time=request_time,
                response_time=response_time,
            )
        )
    return ops


def _batch_steps(
    counter: DistributedCounter,
    batches: Iterable[Sequence[ProcessorId]],
    gap: float | None = None,
    optional: Collection[ProcessorId] = frozenset(),
) -> Generator[None, None, list[TimedOp]]:
    """The overlapping regime: start a batch, one barrier, match results.

    Operation indices run on across batches; the network quiesces
    between them.
    """
    ops: list[TimedOp] = []
    next_op = 0
    received = Received(counter.network)
    with observing(counter, received.add):
        for batch in batches:
            started = _start_batch(counter, batch, next_op, gap)
            next_op += len(started)
            yield
            ops += _match_results(started, received.take(), optional)
    return ops


def _check_counts(regime: str, values: list[int]) -> None:
    """With overlap the values are unordered, but a correct counter still
    hands out each of ``0..ops-1`` exactly once."""
    values = sorted(values)
    if values != list(range(len(values))):
        raise ProtocolError(
            f"{regime} run returned values {values[:10]}... "
            f"instead of a permutation of 0..{len(values) - 1}"
        )


def _batch_result(
    counter: DistributedCounter, ops: list[TimedOp], check_values: bool
) -> RunResult:
    """Cost the matched *ops*; *check_values* checks that they count."""
    if check_values:
        _check_counts("concurrent", [op.value for op in ops])
    trace = counter.network.trace
    result = RunResult(counter.name, counter.n, trace)
    for op in ops:
        result.outcomes.add(
            op.op_index, op.initiator, op.value, _cost(trace, op.op_index)
        )
    return result


def run_concurrent(
    counter: DistributedCounter,
    batches: Iterable[Sequence[ProcessorId]],
    check_values: bool = True,
    runtime: Runtime | None = None,
) -> RunResult:
    """Run operations in concurrent batches.

    All operations of a batch are injected before any event runs, so their
    messages interleave arbitrarily under the delivery policy; the network
    quiesces between batches.  With concurrency the returned values are no
    longer ordered, but a correct counter still hands out each value
    exactly once; *check_values* enforces that the multiset of returned
    values is ``{0, ..., ops-1}``.

    Sequential-only counters (per their declared
    :class:`~repro.api.Capabilities`) are rejected up front with a
    :class:`~repro.errors.CapabilityError` naming the restriction,
    instead of misbehaving mid-run.
    """
    _require_concurrent(counter, "concurrent")
    ops = _run(_batch_steps(counter, batches), counter, runtime)
    return _batch_result(counter, ops, check_values)


async def run_concurrent_async(
    counter: DistributedCounter,
    batch: Sequence[ProcessorId],
    time_scale: float = 0.0,
    runtime: Runtime | None = None,
) -> RunResult:
    """A single-batch :func:`run_concurrent` from inside a running loop.

    The value multiset is not checked here — callers assert on the
    outcomes.
    """
    _require_concurrent(counter, "concurrent")
    if runtime is None:
        runtime = AsyncioRuntime(counter.network, time_scale=time_scale)
    ops = await _drive_async(_batch_steps(counter, [batch]), runtime)
    return _batch_result(counter, ops, check_values=False)


def run_concurrent_timed(
    counter: DistributedCounter,
    batch: Sequence[ProcessorId],
) -> list[TimedOp]:
    """Inject *batch* concurrently and collect timed operations.

    All requests start at the same simulated instant (their intervals
    all begin at the current time) and run to quiescence.
    """
    steps = _batch_steps(counter, [batch])
    return _drive(steps, counter.network.run_until_quiescent)


def run_staggered_timed(
    counter: DistributedCounter,
    batch: Sequence[ProcessorId],
    gap: float = 3.0,
    optional: Collection[ProcessorId] = (),
) -> list[TimedOp]:
    """Inject requests *gap* time units apart (still overlapping).

    Staggered starts create real-time precedence pairs, which the fully
    concurrent variant (all requests at one instant) cannot have — and
    without precedence pairs linearizability is vacuous.  This driver is
    what actually exposes counting-network inversions.

    Initiators in *optional* (typically processors a fault plan crashes
    permanently) may fail to observe a result: their unanswered ops are
    silently omitted from the returned list instead of raising.
    """
    steps = _batch_steps(counter, [batch], gap, optional)
    return _drive(steps, counter.network.run_until_quiescent)


# ----------------------------------------------------------------------
# Open-loop driving
# ----------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class OpenLoopOutcome:
    """One completed open-loop ``inc`` with its full timing breakdown.

    All times are in the driving clock's units (simulated time).

    Attributes:
        op_index: position in the arrival sequence.
        initiator: client processor that executed the operation.
        value: counter value returned.
        arrival_time: when the request *arrived* (offered load clock).
        start_time: when a free client actually initiated it.
        completion_time: when the value came back.
    """

    op_index: OpIndex
    initiator: ProcessorId
    value: int
    arrival_time: float
    start_time: float
    completion_time: float

    @property
    def latency(self) -> float:
        """Arrival-to-completion time — what an open-loop client feels."""
        return self.completion_time - self.arrival_time

    @property
    def queueing_delay(self) -> float:
        """Time the request waited for a free client processor."""
        return self.start_time - self.arrival_time

    @property
    def service_time(self) -> float:
        """Initiation-to-completion time (latency minus queueing)."""
        return self.completion_time - self.start_time


@dataclass(slots=True)
class OpenLoopResult:
    """Everything measured about one open-loop execution."""

    counter_name: str
    n: int
    trace: Trace
    offered_rate: float
    outcomes: list[OpenLoopOutcome] = field(default_factory=list)

    @property
    def operation_count(self) -> int:
        """Number of completed operations."""
        return len(self.outcomes)

    @property
    def duration(self) -> float:
        """Time from workload start to the last completion."""
        return max((o.completion_time for o in self.outcomes), default=0.0)

    @property
    def throughput(self) -> float:
        """Completed operations per time unit over the whole run."""
        duration = self.duration
        if duration <= 0:
            return 0.0
        return len(self.outcomes) / duration

    def values(self) -> list[int]:
        """Returned counter values in completion order."""
        return [outcome.value for outcome in self.outcomes]

    def latencies(self) -> list[float]:
        """Arrival-to-completion latency of every operation."""
        return [outcome.latency for outcome in self.outcomes]

    @property
    def mean_latency(self) -> float:
        """Average arrival-to-completion latency."""
        if not self.outcomes:
            return 0.0
        return sum(self.latencies()) / len(self.outcomes)

    def latency_percentile(self, q: float) -> float:
        """Latency at quantile *q* in [0, 1] (nearest-rank)."""
        return percentile(self.latencies(), q)


class _OpenLoop:
    """An open-loop run's client pool and waiting requests.  Its methods
    are the actions the driver injects and the counter's observer, so a
    deep copy of the network taken mid-run drives its own copy."""

    __slots__ = ("counter", "turnaround", "outcomes", "free", "backlog", "in_flight")

    def __init__(self, counter: DistributedCounter, turnaround: float) -> None:
        self.counter = counter
        self.turnaround = turnaround
        self.outcomes: list[OpenLoopOutcome] = []
        # Round-robin the client pool (take from the left, return to the
        # right) so load spreads over all n processors instead of
        # hammering the lowest free pid — which for e.g. the central
        # counter is the server itself and would serve its own requests
        # for free.
        self.free: deque[ProcessorId] = deque(counter.client_ids())
        self.backlog: deque[tuple[OpIndex, float]] = deque()
        self.in_flight: dict[ProcessorId, tuple[OpIndex, float, float]] = {}

    def _start(self, pid: ProcessorId, op_index: OpIndex, arrival: float) -> None:
        self.in_flight[pid] = (op_index, arrival, self.counter.network.now)
        self.counter.begin_inc(pid, op_index)

    def arrive(self, op_index: OpIndex, arrival: float) -> None:
        """A request arrives: a free client starts it, or it waits."""
        if self.free:
            self._start(self.free.popleft(), op_index, arrival)
        else:
            self.backlog.append((op_index, arrival))

    def rearm(self, pid: ProcessorId) -> None:
        """*pid* is ready again: it takes the oldest waiting request."""
        if self.backlog:
            self._start(pid, *self.backlog.popleft())
        else:
            self.free.append(pid)

    def completed(self, pid: ProcessorId, value: int) -> None:
        """The observer: *pid*'s operation returned *value*."""
        pending = self.in_flight.pop(pid, None)
        if pending is None:
            # A result for an operation this driver did not start
            # (e.g. protocol-internal bookkeeping); leave it alone.
            return
        op_index, arrival, started = pending
        network = self.counter.network
        self.outcomes.append(
            OpenLoopOutcome(op_index, pid, value, arrival, started, network.now)
        )
        if self.turnaround > 0:
            network.inject(
                partial(self.rearm, pid), op_index=NO_OP, delay=self.turnaround
            )
        else:
            self.rearm(pid)


def run_open_loop(
    counter: DistributedCounter,
    arrivals: Sequence[float],
    check_values: bool = True,
    runtime: Runtime | None = None,
    turnaround: float = 1.0,
) -> OpenLoopResult:
    """Drive *counter* with open-loop traffic arriving at *arrivals*.

    Each arrival time (ascending offsets from workload start, e.g. from
    :func:`~repro.workloads.sequences.poisson_arrivals`) is one ``inc``
    request.  Requests are served by the counter's ``n`` client
    processors, one in-flight operation per client; an arrival that
    finds every client busy queues FIFO and its queueing delay counts
    toward latency.  This is what makes the saturation knee measurable:
    offered load beyond the structure's service capacity grows the
    backlog without bound, and latency diverges.

    *turnaround* is the local re-arm time a client needs between
    completing one operation and initiating the next (default: one
    message-delay unit).  Without it a client whose operations complete
    in zero simulated time — e.g. the central counter's co-located
    server client — could absorb unbounded offered load for free and no
    saturation knee would exist; with it, per-client throughput is
    bounded by ``1/turnaround`` just as a real processor's is by its
    local processing speed.

    Sequential-only counters are rejected (open-loop traffic overlaps
    operations by construction).  *check_values* enforces that the
    returned values are a permutation of ``0..ops-1``.
    """
    _require_concurrent(counter, "open-loop")
    if turnaround < 0:
        raise ValueError(f"turnaround must be >= 0, got {turnaround}")
    if list(arrivals) != sorted(arrivals):
        raise ValueError("arrival times must be ascending")
    network = counter.network
    clients = _OpenLoop(counter, turnaround)
    origin = network.now
    with observing(counter, clients.completed):
        for op_index, offset in enumerate(arrivals):
            network.inject(
                partial(clients.arrive, op_index, origin + offset),
                op_index=NO_OP,
                delay=offset,
            )
        # One barrier for the whole run; an async runtime's
        # until_quiescent() spins up a private loop for it.
        (runtime or SimulatedRuntime(network)).until_quiescent()
    duration = arrivals[-1] if len(arrivals) else 0.0
    result = OpenLoopResult(
        counter_name=counter.name,
        n=counter.n,
        trace=network.trace,
        offered_rate=(len(arrivals) / duration if duration > 0 else 0.0),
        outcomes=clients.outcomes,
    )
    if len(result.outcomes) != len(arrivals):
        raise ProtocolError(
            f"open-loop run completed {len(result.outcomes)} of "
            f"{len(arrivals)} operations"
        )
    if check_values:
        _check_counts("open-loop", result.values())
    return result

