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

Every driver takes an optional :class:`~repro.runtime.Runtime`: the
default is the discrete-event scheduler (byte-identical to the
pre-seam behavior), and an :class:`~repro.runtime.AsyncioRuntime`
routes the same workload through a real asyncio loop (``await`` the
``*_async`` variants from async code).
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.api import CounterFactory, DistributedCounter
from repro.errors import CapabilityError, ProtocolError
from repro.sim.messages import NO_OP, OpIndex, ProcessorId
from repro.sim.network import Network
from repro.sim.policies import DeliveryPolicy
from repro.sim.trace import Trace, TraceLevel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.runtime import Runtime


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


@dataclass(slots=True)
class RunResult:
    """Everything measured about one workload execution."""

    counter_name: str
    n: int
    trace: Trace
    outcomes: list[OpOutcome] = field(default_factory=list)

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


def _sequential_outcome(
    counter: DistributedCounter,
    trace: Trace,
    counts_kept: bool,
    op_index: OpIndex,
    pid: ProcessorId,
    before: list[int],
    check_values: bool,
    optional: frozenset[ProcessorId] = frozenset(),
    last_required: int = -1,
) -> OpOutcome | None:
    """Verify one just-quiesced sequential op and build its outcome.

    Shared by the sync and async sequential drivers so their checks (and
    error messages) cannot drift apart.

    Initiators in *optional* (Byzantine or permanently crashed
    processors) may legitimately see their operation vanish: the outcome
    is ``None`` instead of an error, and any value they *do* receive is
    recorded unchecked — a liar's view of its own result proves nothing.
    With a non-empty *optional* set the exact ``value == op_index``
    check degrades to "values handed to required initiators strictly
    increase" (*last_required* is the previous such value): adversarial
    operations may or may not commit, so the absolute sequence shifts,
    but a correct counter still never hands out a duplicate.

    The network is quiescent here, so the operation's footprint is
    final: it is sealed into its compact form before anything else.
    """
    trace.seal_op(op_index)
    after = counter.results_for(pid)
    got = len(after) - len(before)
    if pid in optional and got != 1:
        # A Byzantine initiator may get no result (its corrupted
        # request never formed a quorum) or several (its corrupted
        # request spawned parallel bogus instances); neither is
        # evidence of anything.  Record the last value if any.
        if got == 0:
            return None
    elif got != 1:
        raise ProtocolError(
            f"operation {op_index}: processor {pid} received "
            f"{got} results instead of 1"
        )
    value = after[-1]
    if check_values:
        if not optional:
            if value != op_index:
                raise ProtocolError(
                    f"operation {op_index}: processor {pid} received value "
                    f"{value}, expected {op_index} (sequential semantics)"
                )
        elif pid not in optional and value <= last_required:
            raise ProtocolError(
                f"operation {op_index}: processor {pid} received value "
                f"{value}, but an earlier operation already received "
                f"{last_required} (sequential values must strictly "
                "increase)"
            )
    return OpOutcome(
        op_index=op_index,
        initiator=pid,
        value=value,
        messages=trace.messages_for_op(op_index) if counts_kept else -1,
    )


def run_sequence(
    counter: DistributedCounter,
    initiators: Sequence[ProcessorId],
    check_values: bool = True,
    runtime: "Runtime | None" = None,
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
    quorum) and permanently crashed ones.  See
    :func:`_sequential_outcome` for how it relaxes the value check.
    """
    if runtime is not None and runtime.is_async:
        return asyncio.run(
            run_sequence_async(
                counter, initiators, check_values=check_values,
                runtime=runtime, optional=optional,
            )
        )
    network = counter.network
    barrier = (
        network.run_until_quiescent
        if runtime is None
        else runtime.until_quiescent
    )
    trace = network.trace
    counts_kept = trace.keeps_loads
    result = RunResult(counter_name=counter.name, n=counter.n, trace=trace)
    last_required = -1
    for op_index, pid in enumerate(initiators):
        before = counter.results_for(pid)
        counter.begin_inc(pid, op_index)
        barrier()
        outcome = _sequential_outcome(
            counter, trace, counts_kept, op_index, pid, before,
            check_values, optional, last_required,
        )
        if outcome is None:
            continue
        if pid not in optional:
            last_required = outcome.value
        result.outcomes.append(outcome)
    return result


async def run_sequence_async(
    counter: DistributedCounter,
    initiators: Sequence[ProcessorId],
    time_scale: float = 0.0,
    check_values: bool = True,
    runtime: "Runtime | None" = None,
    optional: frozenset[ProcessorId] = frozenset(),
) -> RunResult:
    """Async counterpart of :func:`run_sequence`.

    Identical semantics — sequential operations with quiescence barriers
    — but the barriers are awaited, so other asyncio tasks interleave
    with the simulation.  *time_scale* builds a default
    :class:`~repro.runtime.AsyncioRuntime` when *runtime* is omitted.
    """
    from repro.runtime import AsyncioRuntime

    if runtime is None:
        runtime = AsyncioRuntime(counter.network, time_scale=time_scale)
    trace = counter.network.trace
    counts_kept = trace.keeps_loads
    result = RunResult(counter_name=counter.name, n=counter.n, trace=trace)
    last_required = -1
    for op_index, pid in enumerate(initiators):
        before = counter.results_for(pid)
        counter.begin_inc(pid, op_index)
        await runtime.drain()
        outcome = _sequential_outcome(
            counter, trace, counts_kept, op_index, pid, before,
            check_values, optional, last_required,
        )
        if outcome is None:
            continue
        if pid not in optional:
            last_required = outcome.value
        result.outcomes.append(outcome)
    return result


def _require_concurrent(counter: DistributedCounter, regime: str) -> None:
    """Reject sequential-only counters before an overlapping-op run."""
    capabilities = counter.capabilities
    if not capabilities.supports_concurrent:
        reason = capabilities.restriction or "the protocol is sequential-only"
        raise CapabilityError(
            f"counter {counter.name!r} does not support the {regime} "
            f"driver: {reason}"
        )


def run_concurrent(
    counter: DistributedCounter,
    batches: Iterable[Sequence[ProcessorId]],
    check_values: bool = True,
    runtime: "Runtime | None" = None,
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
    if runtime is not None and runtime.is_async:
        collected: list[Sequence[ProcessorId]] = list(batches)
        return asyncio.run(
            _run_concurrent_batches_async(
                counter, collected, check_values=check_values,
                runtime=runtime,
            )
        )
    _require_concurrent(counter, "concurrent")
    network = counter.network
    barrier = (
        network.run_until_quiescent
        if runtime is None
        else runtime.until_quiescent
    )
    trace = network.trace
    counts_kept = trace.keeps_loads
    result = RunResult(counter_name=counter.name, n=counter.n, trace=trace)
    op_index = 0
    for batch in batches:
        injected: list[tuple[OpIndex, ProcessorId, int]] = []
        for pid in batch:
            prior = len(counter.results_for(pid))
            counter.begin_inc(pid, op_index)
            injected.append((op_index, pid, prior))
            op_index += 1
        barrier()
        _collect_batch(counter, trace, counts_kept, injected, result)
    if check_values:
        _check_value_multiset(result)
    return result


def _collect_batch(
    counter: DistributedCounter,
    trace: Trace,
    counts_kept: bool,
    injected: list[tuple[OpIndex, ProcessorId, int]],
    result: RunResult,
) -> None:
    """Harvest one quiesced concurrent batch into *result*."""
    for this_op, pid, prior in injected:
        results = counter.results_for(pid)
        if len(results) <= prior:
            raise ProtocolError(
                f"operation {this_op}: processor {pid} never got a result"
            )
        result.outcomes.append(
            OpOutcome(
                op_index=this_op,
                initiator=pid,
                value=results[prior],
                messages=trace.messages_for_op(this_op) if counts_kept else -1,
            )
        )


def _check_value_multiset(result: RunResult) -> None:
    """Enforce that returned values are a permutation of ``0..ops-1``."""
    values = sorted(outcome.value for outcome in result.outcomes)
    expected = list(range(len(result.outcomes)))
    if values != expected:
        raise ProtocolError(
            f"concurrent run returned values {values[:10]}... "
            f"instead of a permutation of 0..{len(expected) - 1}"
        )


async def _run_concurrent_batches_async(
    counter: DistributedCounter,
    batches: Iterable[Sequence[ProcessorId]],
    check_values: bool,
    runtime: "Runtime",
) -> RunResult:
    """Batch-loop shared by :func:`run_concurrent`'s async route."""
    _require_concurrent(counter, "concurrent")
    trace = counter.network.trace
    counts_kept = trace.keeps_loads
    result = RunResult(counter_name=counter.name, n=counter.n, trace=trace)
    op_index = 0
    for batch in batches:
        injected: list[tuple[OpIndex, ProcessorId, int]] = []
        for pid in batch:
            prior = len(counter.results_for(pid))
            counter.begin_inc(pid, op_index)
            injected.append((op_index, pid, prior))
            op_index += 1
        await runtime.drain()
        _collect_batch(counter, trace, counts_kept, injected, result)
    if check_values:
        _check_value_multiset(result)
    return result


async def run_concurrent_async(
    counter: DistributedCounter,
    batch: Sequence[ProcessorId],
    time_scale: float = 0.0,
    runtime: "Runtime | None" = None,
) -> RunResult:
    """Inject *batch* concurrently, await quiescence, collect results.

    Async counterpart of a single-batch :func:`run_concurrent`; the
    value multiset is not checked here — callers assert on the outcomes.
    """
    from repro.runtime import AsyncioRuntime

    if runtime is None:
        runtime = AsyncioRuntime(counter.network, time_scale=time_scale)
    _require_concurrent(counter, "concurrent")
    network = counter.network
    trace = network.trace
    counts_kept = trace.keeps_loads
    result = RunResult(counter_name=counter.name, n=counter.n, trace=trace)
    prior = {pid: len(counter.results_for(pid)) for pid in set(batch)}
    seen: dict[ProcessorId, int] = dict(prior)
    for op_index, pid in enumerate(batch):
        counter.begin_inc(pid, op_index)
    await runtime.drain()
    for op_index, pid in enumerate(batch):
        replies = counter.results_for(pid)
        position = seen[pid]
        if position >= len(replies):
            raise ProtocolError(f"processor {pid} missed a result")
        seen[pid] += 1
        result.outcomes.append(
            OpOutcome(
                op_index=op_index,
                initiator=pid,
                value=replies[position],
                messages=trace.messages_for_op(op_index) if counts_kept else -1,
            )
        )
    return result


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
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        ordered = sorted(self.latencies())
        if not ordered:
            return 0.0
        index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return ordered[index]


def run_open_loop(
    counter: DistributedCounter,
    arrivals: Sequence[float],
    check_values: bool = True,
    runtime: "Runtime | None" = None,
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
    # An async runtime's until_quiescent() spins up a private loop (and
    # refuses inside a running one with a pointer to drain()), so every
    # runtime kind presents the same blocking barrier here.
    barrier = (
        network.run_until_quiescent
        if runtime is None
        else runtime.until_quiescent
    )
    trace = network.trace
    duration = arrivals[-1] if len(arrivals) else 0.0
    result = OpenLoopResult(
        counter_name=counter.name,
        n=counter.n,
        trace=trace,
        offered_rate=(len(arrivals) / duration if duration > 0 else 0.0),
    )
    # Round-robin the client pool (deque: take from the left, return to
    # the right) so load spreads over all n processors instead of
    # hammering the lowest free pid — which for e.g. the central counter
    # is the server itself and would serve its own requests for free.
    free: deque[ProcessorId] = deque(counter.client_ids())
    backlog: list[tuple[OpIndex, float]] = []
    backlog_head = 0
    in_flight: dict[ProcessorId, tuple[OpIndex, float, float]] = {}

    def start(op_index: OpIndex, arrival: float, pid: ProcessorId) -> None:
        in_flight[pid] = (op_index, arrival, network.now)
        counter.begin_inc(pid, op_index)

    def on_arrival(op_index: OpIndex, arrival: float) -> None:
        if free:
            start(op_index, arrival, free.popleft())
        else:
            backlog.append((op_index, arrival))

    original_deliver = counter.deliver_result

    def rearm(pid: ProcessorId) -> None:
        nonlocal backlog_head
        if backlog_head < len(backlog):
            next_op, next_arrival = backlog[backlog_head]
            backlog_head += 1
            start(next_op, next_arrival, pid)
        else:
            free.append(pid)

    def deliver(pid: ProcessorId, value: int) -> None:
        original_deliver(pid, value)
        pending = in_flight.pop(pid, None)
        if pending is None:
            # A result for an operation this driver did not start
            # (e.g. protocol-internal bookkeeping); leave it alone.
            return
        op_index, arrival, started = pending
        result.outcomes.append(
            OpenLoopOutcome(
                op_index=op_index,
                initiator=pid,
                value=value,
                arrival_time=arrival,
                start_time=started,
                completion_time=network.now,
            )
        )
        if turnaround > 0:
            network.inject(
                (lambda p=pid: rearm(p)), op_index=NO_OP, delay=turnaround
            )
        else:
            rearm(pid)

    counter.deliver_result = deliver  # type: ignore[method-assign]
    origin = network.now
    try:
        for op_index, offset in enumerate(arrivals):
            arrival = origin + offset
            network.inject(
                (lambda op=op_index, t=arrival: on_arrival(op, t)),
                op_index=NO_OP,
                delay=offset,
            )
        barrier()
    finally:
        del counter.__dict__["deliver_result"]
    if len(result.outcomes) != len(arrivals):
        raise ProtocolError(
            f"open-loop run completed {len(result.outcomes)} of "
            f"{len(arrivals)} operations"
        )
    if check_values:
        values = sorted(o.value for o in result.outcomes)
        if values != list(range(len(arrivals))):
            raise ProtocolError(
                f"open-loop run returned values {values[:10]}... instead "
                f"of a permutation of 0..{len(arrivals) - 1}"
            )
    return result


def run_factory_once(
    factory: CounterFactory,
    n: int,
    initiators: Sequence[ProcessorId],
    policy: DeliveryPolicy | None = None,
    check_values: bool = True,
    trace_level: TraceLevel | str = TraceLevel.FULL,
) -> RunResult:
    """Convenience: fresh network + counter, run *initiators*, return result.

    *trace_level* selects the tracing fidelity; loads-only analysis is
    much faster with :attr:`~repro.sim.trace.TraceLevel.LOADS`.
    """
    network = Network(policy=policy, trace_level=trace_level)
    counter = factory(network, n)
    return run_sequence(counter, initiators, check_values=check_values)
