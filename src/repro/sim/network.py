"""The asynchronous message-passing network simulator.

This is the substrate the whole reproduction runs on.  It provides:

* registration of :class:`~repro.sim.processor.Processor` programs under
  their ids (the paper's processors ``1 .. n``), one at a time or as a
  contiguous id range whose programs are built on first contact
  (:meth:`Network.register_lazy`);
* :meth:`Network.send` — the only way any message moves, so the trace is a
  complete ledger;
* operation attribution — every message inherits the ``inc`` operation of
  the event that caused it, which makes the paper's per-operation
  footprints ``I_p`` exact even under concurrency;
* :meth:`Network.run_until_quiescent` — execute events until no message is
  in flight, which is precisely the paper's "the inc process terminates as
  soon as no further messages are sent" (§2).

Determinism: given the same processors, policy and injection sequence, two
runs produce identical traces.  All randomness lives inside the seeded
delivery policy.

Performance: message delivery is the hot path of every experiment.  The
policy's ``delay`` method and the constant-delay shortcut are pre-bound
once, a send appends the bare message to its timestamp's bucket in the
:class:`~repro.sim.events.EventQueue` (no per-event tuple, no closure),
a local event as the bare pair ``(action, op_index)``, delivery calls
the receiver's ``on_message`` straight off the processor table, and one
fused drain loop walks whole buckets with the trace updates of
:meth:`~repro.sim.trace.Trace.record` inlined behind two flags read once
per call.  ``FULL`` tracing keeps every record; ``LOADS`` skips record
materialization and payload copies; ``OFF`` skips tracing entirely.
Scheduler hooks and fault plans run on the same queue, the same
:meth:`Network.send` and the same loop: a fault plan is consulted per
send once installed and is otherwise one ``None`` test.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Mapping

from repro.errors import (
    ConfigurationError,
    DuplicateProcessorError,
    SimulationLimitError,
    UnknownProcessorError,
)
from repro.sim.events import EventQueue, SchedulerHook
from repro.sim.faults import FaultPlan
from repro.sim.messages import NO_OP, Message, MessageRecord, OpIndex, ProcessorId
from repro.sim.policies import DeliveryPolicy, UnitDelay
from repro.sim.processor import Processor
from repro.sim.trace import INT_MAX, Trace, TraceLevel

DEFAULT_EVENT_LIMIT = 5_000_000
"""Safety valve: a run consuming this many events is assumed to be stuck."""

_LIMIT_CHECK_BATCH = 4096
"""How many events run between event-limit checks in the drain loop."""

_DRAINED: tuple = ()
"""The drain loop's "no live bucket": empty, so one length test covers it."""

_tuple_new = tuple.__new__
"""Direct tuple allocation for Message/MessageRecord on the hot path —
skips the NamedTuple's Python-level ``__new__`` wrapper."""

# The drain loop's per-call level tests compare against these: reading a
# member off an Enum class is a descriptor call (~0.2 us on CPython 3.11),
# as much as the rest of a short drain call's set-up.
_OFF = TraceLevel.OFF
_FULL = TraceLevel.FULL


class Network:
    """A simulated asynchronous point-to-point network.

    Any processor can message any other processor directly (the paper's
    complete communication topology).  Messages are delayed by the
    delivery policy and never lost, duplicated or corrupted — the paper's
    failure-free model.

    Args:
        policy: delivery policy deciding per-message delays
            (default :class:`~repro.sim.policies.UnitDelay`).
        event_limit: livelock safety valve for
            :meth:`run_until_quiescent`.
        trace_level: tracing fidelity — ``FULL`` (default, every record),
            ``LOADS`` (columnar counters only) or ``OFF`` (no tracing).
            Accepts a :class:`~repro.sim.trace.TraceLevel` or its name.
        fault_plan: optional seeded :class:`~repro.sim.faults.FaultPlan`
            consulted by every :meth:`send` (``None`` keeps the
            failure-free model).
        core: accepted and ignored — kept for the frozen ``bench/``
            probes; goes when a benchmark PR drops them.
    """

    def __init__(
        self,
        policy: DeliveryPolicy | None = None,
        event_limit: int = DEFAULT_EVENT_LIMIT,
        trace_level: TraceLevel | str = TraceLevel.FULL,
        fault_plan: FaultPlan | None = None,
        core: str = "auto",
    ) -> None:
        trace_level = TraceLevel.coerce(trace_level)
        # Validated, otherwise ignored: the frozen bench/ probes pass it.
        if core not in ("auto", "fast", "compat"):
            raise ConfigurationError(
                f"unknown core {core!r}: expected 'auto', 'fast' or 'compat'"
            )
        self._policy = policy or UnitDelay()
        self._queue = EventQueue()
        self._processors: dict[ProcessorId, Processor] = {}
        # Id ranges registered with a factory (register_lazy): a program
        # enters the table above the first time its id is addressed.
        self._lazy: list[tuple[range, Callable[[ProcessorId], Processor]]] = []
        self._unmaterialised = 0
        # The largest registered id, materialised or not: the trace's
        # load columns are sized to it at the first count.
        self._id_bound: ProcessorId = 0
        self._trace = Trace(level=trace_level)
        self._trace_level = trace_level
        self._active_op: OpIndex = NO_OP
        self._next_uid = 0
        # Local actions queued: the rest of the queue is messages in
        # flight, so sends keep no count of their own.
        self._pending_actions = 0
        self._event_limit = event_limit
        self._events_executed = 0
        self._fault_plan: FaultPlan | None = None
        self._run_context = ""
        # Hot-path pre-binding: one attribute lookup per send/delivery
        # instead of a chain of them.  `constant_delay` lets constant
        # policies (UnitDelay) skip the per-message delay() call.
        self._policy_delay: Callable[[Message], float] = self._policy.delay
        self._constant_delay: float | None = getattr(
            self._policy, "constant_delay", None
        )
        self._copy_payloads = trace_level is TraceLevel.FULL
        if fault_plan is not None:
            self.install_fault_plan(fault_plan)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._queue.now

    @property
    def trace(self) -> Trace:
        """The execution trace (read for analysis; never mutate)."""
        return self._trace

    @property
    def trace_level(self) -> TraceLevel:
        """The tracing fidelity this network was constructed with."""
        return self._trace_level

    @property
    def policy(self) -> DeliveryPolicy:
        """The delivery policy in force."""
        return self._policy

    @property
    def active_op(self) -> OpIndex:
        """Operation index the currently executing event belongs to."""
        return self._active_op

    @property
    def processor_count(self) -> int:
        """Number of registered processor ids, materialised or not."""
        return len(self._processors) + self._unmaterialised

    @property
    def events_executed(self) -> int:
        """Total events executed since construction (messages + local)."""
        return self._events_executed

    @property
    def fault_plan(self) -> FaultPlan | None:
        """The installed fault plan, or ``None`` (the failure-free model)."""
        return self._fault_plan

    @property
    def run_context(self) -> str:
        """Free-text label of what this network is running (e.g. the
        canonical counter spec), echoed in
        :class:`~repro.errors.SimulationLimitError` messages so faulty
        runs that exhaust the event budget are attributable."""
        return self._run_context

    @run_context.setter
    def run_context(self, value: str) -> None:
        self._run_context = value

    def processor(self, pid: ProcessorId) -> Processor:
        """Return the registered processor *pid* or raise.

        An id registered through :meth:`register_lazy` is materialised
        by this call if nothing addressed it before.
        """
        processor = self._processors.get(pid)
        if processor is None:
            processor = self._materialise(pid)
            if processor is None:
                raise UnknownProcessorError(f"no processor with id {pid}")
        return processor

    def has_processor(self, pid: ProcessorId) -> bool:
        """True if *pid* is registered, materialised or not."""
        return pid in self._processors or self._lazy_factory(pid) is not None

    @property
    def id_bound(self) -> ProcessorId:
        """The largest registered processor id, materialised or not (0
        with none registered); lazy ranges count by their ends, without
        being expanded.

        Infrastructure that needs a fresh id on an already-wired network
        (e.g. the failure detector's hub processor) picks
        ``id_bound + 1`` so it never collides with counter processors.
        """
        return self._id_bound

    def registered_ids(self) -> list[ProcessorId]:
        """All registered processor ids, ascending — materialised or not."""
        ids = set(self._processors)
        for lazy_ids, _ in self._lazy:
            ids.update(lazy_ids)
        return sorted(ids)

    def materialised_ids(self) -> list[ProcessorId]:
        """Ids whose processor program exists, in order of first contact.

        Equals :meth:`registered_ids` (up to order) on a network without
        lazily registered ranges; with them, these are the processors a
        run has addressed so far — the only ones that can hold state.
        """
        return list(self._processors)

    # ------------------------------------------------------------------
    # Topology construction
    # ------------------------------------------------------------------
    def register(self, processor: Processor) -> Processor:
        """Register *processor* under its id and attach it to this network.

        Registering two processors under the same id is an error — ids are
        the paper's unique identities.
        """
        if self.has_processor(processor.pid):
            raise DuplicateProcessorError(
                f"processor id {processor.pid} is already registered"
            )
        return self._install(processor, processor.pid)

    def register_all(self, processors: list[Processor]) -> None:
        """Register every processor in *processors*."""
        for processor in processors:
            self.register(processor)

    def register_lazy(
        self, ids: range, factory: Callable[[ProcessorId], Processor]
    ) -> None:
        """Register every id of the contiguous range *ids* at once.

        ``factory(pid)`` builds the processor program the first time
        *pid* is addressed — as the receiver of a :meth:`send` or through
        :meth:`processor` — and the network then attaches it exactly as
        :meth:`register` would.  Until then the id is registered in every
        observable sense (:meth:`has_processor`, :attr:`processor_count`,
        :meth:`registered_ids`, duplicate detection) but owns no object:
        a protocol that preallocates far more ids than one run touches
        (the tree counter's replacement intervals) pays only for the
        processors that ever receive a message.  *factory* may also
        return a *shared* program — ``pid`` ``None``, one object entered
        under many ids, which reads its id off each message's receiver
        — so ids in the same state need not own an object each.

        *factory* must be deep-copyable together with the network — a
        bound method or a :func:`functools.partial` of one, not a closure
        (``copy.deepcopy`` shares plain functions, closures included, so
        a clone's factory would build processors wired to the original).
        """
        if not isinstance(ids, range) or ids.step != 1 or not ids or ids.start < 1:
            raise ConfigurationError(
                f"register_lazy needs a non-empty range of positive ids "
                f"with step 1, got {ids!r}"
            )
        for other, _ in self._lazy:
            if ids.start < other.stop and other.start < ids.stop:
                raise DuplicateProcessorError(
                    f"processor ids {ids.start}..{ids.stop - 1} overlap the "
                    f"registered range {other.start}..{other.stop - 1}"
                )
        for pid in self._processors:
            if ids.start <= pid < ids.stop:
                raise DuplicateProcessorError(
                    f"processor id {pid} is already registered"
                )
        self._lazy.append((ids, factory))
        self._unmaterialised += len(ids)
        self._raise_id_bound(ids.stop - 1)

    def replace(self, processor: Processor) -> Processor:
        """Swap *processor* in for the one registered under its id.

        The one sanctioned way to exchange a registered program (the
        seeded-bug mutants do, and the tree counter gives a shared leaf
        program's id its own worker): attaches *processor* and enters it in the
        processor table the drain loop delivers through, whether the id
        was materialised before or only covered by a lazy range.
        Messages already in flight are delivered to the new program.
        """
        pid = processor.pid
        if pid not in self._processors:
            if self._lazy_factory(pid) is None:
                raise UnknownProcessorError(f"no processor with id {pid}")
            self._unmaterialised -= 1
        return self._install(processor, pid)

    def _install(self, processor: Processor, pid: ProcessorId) -> Processor:
        """Attach *processor* and enter it in the processor table as *pid*."""
        processor.attach(self)
        self._processors[pid] = processor
        if pid > self._id_bound:
            self._raise_id_bound(pid)
        return processor

    def _raise_id_bound(self, pid: ProcessorId) -> None:
        """Make *pid* the id bound if it is larger, growing the trace's
        load columns to it once they are sized (before the first count
        they stay empty: the drain sizes them)."""
        if pid > self._id_bound:
            self._id_bound = pid
            if self._trace._received:
                self._trace._fit(pid)

    def _lazy_factory(
        self, pid: ProcessorId
    ) -> Callable[[ProcessorId], Processor] | None:
        """The factory of the lazy range covering *pid*, if any."""
        for ids, factory in self._lazy:
            # Bounds, not ``pid in ids``: constant time for every integer
            # type (range membership scans for anything but exact ints).
            if ids.start <= pid < ids.stop:
                return factory
        return None

    def _materialise(self, pid: ProcessorId) -> Processor | None:
        """Build and install the processor of a lazily registered id;
        ``None`` if *pid* is not registered (callers raise)."""
        factory = self._lazy_factory(pid)
        if factory is None:
            return None
        processor = factory(pid)
        if processor.pid != pid and processor.pid is not None:
            raise ConfigurationError(
                f"lazy factory built processor {processor.pid} for id {pid}"
            )
        self._unmaterialised -= 1
        return self._install(processor, pid)

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def install_fault_plan(self, plan: FaultPlan) -> None:
        """Install *plan*; every later :meth:`send` consults it.

        Only the plan is stored: networks without one take the same
        :meth:`send` and produce byte-identical traces, events already
        pending keep their order, and anything that wrapped ``send``
        before (e.g. :meth:`BitLoadAnalyzer.attach
        <repro.analysis.bits.BitLoadAnalyzer.attach>`) keeps observing.
        The plan's ledger is per-network-run.
        """
        self._fault_plan = plan

    # ------------------------------------------------------------------
    # Schedule exploration
    # ------------------------------------------------------------------
    @property
    def scheduler_hook(self) -> SchedulerHook | None:
        """The event queue's installed tie-break hook (``None`` = FIFO)."""
        return self._queue.scheduler_hook

    def install_scheduler_hook(self, hook: SchedulerHook | None) -> None:
        """Install (or with ``None`` remove) a tie-break arbiter.

        Forwarded to :meth:`EventQueue.install_hook`: while installed,
        equal-time events run in the order the hook chooses rather than
        FIFO; events already pending keep their order.  This is the
        schedule explorer's control point.  A drain reads the hook when
        it starts, so install between drains, not from inside a handler.
        Both :meth:`reset` and :meth:`EventQueue.clear` drop the hook,
        so a reused substrate cannot leak one exploration's tie-break
        state into the next run.
        """
        self._queue.install_hook(hook)

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def send(
        self,
        sender: ProcessorId,
        receiver: ProcessorId,
        kind: str,
        payload: Mapping[str, Any],
    ) -> Message:
        """Send one message; called via :meth:`Processor.send`.

        The message inherits the active operation index, receives a unique
        uid, and is scheduled for delivery after the policy's delay.
        Under ``FULL`` tracing the payload is defensively copied (records
        outlive the send); the fast tiers pass the caller's mapping
        through.

        With a fault plan installed, the plan is consulted once per
        message and may drop it (nothing queued — a lost message cannot
        block quiescence), duplicate it (one
        bucket entry per copy, all sharing the uid), boost its delay, or
        rewrite its payload (Byzantine rules: the corrupted message is
        what gets delivered).  Every injected fault lands in the plan's
        ledger (:attr:`FaultPlan.events
        <repro.sim.faults.FaultPlan.events>`) and nowhere else: the
        trace records deliveries only.  A message no rule touches is
        scheduled exactly as without a plan.
        """
        if receiver not in self._processors and self._materialise(receiver) is None:
            raise UnknownProcessorError(
                f"message from {sender} addressed to unknown processor {receiver}"
            )
        if sender < 0:  # it would index the load columns from their end
            raise ValueError(f"message from negative processor id {sender}")
        queue = self._queue
        uid = self._next_uid
        self._next_uid = uid + 1
        if self._copy_payloads:
            payload = dict(payload)
        now = queue._now
        message = _tuple_new(
            Message, (sender, receiver, kind, payload, self._active_op, uid, now)
        )
        delay = self._constant_delay
        if delay is None:
            delay = self._policy_delay(message)
            if delay < 0:
                raise ValueError(
                    f"policy {self._policy!r} returned negative delay {delay}"
                )
        time = now + delay
        if self._fault_plan is not None:
            outcome = self._fault_plan.consult(message, now, time)
            if outcome is not None:
                # A Byzantine rewrite replaces what goes on the wire (same
                # uid, same endpoints); the caller still gets the message
                # it sent.
                delivered = outcome.message or message
                for time in outcome.delivery_times:
                    queue.push_at(time, delivered)
                return message
        # Inlined EventQueue.push_at: the message rides bare in its time
        # bucket — no per-event tuple, no heap traffic unless the
        # timestamp is new.
        buckets = queue._buckets
        bucket = buckets.get(time)
        if bucket is None:
            buckets[time] = [message]
            heappush(queue._times, time)
        else:
            bucket.append(message)
        queue._len += 1
        return message

    # ------------------------------------------------------------------
    # Local events (operation initiation, timers)
    # ------------------------------------------------------------------
    def inject(
        self,
        action: Callable[[], None],
        op_index: OpIndex = NO_OP,
        delay: float = 0.0,
    ) -> None:
        """Schedule a local *action* attributed to operation *op_index*.

        This models the paper's operation requests: an ``inc`` "initiates a
        process" at its requesting processor without itself being a
        message.  Messages sent from within *action* belong to *op_index*.

        The bare pair ``(action, op_index)`` rides in the time bucket (a
        hook sees an opaque non-:class:`Message`); the drain loop makes
        *op_index* active and calls *action*.  A deep copy's bound-method
        actions fire on the copy; a closure still follows the original.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._queue.push_at(self._queue._now + delay, (action, op_index))
        self._pending_actions += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_until_quiescent(self) -> int:
        """Execute events until none remain; return how many ran.

        Quiescence — an empty event queue — is the paper's termination
        condition for an ``inc`` process.  Raises
        :class:`~repro.errors.SimulationLimitError` if the event budget is
        exhausted, which indicates a protocol livelock.  The budget is
        checked once per :meth:`run` batch rather than per event.
        """
        queue = self._queue
        run = self.run
        executed = 0
        while queue._len:
            executed += run(_LIMIT_CHECK_BATCH)
        return executed

    def run(self, limit: int) -> int:
        """Execute up to *limit* pending events; return how many ran.

        The bounded drain under every way of running the network:
        :meth:`run_until_quiescent` calls it in batches, :meth:`step` is
        the limit-1 call, and cooperative schedulers
        (:mod:`repro.runtime`) pull one burst between yields.  Fewer
        than *limit* ran exactly when the queue emptied.  Events count
        against the event budget; a call never runs past the budget by
        more than one event before raising
        :class:`~repro.errors.SimulationLimitError`.
        """
        budget = self._event_limit - self._events_executed + 1
        ran = self._drain(limit if limit < budget else budget)
        self._events_executed += ran
        if self._events_executed > self._event_limit:
            raise self._limit_error()
        return ran

    def step(self) -> bool:
        """Execute the single earliest pending event; ``False`` if none."""
        return self.run(1) == 1

    def next_event_time(self) -> float | None:
        """Timestamp of the earliest pending event, or ``None`` when
        quiescent (a read-only peek; lockstep rounds are delimited by
        it)."""
        return self._queue.next_time()

    def _limit_error(self) -> SimulationLimitError:
        """Build the (context-enriched) event-budget exhaustion error."""
        context = self._run_context
        suffix = f" while running {context}" if context else ""
        if self._fault_plan is not None:
            suffix += f" under fault plan {self._fault_plan.spec!r}"
        return SimulationLimitError(
            f"exceeded event limit of {self._event_limit} "
            f"({self._events_executed} events executed, "
            f"{self.in_flight} messages in flight){suffix}; either the "
            f"run is longer than {self._event_limit} events — raise "
            "event_limit — or the protocol does not quiesce: suspect a "
            "livelock or a retransmission loop",
            events_executed=self._events_executed,
            in_flight=self.in_flight,
            context=context,
        )

    def _drain(self, limit: int) -> int:
        """Fused bucket drain: walk, pick, trace, dispatch.

        :meth:`EventQueue._next_item` inlined: walks the queue's buckets
        in time order with the cursor held in locals; a message goes to
        its receiver's ``on_message`` through the processor table, an
        ``(action, op_index)`` pair runs *action* under *op_index*.
        Queue length, the pending-action count, the trace's message
        total and the active operation are reconciled once in the
        ``finally`` — ``send`` and ``inject`` update ``_len`` and
        ``_pending_actions`` through the instance during the loop, so
        only this loop's own deltas are applied there, and the
        deliveries are the events run less the local actions counted.
        The active operation lives in a local and is stored on the
        instance only when it changes.

        Each delivered message updates the trace exactly as
        :meth:`~repro.sim.trace.Trace.record` would — that method is the
        reference this loop inlines.  Two flags read once per call pick
        the level's share: ``OFF`` skips tracing, ``LOADS`` updates the
        columnar counters (``NO_OP`` traffic counts toward loads and
        totals only), ``FULL`` also materializes the record and indexes
        ``NO_OP`` traffic in the per-operation views.

        The load columns are checked once per call, never per message:
        they are sized to the id bound here at the first count (and kept
        there by registration), so a receiver always indexes them; and
        since no count exceeds the trace's total, they widen to 64-bit
        here if this call's *limit* could take the total past
        :data:`~repro.sim.trace.INT_MAX`.  Only a sender past the end
        (unregistered) takes the rare path that grows them.
        """
        queue = self._queue
        buckets = queue._buckets
        times = queue._times
        hook = queue._hook
        processors = self._processors
        trace = self._trace
        level = self._trace_level
        loads = level is not _OFF
        full = level is _FULL
        if loads:
            if len(trace._received) <= self._id_bound:
                trace._fit(self._id_bound)
            if trace._total + limit > INT_MAX:
                trace._widen()
        records = trace._records
        by_op = trace._by_op
        sent_counts = trace._sent
        received_counts = trace._received
        op_counts = trace._op_counts
        footprints = trace._footprints
        bucket = queue._active
        pos = queue._active_pos
        if bucket is None:
            bucket = _DRAINED  # the loop's length test then advances
        ran = 0
        actions = 0
        previous_op = active_op = self._active_op
        try:
            while ran < limit:
                if pos >= len(bucket):
                    if bucket is not _DRAINED:
                        del buckets[queue._now]
                    if not times:
                        bucket = _DRAINED
                        queue._active = None
                        break
                    # A bucket off the heap holds at least one item.
                    time = heappop(times)
                    bucket = queue._active = buckets[time]
                    queue._now = time
                    pos = 0
                if hook is not None and len(bucket) - pos > 1:
                    if pos:
                        del bucket[:pos]
                        pos = 0
                    item = bucket.pop(hook.choose(bucket))
                else:
                    item = bucket[pos]
                    bucket[pos] = None
                    pos += 1
                ran += 1
                if type(item) is not Message:
                    actions += 1
                    active_op = self._active_op = item[1]
                    item[0]()
                    continue
                pid = item[1]
                op_index = item[4]
                if loads:
                    sender = item[0]
                    try:
                        sent_counts[sender] += 1
                    except IndexError:
                        trace._reach(sender)
                        sent_counts[sender] += 1
                    received_counts[pid] += 1
                    if op_index != NO_OP or full:
                        if full:
                            record = _tuple_new(
                                MessageRecord,
                                (
                                    sender,
                                    pid,
                                    item[2],
                                    op_index,
                                    item[5],
                                    item[6],
                                    queue._now,
                                ),
                            )
                            records.append(record)
                            by_op[op_index].append(record)
                        op_counts[op_index] += 1
                        footprint = footprints.get(op_index)
                        if footprint is None:
                            footprints[op_index] = {sender, pid}
                        else:
                            footprint.add(sender)
                            footprint.add(pid)
                if op_index != active_op:
                    active_op = self._active_op = op_index
                processors[pid].on_message(item)
        finally:
            queue._active_pos = pos if bucket is not _DRAINED else 0
            queue._len -= ran
            self._pending_actions -= actions
            if loads:
                trace._total += ran - actions
            self._active_op = previous_op
        return ran

    def reset(self) -> None:
        """Reset the substrate for a fresh run with the same topology.

        Clears the event queue (time returns to zero), zeroes the
        in-flight and executed-event counters, restarts message uids,
        starts a fresh trace at the same level, forks the delivery
        policy (seeded policies replay from scratch) and resets the
        fault plan's generator and ledger, and drops any installed
        scheduler hook (clearing the queue removes it, so back-to-back
        explorations cannot leak tie-break state).  Registered
        processors stay registered; their *protocol* state is theirs to
        reset — this is a substrate-level reuse hook for harnesses that
        rebuild counters on a long-lived network.
        """
        self._queue.clear()
        self._pending_actions = 0
        self._events_executed = 0
        self._next_uid = 0
        self._active_op = NO_OP
        self._policy = self._policy.fork()
        self._policy_delay = self._policy.delay
        self._constant_delay = getattr(self._policy, "constant_delay", None)
        self._trace = Trace(level=self._trace_level)
        if self._fault_plan is not None:
            self._fault_plan.reset()

    def is_quiescent(self) -> bool:
        """True if no event (message or local action) is pending."""
        return len(self._queue) == 0

    @property
    def in_flight(self) -> int:
        """Number of messages currently in flight: the queued events
        that are not local actions."""
        return self._queue._len - self._pending_actions
