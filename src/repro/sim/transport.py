"""Reliable delivery over a lossy network: ack / retransmit / dedup.

With a lossy :class:`~repro.sim.faults.FaultPlan` installed, the bare
network violates the paper's §2 delivery guarantee.
:class:`ReliableTransport` restores it *above* the faulty wire, the way
real systems do: every protocol message travels inside a sequenced
``transport.data`` envelope, the receiving endpoint acknowledges each
copy with ``transport.ack``, the sender retransmits unacknowledged
envelopes on a capped exponential backoff, and per-channel sequence
numbers suppress duplicates (whether injected by the fault layer or
created by retransmission races).

Counters run **unmodified**: the transport is a drop-in stand-in for the
:class:`~repro.sim.network.Network` they are constructed on.  Counter
processors register through it and send through it; the transport wraps
each one in an endpoint registered on the real network, so all envelope
traffic is delayed, faulted and traced like any other message.  The
trace therefore distinguishes goodput from overhead by message kind
(``FULL`` level) while :meth:`ReliableTransport.stats` keeps the
aggregate ledger (data sent, retransmissions, acks, duplicates
suppressed, goodput) at every trace level.

Guarantees restored (and their limits):

* every logical message is delivered exactly once to the destination's
  protocol handler — provided the destination is eventually up long
  enough for a retransmission to land, and retries are not exhausted;
* delivery order is *not* restored: the transport is reliable, not
  FIFO — exactly the asynchrony the paper's model permits, so protocol
  correctness arguments carry over unchanged;
* a permanently crashed destination does **not** make the sender retry
  forever: after ``attempt_cap`` transmissions the transport raises a
  typed :class:`~repro.errors.DeliveryAbandonedError` naming the dead
  pid and the attempt count, instead of burning the event budget and
  dying later on an opaque
  :class:`~repro.errors.SimulationLimitError`.  Callers that want
  silent best-effort semantics pass an explicit ``max_retries``, after
  which an abandoned send merely counts as ``gave_up``;
* a silent give-up leaves a hole: the receiver's window on that channel
  never passes the abandoned sequence number.  Later envelopes on it
  are still delivered exactly once, but wait in the out-of-order set, so
  that one channel's state grows with its traffic — the only case that
  does — until a straggler copy of the abandoned envelope closes the gap.

State is proportional to channels and messages in flight, never to
messages ever sent: per (sender, receiver) pair that carried data, the
next sequence number out at the sender and the delivery watermark in at
the receiver, each a 4-byte slot of its endpoint's flat ``array("i")``
table (so a channel carries at most 2**31 - 1 envelopes); one entry per
unacknowledged envelope in one transport-wide table; a set of sequence
numbers only while a channel has a gap open; nothing per delivered
message.  :meth:`ReliableTransport.held` reads the sizes out.

Operation attribution survives faults: retransmissions are re-injected
under the original operation's index, so per-operation footprints
``I_p`` include retry traffic exactly where the paper's accounting
would put it.
"""

from __future__ import annotations

from array import array
from functools import partial
from typing import Any, Callable, Mapping

from repro.errors import (
    ConfigurationError,
    DeliveryAbandonedError,
    UnknownProcessorError,
)
from repro.sim.messages import NO_OP, Message, OpIndex, ProcessorId
from repro.sim.network import Network
from repro.sim.processor import Processor

__all__ = ["ACK_KIND", "DATA_KIND", "ReliableTransport"]

DATA_KIND = "transport.data"
"""Envelope kind carrying one sequenced protocol message."""

ACK_KIND = "transport.ack"
"""Acknowledgement kind; payload names the acknowledged sequence number."""

_tuple_new = tuple.__new__


class _Pending:
    """One unacknowledged envelope, and the timer that chases it.

    The object is itself the action handed to :meth:`Network.inject`
    after each transmission (no closure per send).  It sits in the
    transport's in-flight table under *key* — ``(sender, receiver,
    seq)`` — until the ack removes it; a timer firing after that finds
    the key gone and does nothing.
    """

    __slots__ = ("endpoint", "key", "envelope", "op_index", "attempts")

    def __init__(
        self,
        endpoint: "_Endpoint",
        key: tuple[ProcessorId, ProcessorId, int],
        envelope: dict[str, Any],
        op_index: OpIndex,
    ) -> None:
        self.endpoint = endpoint
        self.key = key
        self.envelope = envelope
        self.op_index = op_index
        self.attempts = 0

    def __call__(self) -> None:
        """The timer set by the last transmission fired."""
        transport = self.endpoint._transport
        if self.key not in transport._unacked:  # acknowledged meanwhile
            return
        max_retries = transport._max_retries
        if self.attempts < (
            transport._attempt_cap if max_retries is None else max_retries + 1
        ):
            self.transmit()
            return
        del transport._unacked[self.key]
        transport._stats["gave_up"] += 1
        if max_retries is None:
            # No explicit retry budget: a peer that has ignored this many
            # attempts is treated as dead, loudly.
            sender, receiver, _ = self.key
            raise DeliveryAbandonedError(
                f"reliable delivery {sender}->{receiver} abandoned after "
                f"{self.attempts} attempts; processor {receiver} looks "
                "permanently dead (pass max_retries= for silent best-effort "
                "delivery, or give the fault plan a recover= clause)",
                receiver=receiver,
                attempts=self.attempts,
            )

    def transmit(self) -> None:
        """Put the envelope on the wire and set the next timer."""
        endpoint = self.endpoint
        transport = endpoint._transport
        network = endpoint._network
        attempts = self.attempts
        transport._stats["retransmissions" if attempts else "data_sent"] += 1
        network.send(endpoint.pid, self.key[1], DATA_KIND, self.envelope)
        self.attempts = attempts + 1
        delay = transport._rto * (2.0**attempts)
        if delay > transport._rto_cap:
            delay = transport._rto_cap
        network.inject(self, op_index=self.op_index, delay=delay)


class _Endpoint(Processor):
    """The per-processor shim registered on the real network.

    Outgoing protocol sends become sequenced envelopes with a retransmit
    timer; incoming envelopes are acked, deduplicated, unwrapped and
    handed to the wrapped protocol processor.  A channel costs it two
    ints in one of two flat ``array("i")`` tables: ``_out`` lists the
    peers it has sent to, then a sentinel slot, then the next sequence
    number to each; ``_in`` the peers whose watermark has moved, the
    sentinel, then that watermark (every seq below it from that peer
    has been delivered).  ``_outs`` / ``_ins`` count the peers.  A
    lookup writes the peer into the sentinel slot and runs one C-level
    ``index`` scan, which stops there at the latest: a new peer is found
    at the sentinel, already in place, without an exception.
    """

    __slots__ = ("_inner", "_transport", "_out", "_outs", "_in", "_ins")

    def __init__(
        self, pid: ProcessorId, inner: Processor, transport: "ReliableTransport"
    ) -> None:
        super().__init__(pid)
        self._inner = inner
        self._transport = transport
        self._out = array("i", (0,))
        self._outs = 0
        self._in = array("i", (0,))
        self._ins = 0

    # ------------------------------------------------------------------
    # Sending (called by ReliableTransport.send)
    # ------------------------------------------------------------------
    def send_reliable(
        self, receiver: ProcessorId, kind: str, payload: Mapping[str, Any]
    ) -> None:
        out = self._out
        peers = self._outs
        out[peers] = receiver  # the sentinel: the scan stops here at the latest
        at = out.index(receiver)
        if at == peers:  # the channel's first envelope
            out.insert(peers + 1, 0)
            out.append(0)
            self._outs = peers = peers + 1
        slot = at + peers + 1
        seq = out[slot]
        out[slot] = seq + 1
        key = (self.pid, receiver, seq)
        envelope = {"seq": seq, "kind": kind, "data": payload}
        pending = _Pending(self, key, envelope, self._network._active_op)
        self._transport._unacked[key] = pending
        pending.transmit()

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def on_message(self, message: Message) -> None:
        kind = message[2]
        if kind == DATA_KIND:
            self._on_data(message)
        elif kind == ACK_KIND:
            self._transport._unacked.pop(
                (self.pid, message[0], message[3]["seq"]), None
            )
        else:
            # Traffic from processors outside the transport (registered
            # directly on the real network) passes through unwrapped.
            self._inner.on_message(message)

    def _on_data(self, message: Message) -> None:
        envelope = message[3]
        seq = envelope["seq"]
        source = message[0]
        pid = self.pid
        transport = self._transport
        stats = transport._stats
        # Ack every copy: the original ack may itself have been lost.
        self._network.send(pid, source, ACK_KIND, {"seq": seq})
        # A sliding-window receiver: the seq *at* the watermark advances
        # it, through any run waiting in the channel's out-of-order set; a
        # seq above it joins that set, which exists only while the gap
        # below it is open.  A channel enters ``_in`` when its watermark
        # first moves.
        table = self._in
        peers = self._ins
        table[peers] = source  # the sentinel
        at = table.index(source)
        low = table[at + peers + 1] if at < peers else 0
        if seq < low:
            stats["duplicates_suppressed"] += 1
            return
        ahead_table = transport._ahead
        if seq > low:
            ahead = ahead_table.setdefault((pid, source), set())
            if seq in ahead:
                stats["duplicates_suppressed"] += 1
                return
            ahead.add(seq)
        else:
            low += 1
            if ahead_table:  # some channel has a gap open; this one?
                channel = (pid, source)
                ahead = ahead_table.get(channel)
                if ahead is not None:
                    while low in ahead:
                        ahead.remove(low)
                        low += 1
                    if not ahead:
                        del ahead_table[channel]
            if at < peers:
                table[at + peers + 1] = low
            else:  # the source already sits in the sentinel's slot
                table.insert(peers + 1, 0)
                table.append(low)
                self._ins = peers + 1
        stats["delivered"] += 1
        inner_message = _tuple_new(
            Message,
            (
                source,
                pid,
                envelope["kind"],
                envelope["data"],
                message[4],
                message[5],
                message[6],
            ),
        )
        self._inner.on_message(inner_message)


class ReliableTransport:
    """A reliable, network-shaped facade counters are built on.

    A counter is built on a transport wherever it would be built on a
    :class:`~repro.sim.network.Network`, and runs unmodified; a session
    asks for one by name::

        session = RunSession("central", 16, policy="random", seed=3,
                             faults="drop=0.05", reliable=True)
        session.transport                       # this class, on the network

    Registration wraps each processor in an acknowledging endpoint on
    the real network; ``send`` routes through the sender's endpoint;
    everything else (``inject``, ``run_until_quiescent``, ``trace``,
    ``now``, ...) forwards to the wrapped network, so drivers and
    analysis code cannot tell the difference.

    Args:
        network: the (possibly faulty) network to run over.
        rto: base retransmission timeout in simulated time.  Must exceed
            the worst-case round trip of the delivery policy or clean
            runs produce spurious retransmissions (the default clears
            every built-in policy).
        rto_cap: upper bound for the exponential backoff.
        max_retries: retransmissions per envelope before *silently*
            giving up (the send counts as ``gave_up``); ``None``
            (default) means there is no silent budget and the
            ``attempt_cap`` safety net applies instead.
        attempt_cap: with ``max_retries=None``, total transmissions per
            envelope before the transport declares the destination dead
            and raises :class:`~repro.errors.DeliveryAbandonedError`.
            With the default backoff this spans thousands of simulated
            time units — far beyond any transient crash window — so it
            only fires against a genuinely unreachable peer.
    """

    def __init__(
        self,
        network: Network,
        rto: float = 25.0,
        rto_cap: float = 200.0,
        max_retries: int | None = None,
        attempt_cap: int = 25,
    ) -> None:
        if rto <= 0:
            raise ConfigurationError(f"rto must be positive, got {rto}")
        if rto_cap < rto:
            raise ConfigurationError(
                f"rto_cap must be >= rto, got {rto_cap} < {rto}"
            )
        if max_retries is not None and max_retries < 1:
            raise ConfigurationError(
                f"max_retries must be >= 1 or None, got {max_retries}"
            )
        if attempt_cap < 1:
            raise ConfigurationError(
                f"attempt_cap must be >= 1, got {attempt_cap}"
            )
        self._network = network
        self._rto = float(rto)
        self._rto_cap = float(rto_cap)
        self._max_retries = max_retries
        self._attempt_cap = int(attempt_cap)
        self._endpoints: dict[ProcessorId, _Endpoint] = {}
        # (sender, receiver, seq) -> envelope awaiting its ack.
        self._unacked: dict[tuple[ProcessorId, ProcessorId, int], _Pending] = {}
        # (receiver, source) -> seqs delivered ahead of an open gap.
        self._ahead: dict[tuple[ProcessorId, ProcessorId], set[int]] = {}
        self._stats: dict[str, int] = {
            "data_sent": 0,
            "retransmissions": 0,
            "acks_sent": 0,  # derived by stats(), never bumped
            "duplicates_suppressed": 0,
            "delivered": 0,
            "gave_up": 0,
        }

    # ------------------------------------------------------------------
    # The Network-shaped surface counters use
    # ------------------------------------------------------------------
    def register(self, processor: Processor) -> Processor:
        """Wrap *processor* in an endpoint and register it."""
        endpoint = _Endpoint(processor.pid, processor, self)
        self._network.register(endpoint)
        self._adopt(endpoint)
        return processor

    def register_lazy(
        self, ids: range, factory: Callable[[ProcessorId], Processor]
    ) -> None:
        """Register the id range *ids* lazily on the wrapped network.

        Each processor *factory* builds is wrapped in its endpoint when
        the network materialises it (see :meth:`Network.register_lazy`).
        """
        self._network.register_lazy(ids, partial(self._make_endpoint, factory))

    def _make_endpoint(
        self, factory: Callable[[ProcessorId], Processor], pid: ProcessorId
    ) -> _Endpoint:
        endpoint = _Endpoint(pid, factory(pid), self)
        self._adopt(endpoint)
        return endpoint

    def _adopt(self, endpoint: _Endpoint) -> None:
        endpoint._inner.attach(self)  # the processor's sends route through us
        self._endpoints[endpoint.pid] = endpoint

    def register_all(self, processors: list[Processor]) -> None:
        """Register every processor in *processors*."""
        for processor in processors:
            self.register(processor)

    def replace(self, processor: Processor) -> Processor:
        """Swap *processor* in for the program wrapped under its id (see
        :meth:`Network.replace`): the endpoint and its channel state stay,
        only the program inside changes."""
        self._network.processor(processor.pid)  # materialises, or raises
        self._endpoints[processor.pid]._inner = processor
        processor.attach(self)
        return processor

    def send(
        self,
        sender: ProcessorId,
        receiver: ProcessorId,
        kind: str,
        payload: Mapping[str, Any],
    ) -> None:
        """Send one protocol message reliably from *sender*."""
        try:
            endpoint = self._endpoints[sender]
        except KeyError:
            raise UnknownProcessorError(
                f"sender {sender} is not registered with this transport"
            ) from None
        endpoint.send_reliable(receiver, kind, payload)

    def inject(
        self,
        action: Callable[[], None],
        op_index: OpIndex = NO_OP,
        delay: float = 0.0,
    ) -> None:
        """Forwarded to :meth:`Network.inject` (local events are lossless)."""
        self._network.inject(action, op_index=op_index, delay=delay)

    def processor(self, pid: ProcessorId) -> Processor:
        """The *protocol* processor registered under *pid* (unwrapped).

        Materialises a lazily registered id like the network does.
        """
        processor = self._network.processor(pid)
        endpoint = self._endpoints.get(pid)
        return processor if endpoint is None else endpoint._inner

    def has_processor(self, pid: ProcessorId) -> bool:
        """True if *pid* is registered (through the transport or not)."""
        return self._network.has_processor(pid)

    def run_until_quiescent(self) -> int:
        """Forwarded to :meth:`Network.run_until_quiescent`."""
        return self._network.run_until_quiescent()

    def is_quiescent(self) -> bool:
        """Forwarded to :meth:`Network.is_quiescent`."""
        return self._network.is_quiescent()

    # ------------------------------------------------------------------
    # Forwarded introspection
    # ------------------------------------------------------------------
    @property
    def network(self) -> Network:
        """The wrapped (possibly faulty) network."""
        return self._network

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._network.now

    @property
    def trace(self):
        """The wrapped network's trace."""
        return self._network.trace

    @property
    def trace_level(self):
        """The wrapped network's trace level."""
        return self._network.trace_level

    @property
    def policy(self):
        """The wrapped network's delivery policy."""
        return self._network.policy

    @property
    def active_op(self) -> OpIndex:
        """The wrapped network's active operation index."""
        return self._network.active_op

    @property
    def in_flight(self) -> int:
        """Messages currently in flight on the wrapped network."""
        return self._network.in_flight

    @property
    def events_executed(self) -> int:
        """Events executed on the wrapped network."""
        return self._network.events_executed

    @property
    def processor_count(self) -> int:
        """Processors registered on the wrapped network."""
        return self._network.processor_count

    def materialised_ids(self) -> list[ProcessorId]:
        """Forwarded to :meth:`Network.materialised_ids`."""
        return self._network.materialised_ids()

    # ------------------------------------------------------------------
    # Transport accounting
    # ------------------------------------------------------------------
    @property
    def rto(self) -> float:
        """Base retransmission timeout."""
        return self._rto

    def stats(self) -> dict[str, int]:
        """Aggregate delivery ledger (a fresh copy).

        Keys: ``data_sent`` (first transmissions), ``retransmissions``,
        ``acks_sent``, ``duplicates_suppressed``, ``delivered`` (unique
        envelopes handed to protocol handlers — the goodput), and
        ``gave_up`` (envelopes abandoned after ``max_retries``).  Every
        data arrival is acked and then either delivered or suppressed, so
        ``acks_sent`` is their sum.
        """
        stats = dict(self._stats)
        stats["acks_sent"] = stats["delivered"] + stats["duplicates_suppressed"]
        return stats

    def held(self) -> dict[str, int]:
        """What the transport holds right now (a read-out, not a knob).

        ``channels``: (sender, receiver) pairs whose delivery watermark
        has moved (each also has a next seq at its sender); ``pending``:
        envelopes sent and not yet acknowledged; ``out_of_order``:
        sequence numbers delivered ahead of a still-open gap.  The last
        two are zero at every quiescence barrier of a run with
        ``max_retries=None``.
        """
        return {
            "channels": sum(e._ins for e in self._endpoints.values()),
            "pending": len(self._unacked),
            "out_of_order": sum(len(ahead) for ahead in self._ahead.values()),
        }

    @property
    def retransmissions(self) -> int:
        """Envelopes re-sent after an unacknowledged timeout."""
        return self._stats["retransmissions"]

    @property
    def goodput(self) -> int:
        """Unique envelopes delivered to protocol handlers."""
        return self._stats["delivered"]

    def overhead_ratio(self) -> float:
        """Wire messages per delivered envelope (1 ack each is free).

        ``(data_sent + retransmissions) / delivered`` — 1.0 on a clean
        network, growing with loss.  Returns 0.0 before any delivery.
        """
        delivered = self._stats["delivered"]
        if not delivered:
            return 0.0
        return (
            self._stats["data_sent"] + self._stats["retransmissions"]
        ) / delivered
