"""Message and message-record types for the simulator.

The paper's cost measure is the *message load*: the number of messages a
processor sends or receives (§3, "Definitions").  Everything in this module
exists to make that quantity exact and auditable — each network-level send
produces exactly one :class:`Message` and, once delivered, exactly one
:class:`MessageRecord` in the trace (at trace levels that keep records).

Both types are :class:`typing.NamedTuple` subclasses rather than frozen
dataclasses: the simulator constructs one of each per delivered message,
and tuple allocation is several times cheaper than a frozen dataclass's
``object.__setattr__`` chain.  They remain immutable — assigning to a
field raises :class:`AttributeError` — and keep keyword construction,
defaults, equality and reprs.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping, NamedTuple

ProcessorId = int
"""Processors are identified by the integers ``1 .. n`` as in the paper."""

OpIndex = int
"""Zero-based index of an ``inc`` operation inside an operation sequence."""

NO_OP: OpIndex = -1
"""Sentinel op index for traffic outside any tracked operation."""

class _EmptyPayload(Mapping[str, Any]):
    """The type of :data:`_EMPTY_PAYLOAD`: an empty mapping with no
    mutators, which ``copy``, ``deepcopy`` and ``pickle`` keep as the
    one shared object (a mapping proxy cannot be deep-copied, and a run
    copied mid-drain carries it in flight)."""

    __slots__ = ()

    def __getitem__(self, key: str) -> Any:
        raise KeyError(key)

    def __iter__(self) -> Iterator[str]:
        return iter(())

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "_EMPTY_PAYLOAD"

    def __reduce__(self) -> str:
        return "_EMPTY_PAYLOAD"


_EMPTY_PAYLOAD: Mapping[str, Any] = _EmptyPayload()
"""Shared immutable empty payload: the default of :class:`Message` and
of :meth:`Processor.send <repro.sim.processor.Processor.send>`, and what
protocols pass for a message that carries nothing."""


class Message(NamedTuple):
    """A single point-to-point message in flight.

    Attributes:
        sender: processor id that sent the message.
        receiver: processor id the message is addressed to.
        kind: protocol-level message type, e.g. ``"inc"`` or ``"retire"``.
        payload: immutable-by-convention mapping with protocol data.
        op_index: the ``inc`` operation this message causally belongs to.
        uid: unique, monotonically increasing id assigned by the network.
        send_time: simulated time at which the message was sent.
    """

    sender: ProcessorId
    receiver: ProcessorId
    kind: str
    payload: Mapping[str, Any] = _EMPTY_PAYLOAD
    op_index: OpIndex = NO_OP
    uid: int = -1
    send_time: float = 0.0

    def __str__(self) -> str:
        return (
            f"[op {self.op_index}] {self.sender} -> {self.receiver}: "
            f"{self.kind} {dict(self.payload)!r}"
        )


class MessageRecord(NamedTuple):
    """A delivered message, as recorded in the execution trace.

    Identical to :class:`Message` plus the delivery time.  Records are what
    the analysis layer consumes: loads, footprints and communication DAGs
    are all derived from sequences of records.
    """

    sender: ProcessorId
    receiver: ProcessorId
    kind: str
    op_index: OpIndex
    uid: int
    send_time: float
    deliver_time: float

    @classmethod
    def from_message(cls, message: Message, deliver_time: float) -> "MessageRecord":
        """Build a record for *message* delivered at *deliver_time*."""
        return cls(
            sender=message.sender,
            receiver=message.receiver,
            kind=message.kind,
            op_index=message.op_index,
            uid=message.uid,
            send_time=message.send_time,
            deliver_time=deliver_time,
        )

    def endpoints(self) -> tuple[ProcessorId, ProcessorId]:
        """Return ``(sender, receiver)`` — the two loaded processors."""
        return (self.sender, self.receiver)

    def __str__(self) -> str:
        return (
            f"[op {self.op_index}] t={self.send_time:g}->{self.deliver_time:g} "
            f"{self.sender} -> {self.receiver}: {self.kind}"
        )
