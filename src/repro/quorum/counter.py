"""A distributed counter built on a quorum system.

Every processor keeps a versioned copy of the counter; an ``inc`` reads a
quorum (taking the maximum-version copy), returns that value, and writes
the incremented value back to the quorum.  Correctness under sequential
operations follows from intersection — exactly the Hot Spot Lemma's
argument run in reverse: because consecutive quorums share a member, the
reader always sees the latest write.

Message cost per operation: ``2·(|Q|−1)`` for the read round plus
``|Q|−1`` for the write round (the initiator's own copy is local).  Load
is governed by the quorum system's load profile: Maekawa grids spread a
Θ(√n) bottleneck, the singleton system degenerates to the central
counter, tree paths hammer the root — the E8 bench tabulates exactly
this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.api import Capabilities, DistributedCounter
from repro.errors import ConfigurationError, ProtocolError
from repro.quorum.systems import QuorumSystem
from repro.sim.messages import _EMPTY_PAYLOAD, Message, OpIndex, ProcessorId
from repro.sim.network import Network
from repro.sim.processor import Processor

KIND_READ = "q-read"
KIND_READ_REPLY = "q-read-reply"
KIND_WRITE = "q-write"

SYSTEM_SLUGS = {
    "SingletonQuorum": "singleton",
    "RotatingMajorityQuorum": "majority",
    "MaekawaGrid": "maekawa",
    "TreePathQuorum": "tree-paths",
    "WheelQuorum": "wheel",
    "CrumblingWall": "crumbling-wall",
    "ProjectivePlaneQuorum": "projective-plane",
}
"""Canonical short name per quorum-system class.

``QuorumCounter.name`` is ``quorum[<slug>]``, which is also the counter's
registry key (:mod:`repro.registry`), so report tables, sweep cache keys
and BENCH JSON all agree on the same label.
"""


def system_slug(system: QuorumSystem) -> str:
    """Canonical slug of *system* (class name lowered for unknown ones)."""
    return SYSTEM_SLUGS.get(type(system).__name__, type(system).__name__.lower())


_NO_REPLY: Mapping[str, int] = {"version": -1, "value": 0}
"""A read round's best reply before any copy was read (immutable by
convention): every real copy's version beats it."""


@dataclass(slots=True)
class _PendingInc:
    """Initiator-side state of one in-flight inc."""

    quorum: frozenset[ProcessorId]
    awaiting: int
    best: Mapping[str, int]


class _QuorumMember(Processor):
    """A processor holding a versioned counter copy and running incs.

    The copy is one ``{"version", "value"}`` mapping, immutable by
    convention: a read is answered with the mapping itself, an applied
    write adopts the write's payload, and a write round sends one
    payload to every remote member — no message builds a payload of its
    own.  Sends go through ``network.send``, looked up once per round
    (never cached: a bit meter wraps it on the instance).
    """

    def __init__(self, pid: ProcessorId, counter: "QuorumCounter") -> None:
        super().__init__(pid)
        self._counter = counter
        self.state: Mapping[str, int] = {"version": 0, "value": 0}
        self._pending: _PendingInc | None = None

    @property
    def version(self) -> int:
        """Version of this member's copy."""
        return self.state["version"]

    @property
    def value(self) -> int:
        """Counter value of this member's copy."""
        return self.state["value"]

    # -- initiator side --------------------------------------------------
    def request_inc(self) -> None:
        if self._pending is not None:
            raise ProtocolError(
                f"processor {self.pid} already has an inc in flight "
                "(the quorum counter is sequential)"
            )
        pid = self.pid
        quorum = self._counter.next_quorum()
        if pid in quorum:
            pending = _PendingInc(quorum, len(quorum) - 1, self.state)
        else:
            pending = _PendingInc(quorum, len(quorum), _NO_REPLY)
        self._pending = pending
        if not pending.awaiting:
            self._finish_read_round()
            return
        send = self._network.send
        for member in quorum:
            if member != pid:
                send(pid, member, KIND_READ, _EMPTY_PAYLOAD)

    def _finish_read_round(self) -> None:
        pending = self._pending
        assert pending is not None
        self._pending = None
        best = pending.best
        current = best["value"]
        write = {"version": best["version"] + 1, "value": current + 1}
        self._counter.deliver_result(self.pid, current)
        pid = self.pid
        send = self._network.send
        for member in pending.quorum:
            if member != pid:
                send(pid, member, KIND_WRITE, write)
            elif write["version"] > self.state["version"]:
                self.state = write

    # -- member side -----------------------------------------------------
    def on_message(self, message: Message) -> None:
        kind = message.kind
        if kind == KIND_READ:
            self._network.send(self.pid, message.sender, KIND_READ_REPLY, self.state)
        elif kind == KIND_READ_REPLY:
            pending = self._pending
            if pending is None:
                raise ProtocolError(
                    f"processor {self.pid} got a read reply with no inc open"
                )
            reply = message.payload
            if reply["version"] > pending.best["version"]:
                pending.best = reply
            pending.awaiting -= 1
            if pending.awaiting == 0:
                self._finish_read_round()
        elif kind == KIND_WRITE:
            write = message.payload
            if write["version"] > self.state["version"]:
                self.state = write
        else:
            raise ProtocolError(
                f"quorum counter: unknown message kind {message.kind!r}"
            )


class QuorumCounter(DistributedCounter):
    """Versioned-copy counter over any :class:`QuorumSystem`.

    Args:
        network: simulator to wire into.
        n: number of client processors; must equal the system's universe.
        system: the quorum system to read/write through.
    """

    name = "quorum"
    capabilities = Capabilities(
        sequential_only=True,
        restriction=(
            "the versioned quorum read/write rounds are only correct when "
            "operations do not overlap (consecutive-quorum intersection "
            "assumes a finished write before the next read)"
        ),
    )

    def __init__(self, network: Network, n: int, system: QuorumSystem) -> None:
        super().__init__(network, n)
        if system.n != n:
            raise ConfigurationError(
                f"quorum system over {system.n} elements cannot serve n={n}"
            )
        self.system = system
        self.name = f"quorum[{system_slug(system)}]"
        self._ops_started = 0
        self._members: dict[ProcessorId, _QuorumMember] = {}
        for pid in self.client_ids():
            member = _QuorumMember(pid, self)
            network.register(member)
            self._members[pid] = member

    def next_quorum(self) -> frozenset[ProcessorId]:
        """The quorum the next operation uses (rotating strategy)."""
        quorum = self.system.quorum_for(self._ops_started)
        self._ops_started += 1
        return quorum

    def member(self, pid: ProcessorId) -> _QuorumMember:
        """Member state of processor *pid* (test introspection)."""
        return self._members[pid]

    def begin_inc(self, pid: ProcessorId, op_index: OpIndex) -> None:
        if pid not in self._members:
            raise ConfigurationError(f"processor {pid} is not a client (1..{self.n})")
        member = self._members[pid]
        self.network.inject(member.request_inc, op_index=op_index)
