"""Crash-tolerant counter variants: hot-standby central, bypassing tree.

The paper's protocols assume the §2 failure-free model; PR 3's fault
layer lets the adversary crash processors, and these variants are the
protocol-side answer.  Both implement the
:class:`~repro.sim.recovery.Recoverable` contract and declare
``Capabilities.tolerates_crash``, so the registry's
:class:`~repro.registry.RunSession` wires them to a
:class:`~repro.sim.recovery.RecoveryManager` whenever the fault plan
contains crash rules.

``central[standby]`` — :class:`StandbyCentralCounter`
    The central counter with a hot standby: the primary assigns values
    and *chain-replicates* each assignment to the standby, which is the
    only role that answers clients.  A client's value therefore exists
    on two processors before anyone sees it, which is what makes a
    primary crash survivable.  The failure detector triggers failover
    (standby promotes itself under a higher epoch and announces to all
    clients); end-to-end client retries plus the servers' request
    windows give exactly-once results under drops, duplicates,
    partitions and crashes — values are never skipped and never handed
    out twice.

``combining-tree[bypass]`` — :class:`BypassCombiningTreeCounter`
    The combining tree where a crashed host is *routed around*: every
    requester re-links to its first live ancestor (or straight to the
    root), in-flight combines whose upward request targeted the dead
    host are shipped again around it, and a second grant for a batch is
    silently discarded instead of raising.  A retry never takes a second
    value, so failure-free runs count exactly.  Under crashes semantics
    are at-most-once: a value parked in a crashed combine can be
    *burned* (a gap in the handed-out sequence), but no value is ever
    delivered twice — the uniqueness half of counter correctness
    survives, which is the honest best a combining structure offers
    without replicating every node.

Both keep one request bookkeeping: a client names each request by its
pid and a per-client seq, and every server remembers requests in a
:class:`_RequestWindow`, which forgets whatever the client has closed.

Both variants are loss-tolerant *bare* (no
:class:`~repro.sim.transport.ReliableTransport` needed): their
end-to-end retries are the recovery mechanism, so the transport's
per-link retransmission would be redundant — and against a permanently
crashed peer it would abort the run with
:class:`~repro.errors.DeliveryAbandonedError` before the failover had a
chance to make the peer irrelevant.
"""

from __future__ import annotations

from functools import partial
from typing import Any

from repro.api import Capabilities, DistributedCounter
from repro.errors import ConfigurationError, ProtocolError
from repro.counters.combining_tree import (
    DEFAULT_WINDOW,
    KIND_CLIENT_GRANT,
    KIND_GRANT,
    KIND_REQUEST,
    CombiningTreeCounter,
    _CombiningHost,
    _NodeState,
)
from repro.sim.messages import Message, OpIndex, ProcessorId
from repro.sim.network import Network
from repro.sim.processor import Processor
from repro.sim.recovery import Recoverable, RecoveryManager

__all__ = ["BypassCombiningTreeCounter", "StandbyCentralCounter"]

KIND_SC_INC = "sc.inc"
KIND_SC_COMMIT = "sc.commit"
KIND_SC_RESULT = "sc.result"
KIND_SC_ANNOUNCE = "sc.announce"
KIND_SC_REDIRECT = "sc.redirect"
KIND_SC_JOIN = "sc.join"
KIND_SC_SNAPSHOT = "sc.snapshot"

DEFAULT_RETRY = 20.0
"""Default end-to-end retry timeout for the standby central counter:
comfortably above one clean request round trip (two hops) under every
built-in delivery policy, low enough that a handful of retries bridge
any finite crash window."""

DEFAULT_TREE_RETRY = 90.0
"""Default end-to-end retry timeout for the bypass combining tree.
A clean combining-tree operation spans several up-and-down hops plus
a combining window per level (~40 time units at n=8 under random
delays, more in deeper trees), so the timeout sits above that.  A
spurious retry costs messages only: it climbs to the host that holds
its answer and never reserves a second value."""

RETRY_CAP = 25
"""Attempts per operation, per layer a try crosses, before a client
gives up silently.  The standby pair is one layer (client, primary,
standby and back), so its clients get 25.  A bypass try climbs one
combining node per tree layer and its answer comes back down them, each
hop lossy, so its clients get 25 per layer
(:attr:`BypassCombiningTreeCounter.retry_cap`).  A destination dead
forever (and never failed over) exhausts the budget; so can a long
enough run of lost tries."""

_OPEN = -1
"""Window value of a request that is known but not answered yet."""
_CLOSED = -2
"""What :meth:`_RequestWindow.claim` returns for a seq below the floor."""


class _RequestWindow:
    """Exactly-once bookkeeping for requests named ``(origin, seq)``.

    Per origin it keeps a *floor* — every seq below it is closed at the
    origin — and the value recorded for each seq at or above it.  Every
    request carries its origin's lowest open seq, and the window forgets
    each value below that, so it holds O(origins × open requests) however
    many requests pass.
    """

    __slots__ = ("_origins",)

    def __init__(self) -> None:
        self._origins: dict[int, list[Any]] = {}  # origin -> [floor, {seq: value}]

    def claim(self, origin: int, seq: int, floor: int, value: int) -> int | None:
        """Record *value* for a new *seq* and return ``None``; for a
        known one return what is recorded, and :data:`_CLOSED` for one
        below the origin's floor.  *floor* is the origin's lowest open
        seq when it sent the request."""
        entry = self._origins.get(origin)
        if entry is None:
            entry = self._origins[origin] = [floor, {}]
        elif floor > entry[0]:
            entry[0] = floor
            entry[1] = {s: v for s, v in entry[1].items() if s >= floor}
        if seq < entry[0]:
            return _CLOSED
        values = entry[1]
        known = values.get(seq)
        if known is None:
            values[seq] = value
        return known

    def put(self, origin: int, seq: int, value: int) -> None:
        """Replace the value of a seq :meth:`claim` recorded, unless the
        floor has passed it since."""
        floor, values = self._origins[origin]
        if seq >= floor:
            values[seq] = value


class _RetryingClient:
    """The client half both counters share: open requests, one retry chain.

    ``_open`` maps each open seq to the retries sent for it so far.  The
    first answer for an open seq closes it, which stops its chain; an
    answer for a closed seq is dropped.  A host sets ``_next_seq`` and
    ``_open`` and defines ``_resend(seq)``: where a try goes.
    """

    def request_inc(self) -> None:
        seq = self._next_seq
        self._next_seq += 1
        self._open[seq] = 0
        self._try(seq)

    def _floor(self) -> int:
        """The lowest open seq (seqs open in order, so the first key)."""
        return next(iter(self._open), self._next_seq)

    def _try(self, seq: int) -> None:
        self._resend(seq)
        self.network.inject(
            partial(self._retry, seq),
            op_index=self.network.active_op,
            delay=self._counter.retry,
        )

    def _retry(self, seq: int) -> None:
        attempts = self._open.get(seq)
        # Stop once answered, or once the counter's budget is spent.
        if attempts is not None and attempts + 1 < self._counter.retry_cap:
            self._open[seq] = attempts + 1
            self._try(seq)

    def _accept(self, seq: int, value: int) -> None:
        if self._open.pop(seq, None) is not None:
            self._counter.deliver_result(self.pid, value)


class _StandbyNode(_RetryingClient, Processor):
    """One processor of the standby-replicated central counter.

    Every pid is a client; pids holding the primary/standby role layer
    the server behaviour on top.  Roles move at runtime (promotion,
    demotion, rejoin), so behaviour keys off ``self._role``, never off
    the pid.
    """

    def __init__(self, pid: ProcessorId, counter: "StandbyCentralCounter") -> None:
        super().__init__(pid)
        self._counter = counter
        self._role = "client"
        self._epoch = 1
        self._believed_primary = counter.primary_id
        # Primary state.  `_standby_pid` is this node's *own view* of who
        # mirrors it — deliberately not the counter's global bookkeeping,
        # so a deposed primary's stale pointer sends its commits to the
        # new primary, which rejects them by epoch and demotes it.
        self._next_value = 0
        self._assigned = _RequestWindow()
        self._standby_pid: ProcessorId | None = None
        self._solo = False
        # Standby state.
        self._mirror_next = 0
        self._committed = _RequestWindow()
        self._next_seq = 0
        self._open: dict[int, int] = {}
        self._joining = False

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def _resend(self, seq: int) -> None:
        # Retries rotate through the believed primary and both initial
        # server seats, so a lost failover announcement cannot strand a
        # client retrying into a permanently dead ex-primary.
        counter = self._counter
        seats = (self._believed_primary, counter.primary_id, counter.standby_id)
        candidates = list(dict.fromkeys(seats))
        target = candidates[self._open[seq] % len(candidates)]
        self.send(target, KIND_SC_INC, {"rid": (self.pid, seq, self._floor())})

    # ------------------------------------------------------------------
    # Primary side
    # ------------------------------------------------------------------
    def _on_inc(self, message: Message) -> None:
        if self._role != "primary":
            self._tell_primary(message.sender, KIND_SC_REDIRECT)
            return
        # A rid is (origin, seq, the origin's lowest open seq).
        rid = message.payload["rid"]
        value = self._assigned.claim(*rid, self._next_value)
        if value is None:
            value = self._next_value
            self._next_value += 1
            self._checkpoint()
        elif value == _CLOSED:
            return  # the client has its answer already
        if self._solo:
            # No standby to replicate to: answer directly.  Retried rids
            # re-send the same assigned value, keeping exactly-once.
            self.send(rid[0], KIND_SC_RESULT, {"rid": rid, "value": value})
        elif self._standby_pid is not None:
            self.send(
                self._standby_pid,
                KIND_SC_COMMIT,
                {"rid": rid, "value": value, "epoch": self._epoch},
            )
        # else: roles are mid-shuffle (e.g. this node only *thinks* it is
        # primary); stay silent — answering directly here is exactly the
        # split-brain that duplicates values.  The client retries.

    def _checkpoint(self) -> None:
        manager = self._counter.recovery_manager
        if manager is not None:
            # Stable-storage write *before* the commit leaves this
            # processor: a post-crash restore can never reuse a value.
            manager.save_checkpoint(
                self.pid,
                {"next_value": self._next_value, "epoch": self._epoch},
            )

    # ------------------------------------------------------------------
    # Standby side
    # ------------------------------------------------------------------
    def _on_commit(self, message: Message) -> None:
        epoch = message.payload["epoch"]
        if epoch < self._epoch:
            # A deposed primary does not know it was deposed: tell it.
            self._tell_primary(message.sender, KIND_SC_ANNOUNCE)
            return
        if epoch > self._epoch:
            self._epoch = epoch
            self._believed_primary = message.sender
        rid = message.payload["rid"]
        committed = self._committed.claim(*rid, message.payload["value"])
        if committed is None:
            committed = message.payload["value"]
            if committed + 1 > self._mirror_next:
                self._mirror_next = committed + 1
        elif committed == _CLOSED:
            return
        # Answer with the *committed* value: a retried commit after a
        # failover round-trip must not hand out a second value.
        self.send(rid[0], KIND_SC_RESULT, {"rid": rid, "value": committed})

    # ------------------------------------------------------------------
    # Epoch / role traffic
    # ------------------------------------------------------------------
    def _tell_primary(self, pid: ProcessorId, kind: str) -> None:
        self.send(
            pid, kind, {"primary": self._believed_primary, "epoch": self._epoch}
        )

    def _learn_primary(self, primary: ProcessorId, epoch: int) -> None:
        if epoch < self._epoch:
            return
        if epoch == self._epoch and primary == self._believed_primary:
            return  # nothing new — resending here would loop forever
        self._epoch = epoch
        self._believed_primary = primary
        if self._role == "primary" and primary != self.pid:
            # Demoted.  Uncommitted assignments die with the role (their
            # clients retry against the new primary); the assignment map
            # must go too, or a later re-promotion could resurrect stale
            # values.
            self._role = "client"
            self._assigned = _RequestWindow()
            self._solo = False
        if self._joining and primary != self.pid:
            self.send(primary, KIND_SC_JOIN)
        # Nudge open ops toward the newly learned primary.
        floor = self._floor()
        for seq in self._open:
            self.send(primary, KIND_SC_INC, {"rid": (self.pid, seq, floor)})

    def _on_join(self, message: Message) -> None:
        if self._role != "primary":
            self._tell_primary(message.sender, KIND_SC_REDIRECT)
            return
        self._standby_pid = message.sender
        self._solo = False
        self._counter.adopt_standby(message.sender)
        self.send(
            message.sender,
            KIND_SC_SNAPSHOT,
            {"next_value": self._next_value, "epoch": self._epoch},
        )

    def _on_snapshot(self, message: Message) -> None:
        epoch = message.payload["epoch"]
        if epoch < self._epoch:
            return  # stale snapshot from a deposed primary
        self._joining = False
        self._role = "standby"
        self._epoch = epoch
        self._believed_primary = message.sender
        self._mirror_next = message.payload["next_value"]
        self._committed = _RequestWindow()
        self._assigned = _RequestWindow()
        self._solo = False

    def on_message(self, message: Message) -> None:
        kind = message.kind
        if kind == KIND_SC_RESULT:
            self._accept(message.payload["rid"][1], message.payload["value"])
        elif kind == KIND_SC_INC:
            self._on_inc(message)
        elif kind == KIND_SC_COMMIT:
            self._on_commit(message)
        elif kind in (KIND_SC_ANNOUNCE, KIND_SC_REDIRECT):
            self._learn_primary(
                message.payload["primary"], message.payload["epoch"]
            )
        elif kind == KIND_SC_JOIN:
            self._on_join(message)
        elif kind == KIND_SC_SNAPSHOT:
            self._on_snapshot(message)
        else:
            raise ProtocolError(
                f"central[standby]: unknown message kind {kind!r}"
            )


class StandbyCentralCounter(DistributedCounter, Recoverable):
    """Central counter with a hot standby and detector-driven failover.

    Message flow per ``inc`` (clean run)::

        client --sc.inc--> primary --sc.commit--> standby --sc.result--> client

    Three messages instead of the bare central counter's two: the extra
    hop is the price of a value existing on two processors before it is
    visible.  On a primary crash the standby promotes itself (epoch
    bump, announcement broadcast), clients re-route, and every value the
    old primary committed is preserved; values assigned but never
    committed are reassigned — nobody ever saw them, so exactly-once
    holds.

    Args:
        network: simulator to wire into (the raw network; the variant
            carries its own retries).
        n: number of client processors (ids 1..n, must be >= 2).
        primary_id: initial primary seat (default 1).
        standby_id: initial standby seat (default 2).
        retry: end-to-end client retry timeout.
    """

    name = "central[standby]"
    #: Attempts per operation before a client gives up (one layer).
    retry_cap = RETRY_CAP
    capabilities = Capabilities(
        tolerates_message_loss=True,
        tolerates_crash=True,
        restriction=(
            "needs n >= 2 (a primary and a hot standby); exactly-once "
            "via request-id deduplication"
        ),
    )

    def __init__(
        self,
        network: Network,
        n: int,
        primary_id: ProcessorId = 1,
        standby_id: ProcessorId = 2,
        retry: float = DEFAULT_RETRY,
    ) -> None:
        super().__init__(network, n)
        if n < 2:
            raise ConfigurationError(
                f"central[standby] needs n >= 2 (primary + standby), got {n}"
            )
        if not 1 <= primary_id <= n or not 1 <= standby_id <= n:
            raise ConfigurationError(
                f"server seats must lie in 1..{n}, got primary={primary_id} "
                f"standby={standby_id}"
            )
        if primary_id == standby_id:
            raise ConfigurationError(
                "primary and standby must be different processors"
            )
        if retry <= 0:
            raise ConfigurationError(f"retry must be positive, got {retry}")
        self.primary_id = primary_id
        self.standby_id = standby_id
        self.retry = float(retry)
        self._current_primary = primary_id
        self._current_standby: ProcessorId | None = standby_id
        self._recovery_manager: RecoveryManager | None = None
        self._nodes: dict[ProcessorId, _StandbyNode] = {}
        for pid in self.client_ids():
            node = _StandbyNode(pid, self)
            network.register(node)
            self._nodes[pid] = node
        self._nodes[primary_id]._role = "primary"
        self._nodes[primary_id]._standby_pid = standby_id
        self._nodes[standby_id]._role = "standby"

    # ------------------------------------------------------------------
    # Role bookkeeping
    # ------------------------------------------------------------------
    @property
    def current_primary(self) -> ProcessorId:
        """The pid currently holding the primary role."""
        return self._current_primary

    @property
    def current_standby(self) -> ProcessorId | None:
        """The pid currently mirroring, or ``None`` while solo."""
        return self._current_standby

    @property
    def recovery_manager(self) -> RecoveryManager | None:
        """The attached manager (``None`` on crash-free runs)."""
        return self._recovery_manager

    def adopt_standby(self, pid: ProcessorId) -> None:
        """The primary accepted *pid* as its (re)joined standby."""
        self._current_standby = pid

    # ------------------------------------------------------------------
    # Recoverable contract
    # ------------------------------------------------------------------
    def critical_pids(self) -> tuple[ProcessorId, ...]:
        return (self.primary_id, self.standby_id)

    def on_processor_suspected(self, pid: ProcessorId, time: float) -> None:
        if pid == self._current_primary:
            standby_pid = self._current_standby
            if standby_pid is None:
                return  # both seats down: nothing left to promote
            standby = self._nodes[standby_pid]
            standby._epoch += 1
            standby._role = "primary"
            standby._next_value = max(standby._mirror_next, standby._next_value)
            standby._believed_primary = standby_pid
            standby._standby_pid = None
            standby._solo = True  # nobody mirrors the new primary (yet)
            self._current_primary = standby_pid
            self._current_standby = None
            if self._recovery_manager is not None:
                self._recovery_manager.note_failover(pid, standby_pid)
            for client in self.client_ids():
                if client != standby_pid:
                    standby._tell_primary(client, KIND_SC_ANNOUNCE)
        elif pid == self._current_standby:
            self._current_standby = None
            primary = self._nodes[self._current_primary]
            primary._standby_pid = None
            primary._solo = True

    def on_processor_restored(self, pid: ProcessorId, time: float) -> None:
        self._reattach(pid)

    def on_processor_recovered(
        self, pid: ProcessorId, time: float, checkpoint: Any
    ) -> None:
        node = self._nodes[pid]
        if checkpoint is not None:
            # The stable-storage floor: never reuse a value the crashed
            # incarnation may have assigned.
            node._next_value = max(node._next_value, checkpoint["next_value"])
            node._epoch = max(node._epoch, checkpoint["epoch"])
        if pid != self._current_primary:
            # A recovering replica never resumes leadership on its own:
            # anything short of that reopens split brain.  (If nobody
            # failed over — the crash was shorter than detection — the
            # seat is still formally the primary and keeps its role.)
            node._role = "client"
            node._assigned = _RequestWindow()
            node._solo = False
        self._reattach(pid)

    def _reattach(self, pid: ProcessorId) -> None:
        """A server seat is back: rejoin it as standby if the seat is open."""
        if pid == self._current_primary or pid == self._current_standby:
            return
        if pid not in (self.primary_id, self.standby_id):
            return  # plain clients recover by their own retries
        node = self._nodes[pid]
        node._joining = True
        # Probe both initial seats: one of them is the primary or knows
        # who is (a non-primary seat redirects, which re-issues the join).
        for seat in (self.primary_id, self.standby_id):
            if seat != pid:
                node.send(seat, KIND_SC_JOIN)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def begin_inc(self, pid: ProcessorId, op_index: OpIndex) -> None:
        if pid not in self._nodes:
            raise ConfigurationError(
                f"processor {pid} is not a client of this counter"
            )
        self.network.inject(self._nodes[pid].request_inc, op_index=op_index)


class _BypassHost(_RetryingClient, _CombiningHost):
    """Combining host that tolerates crashes around it.

    Adds: routing via live ancestors, per-batch target tracking (so
    combines aimed at a dead host can be shipped around it), silent
    discarding of a batch's second grant, direct requests to the root
    holder when a requester's whole ancestor chain is dead, end-to-end
    client retries, and one :class:`_RequestWindow` over every requester
    it serves.

    A requester names each request: a client by its seq, a node by its
    batch id, both in the ``batch`` slot of the request.  A retry that
    finds its request still open here is not combined again: if the
    request already left in one of this host's batches, that batch is
    shipped again under the same id, so the retry climbs until it meets
    the host that holds the answer, and every answer is re-sent with
    the value first granted.  No retry reserves a second value.
    """

    def __init__(self, pid: ProcessorId, counter: "BypassCombiningTreeCounter") -> None:
        super().__init__(pid, counter)
        self._entry = counter.entry_node_of(pid)
        self._next_seq = 0
        self._open: dict[int, int] = {}
        self._window = _RequestWindow()
        self._batch_targets: dict[tuple[int, int], ProcessorId] = {}

    # Each handler below takes one pass per message: the payload is read
    # once, the static route is taken while no host is dead, and hosts
    # are ``node % n + 1`` (``host_of``) over the cached n.

    # -- client side ---------------------------------------------------
    def _resend(self, seq: int) -> None:
        counter = self._counter
        entry = self._entry
        if counter._dead_hosts:
            entry = counter.effective_entry(self.pid)
        # A dead ancestor chain sends the client straight to the root.
        self.send(
            counter.root_host if entry is None else entry % self._n + 1,
            KIND_REQUEST,
            {
                "node": -1 if entry is None else entry,
                "from_kind": "client",
                "from_id": self.pid,
                "count": 1,
                "batch": seq,
                "floor": self._floor(),
            },
        )

    def _on_client_grant(self, payload: dict) -> None:
        self._accept(payload["seq"], payload["value"])

    # -- node side -----------------------------------------------------
    def _on_request(self, message: Message) -> None:
        payload = message.payload
        kind = payload["from_kind"]
        requester = payload["from_id"]
        seq = payload["batch"]
        node_id = payload["node"]
        # Clients and nodes share one window: a node keys as -1 - node.
        origin = requester if kind == "client" else -1 - requester
        known = self._window.claim(origin, seq, payload["floor"], _OPEN)
        if known is None:
            if node_id == -1:  # the root value holder answers at once
                base = self._counter.take_values(payload["count"])
                self._grant(kind, requester, seq, base)
            else:
                self._pend(node_id, (kind, requester, payload["count"], seq))
        elif known >= 0:
            self._grant(kind, requester, seq, known)
        elif known == _OPEN and node_id != -1:
            # Shipped already: ship its batch again.  (Still pending
            # here: the window ships it.)
            state = self._node(node_id)
            entry = (kind, requester, payload["count"], seq)
            for batch_id, batch in state.batches.items():
                if entry in batch:
                    self._ship(state, batch_id)
                    break

    def _grant(self, kind: str, requester: int, seq: int, base: int) -> None:
        if kind == "node":
            self._window.put(-1 - requester, seq, base)
            self.send(
                requester % self._n + 1,
                KIND_GRANT,
                {"node": requester, "base": base, "batch": seq},
            )
            return
        self._window.put(requester, seq, base)
        if requester == self.pid:
            self._accept(seq, base)
        else:
            self.send(requester, KIND_CLIENT_GRANT, {"value": base, "seq": seq})

    def _ship(self, state: _NodeState, batch_id: int) -> None:
        counter = self._counter
        node = state.node
        parent = state.parent
        if counter._dead_hosts:
            parent = counter.effective_parent(node)
        target = counter.root_host if parent is None else parent % self._n + 1
        self._batch_targets[(node, batch_id)] = target
        batches = state.batches
        count = 0
        for entry in batches[batch_id]:
            count += entry[2]
        for floor in batches:  # batches open in id order: the first is lowest
            break
        self.send(
            target,
            KIND_REQUEST,
            {
                "node": -1 if parent is None else parent,
                "from_kind": "node",
                "from_id": node,
                "count": count,
                "batch": batch_id,
                "floor": floor,
            },
        )

    def _on_grant(self, message: Message) -> None:
        payload = message.payload
        node_id = payload["node"]
        batch_id = payload["batch"]
        state = self._nodes.get(node_id)
        batch = None if state is None else state.batches.pop(batch_id, None)
        if batch is None:
            # A second answer to a batch shipped again.  If the two
            # answers came from two hosts, the later one's values are
            # burned.
            return
        del self._batch_targets[(node_id, batch_id)]
        base = payload["base"]
        for kind, requester, count, seq in batch:
            self._grant(kind, requester, seq, base)
            base += count


class BypassCombiningTreeCounter(CombiningTreeCounter, Recoverable):
    """Combining tree that routes around crashed hosts.

    The tree structure is static (node → host assignment never moves);
    what moves is the *routing*: once the failure detector suspects a
    host, every node whose effective parent chain passes through it
    re-links to the first live ancestor (or ships straight to the root
    holder), combines awaiting a grant from the dead host are shipped
    again around it, and the root-holder role itself migrates to a live
    host if its seat crashes.

    Semantics under crashes are **at-most-once**: values reserved by a
    combine that died with a host, or granted twice to a batch shipped
    around a falsely suspected host, are burned (gaps in the handed-out
    sequence) — but no value is ever delivered twice, which the
    uniqueness checker verifies.  Retries alone never burn a value.
    The root value itself is modelled as stable (checkpointed
    counter-side state), mirroring the standby variant's stable-storage
    assumption.

    Args:
        network: simulator to wire into.
        n: number of clients (ids 1..n).
        arity: tree fan-in.
        window: combining-window length.
        retry: end-to-end client retry timeout.
    """

    name = "combining-tree[bypass]"
    capabilities = Capabilities(
        tolerates_message_loss=True,
        tolerates_crash=True,
        restriction=(
            "at-most-once under crashes: combines that die with a host "
            "burn their reserved values (gaps, never duplicates)"
        ),
    )

    host_class = _BypassHost

    def __init__(
        self,
        network: Network,
        n: int,
        arity: int = 2,
        window: float = DEFAULT_WINDOW,
        retry: float = DEFAULT_TREE_RETRY,
    ) -> None:
        if retry <= 0:
            raise ConfigurationError(f"retry must be positive, got {retry}")
        self.retry = float(retry)
        self._dead_hosts: set[ProcessorId] = set()
        self._delivered = 0
        self._recovery_manager: RecoveryManager | None = None
        super().__init__(network, n, arity=arity, window=window)
        #: Attempts per operation before a client gives up: a try climbs
        #: one combining node per layer, so :data:`RETRY_CAP` per layer.
        self.retry_cap = RETRY_CAP * (len(self._layer_starts) - 1)

    # ------------------------------------------------------------------
    # Fault-aware routing
    # ------------------------------------------------------------------
    def effective_parent(self, node: int) -> int | None:
        """First ancestor of *node* hosted on a live processor.

        ``None`` means the whole chain is dead (or *node* is the top):
        talk to the root holder directly.
        """
        parent = self.parent_of(node)
        while parent is not None and self.host_of(parent) in self._dead_hosts:
            parent = self.parent_of(parent)
        return parent

    def effective_entry(self, pid: ProcessorId) -> int | None:
        """The live node client *pid* should enter the tree through.

        ``None`` sends the client straight to the root holder.
        """
        entry = self.entry_node_of(pid)
        if self.host_of(entry) not in self._dead_hosts:
            return entry
        return self.effective_parent(entry)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def burned_values(self) -> int:
        """Values reserved at the root but never delivered (the gaps)."""
        return self._value - self._delivered

    def deliver_result(self, pid: ProcessorId, value: int) -> None:
        self._delivered += 1
        super().deliver_result(pid, value)

    # ------------------------------------------------------------------
    # Recoverable contract
    # ------------------------------------------------------------------
    def critical_pids(self) -> tuple[ProcessorId, ...]:
        return tuple(sorted({self.host_of(node) for node in range(self.node_count)}))

    def on_processor_suspected(self, pid: ProcessorId, time: float) -> None:
        self._dead_hosts.add(pid)
        if self.root_host in self._dead_hosts:
            for candidate in self.client_ids():
                if candidate not in self._dead_hosts:
                    old = self.root_host
                    self.root_host = candidate
                    if self._recovery_manager is not None:
                        self._recovery_manager.note_failover(old, candidate)
                    break
        # Ship every combine that awaits the dead host again, under the
        # same batch id, around it.  (Combines the dead host itself holds
        # are shipped again by their clients' retries.)
        for host in self._hosts.values():
            for (node, batch_id), target in list(host._batch_targets.items()):
                if target == pid:
                    host._ship(host._nodes[node], batch_id)

    def on_processor_restored(self, pid: ProcessorId, time: float) -> None:
        # False suspicion cleared (or a transient crash's links came
        # back): resume routing through the host.  The root-holder role
        # stays where it moved — re-migration would buy nothing.
        self._dead_hosts.discard(pid)

    def on_processor_recovered(
        self, pid: ProcessorId, time: float, checkpoint: Any
    ) -> None:
        # Links were restored at the recovery point; the host resumes
        # its node roles with empty combining state (its pre-crash
        # batches are garbage nobody waits on — requesters already
        # shipped around it).
        self._dead_hosts.discard(pid)
