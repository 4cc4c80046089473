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
    clients); end-to-end client retries plus request-id deduplication
    give exactly-once results under drops, duplicates, partitions and
    crashes — values are never skipped and never handed out twice.

``combining-tree[bypass]`` — :class:`BypassCombiningTreeCounter`
    The combining tree where a crashed host is *routed around*: every
    requester re-links to its first live ancestor (or straight to the
    root), in-flight combines whose upward request targeted the dead
    host are re-issued under fresh batch ids, and stale grants for
    re-issued batches are silently discarded instead of raising.
    Semantics are at-most-once: a value parked in a crashed combine can
    be *burned* (a gap in the handed-out sequence), but no value is ever
    delivered twice — the uniqueness half of counter correctness
    survives, which is the honest best a combining structure offers
    without replicating every node.

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
delays), so the tree's timeout must sit well above that — a spurious
retry is not just wasted traffic here, it burns a counter value."""

RETRY_CAP = 25
"""Attempts per operation before a client gives up silently.  Spans
hundreds of simulated time units — only a destination that is dead
forever (and never failed over) exhausts it."""


class _StandbyNode(Processor):
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
        self._assigned: dict[tuple[int, int], int] = {}
        self._standby_pid: ProcessorId | None = None
        self._solo = False
        # Standby state.
        self._mirror_next = 0
        self._committed: dict[tuple[int, int], int] = {}
        # Client state: rid -> retry attempts so far.
        self._next_seq = 0
        self._outstanding: dict[tuple[int, int], int] = {}
        self._joining = False

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def request_inc(self) -> None:
        rid = (self.pid, self._next_seq)
        self._next_seq += 1
        self._outstanding[rid] = 0
        self._send_inc(rid)
        self._schedule_retry(rid)

    def _send_inc(self, rid: tuple[int, int]) -> None:
        # Retries rotate through the believed primary and both initial
        # server seats, so a lost failover announcement cannot strand a
        # client retrying into a permanently dead ex-primary.
        counter = self._counter
        candidates = list(
            dict.fromkeys(
                (self._believed_primary, counter.primary_id, counter.standby_id)
            )
        )
        target = candidates[self._outstanding.get(rid, 0) % len(candidates)]
        self.send(target, KIND_SC_INC, {"rid": rid})

    def _schedule_retry(self, rid: tuple[int, int]) -> None:
        self.network.inject(
            partial(self._retry, rid),
            op_index=self.network.active_op,
            delay=self._counter.retry,
        )

    def _retry(self, rid: tuple[int, int]) -> None:
        attempts = self._outstanding.get(rid)
        if attempts is None:
            return  # completed
        if attempts + 1 >= RETRY_CAP:
            return  # destination dead forever; stop generating traffic
        self._outstanding[rid] = attempts + 1
        self._send_inc(rid)
        self._schedule_retry(rid)

    def _on_result(self, message: Message) -> None:
        rid = message.payload["rid"]
        if self._outstanding.pop(rid, None) is not None:
            self._counter.deliver_result(self.pid, message.payload["value"])
        # else: duplicate of an already-delivered result — drop.

    # ------------------------------------------------------------------
    # Primary side
    # ------------------------------------------------------------------
    def _on_inc(self, message: Message) -> None:
        if self._role != "primary":
            self.send(
                message.sender,
                KIND_SC_REDIRECT,
                {"primary": self._believed_primary, "epoch": self._epoch},
            )
            return
        rid = message.payload["rid"]
        value = self._assigned.get(rid)
        if value is None:
            value = self._next_value
            self._next_value += 1
            self._assigned[rid] = value
            self._checkpoint()
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
            self.send(
                message.sender,
                KIND_SC_ANNOUNCE,
                {"primary": self._believed_primary, "epoch": self._epoch},
            )
            return
        if epoch > self._epoch:
            self._epoch = epoch
            self._believed_primary = message.sender
        rid = message.payload["rid"]
        committed = self._committed.get(rid)
        if committed is None:
            committed = message.payload["value"]
            self._committed[rid] = committed
            if committed + 1 > self._mirror_next:
                self._mirror_next = committed + 1
        # Answer with the *committed* value: a retried commit after a
        # failover round-trip must not hand out a second value.
        self.send(rid[0], KIND_SC_RESULT, {"rid": rid, "value": committed})

    # ------------------------------------------------------------------
    # Epoch / role traffic
    # ------------------------------------------------------------------
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
            self._assigned.clear()
            self._solo = False
        if self._joining and primary != self.pid:
            self.send(primary, KIND_SC_JOIN)
        # Nudge outstanding ops toward the newly learned primary.
        for rid in list(self._outstanding):
            self.send(primary, KIND_SC_INC, {"rid": rid})

    def _on_join(self, message: Message) -> None:
        if self._role != "primary":
            self.send(
                message.sender,
                KIND_SC_REDIRECT,
                {"primary": self._believed_primary, "epoch": self._epoch},
            )
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
        self._committed.clear()
        self._assigned.clear()
        self._solo = False

    def on_message(self, message: Message) -> None:
        kind = message.kind
        if kind == KIND_SC_RESULT:
            self._on_result(message)
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

    def attach_recovery(self, manager: RecoveryManager) -> None:
        self._recovery_manager = manager

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
                    standby.send(
                        client,
                        KIND_SC_ANNOUNCE,
                        {"primary": standby_pid, "epoch": standby._epoch},
                    )
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
            node._assigned.clear()
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


class _BypassHost(_CombiningHost):
    """Combining host that tolerates crashes around it.

    Adds: routing via live ancestors, per-batch target tracking (so
    combines aimed at a dead host can be re-issued), silent discarding
    of grants for re-issued batches, direct client→root requests when a
    client's whole ancestor chain is dead, and end-to-end client
    retries.
    """

    def __init__(self, pid: ProcessorId, counter: "BypassCombiningTreeCounter") -> None:
        super().__init__(pid, counter)
        self._outstanding = 0
        self._batch_targets: dict[tuple[int, int], ProcessorId] = {}

    # -- client side ---------------------------------------------------
    def request_inc(self) -> None:
        self._outstanding += 1
        self._send_request()
        self._schedule_retry(1)

    def _send_request(self) -> None:
        counter = self._counter
        entry = counter.effective_entry(self.pid)
        if entry is None:
            # Whole ancestor chain is dead: go straight to the root.
            self.send(
                counter.root_host,
                KIND_REQUEST,
                {"node": -1, "count": 1, "client": self.pid},
            )
        else:
            self.send(
                counter.host_of(entry),
                KIND_REQUEST,
                {
                    "node": entry,
                    "from_kind": "client",
                    "from_id": self.pid,
                    "count": 1,
                },
            )

    def _schedule_retry(self, attempt: int) -> None:
        self.network.inject(
            partial(self._retry, attempt),
            op_index=self.network.active_op,
            delay=self._counter.retry,
        )

    def _retry(self, attempt: int) -> None:
        if self._outstanding <= 0 or attempt >= RETRY_CAP:
            return
        self._send_request()
        self._schedule_retry(attempt + 1)

    # -- node side -----------------------------------------------------
    def _on_request(self, message: Message) -> None:
        payload = message.payload
        if payload["node"] == -1 and "client" in payload:
            # Orphaned client talking to the root directly.
            base = self._counter.take_values(payload["count"])
            self._counter.grant_client(self, payload["client"], base)
            return
        super()._on_request(message)

    def _close_window(self, state: _NodeState) -> None:
        state.window_armed = False
        if not state.pending:
            return
        batch = state.pending
        state.pending = []
        batch_id = state.next_batch_id
        state.next_batch_id += 1
        state.batches[batch_id] = batch
        total = sum(count for _, _, count, _ in batch)
        counter = self._counter
        parent = counter.effective_parent(state.node)
        if parent is None:
            target = counter.root_host
            self.send(
                target,
                KIND_REQUEST,
                {
                    "node": -1,
                    "count": total,
                    "reply_node": state.node,
                    "batch": batch_id,
                },
            )
        else:
            target = counter.host_of(parent)
            self.send(
                target,
                KIND_REQUEST,
                {
                    "node": parent,
                    "from_kind": "node",
                    "from_id": state.node,
                    "count": total,
                    "batch": batch_id,
                },
            )
        self._batch_targets[(state.node, batch_id)] = target

    def _on_grant(self, message: Message) -> None:
        node_id = message.payload["node"]
        batch_id = message.payload["batch"]
        state = self._nodes.get(node_id)
        if state is None or batch_id not in state.batches:
            # A grant for a batch re-issued around a crash: its values
            # were already reserved at the root — burn them (a gap, not
            # a duplicate) instead of raising.
            self._counter.note_discarded_grant()
            return
        self._batch_targets.pop((node_id, batch_id), None)
        super()._on_grant(message)


class BypassCombiningTreeCounter(CombiningTreeCounter, Recoverable):
    """Combining tree that routes around crashed hosts.

    The tree structure is static (node → host assignment never moves);
    what moves is the *routing*: once the failure detector suspects a
    host, every node whose effective parent chain passes through it
    re-links to the first live ancestor (or ships straight to the root
    holder), combines awaiting a grant from the dead host are re-issued
    under fresh batch ids, and the root-holder role itself migrates to a
    live host if its seat crashes.

    Semantics under faults are **at-most-once**: values reserved by a
    combine that died with a host are burned (gaps in the handed-out
    sequence), and surplus grants caused by retries are burned at the
    client — but no value is ever delivered twice, which the uniqueness
    checker verifies.  The root value itself is modelled as stable
    (checkpointed counter-side state), mirroring the standby variant's
    stable-storage assumption.

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
        self._granted: set[int] = set()
        self._discarded_grants = 0
        self._recovery_manager: RecoveryManager | None = None
        super().__init__(network, n, arity=arity, window=window)

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
        return self._value - len(self._granted)

    @property
    def discarded_grants(self) -> int:
        """Stale grants dropped after their batch was re-issued."""
        return self._discarded_grants

    @property
    def recovery_manager(self) -> RecoveryManager | None:
        """The attached manager (``None`` on crash-free runs)."""
        return self._recovery_manager

    def note_discarded_grant(self) -> None:
        self._discarded_grants += 1

    def deliver_result(self, pid: ProcessorId, value: int) -> None:
        host = self._hosts[pid]
        if value in self._granted or host._outstanding <= 0:
            # A duplicated grant, or a surplus one caused by a retry
            # racing the original: burn it.  Root intervals are
            # disjoint, so a repeated value always means a duplicate
            # delivery attempt, never a second legitimate grant.
            return
        self._granted.add(value)
        host._outstanding -= 1
        super().deliver_result(pid, value)

    # ------------------------------------------------------------------
    # Recoverable contract
    # ------------------------------------------------------------------
    def critical_pids(self) -> tuple[ProcessorId, ...]:
        return tuple(sorted({self.host_of(node) for node in range(self.node_count)}))

    def attach_recovery(self, manager: RecoveryManager) -> None:
        self._recovery_manager = manager

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
        # Re-issue every combine whose upward request targeted the dead
        # host: merge its entries back into the sending node's window so
        # they re-combine and ship via the bypass route.
        for host in self._hosts.values():
            stale = [
                key
                for key, target in host._batch_targets.items()
                if target == pid
            ]
            for node_id, batch_id in stale:
                del host._batch_targets[(node_id, batch_id)]
                state = host._nodes[node_id]
                entries = state.batches.pop(batch_id, None)
                if not entries:
                    continue
                state.pending.extend(entries)
                if not state.window_armed:
                    state.window_armed = True
                    self.network.inject(
                        partial(host._close_window, state),
                        delay=self.window,
                    )

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
        # re-issued around it).
        self._dead_hosts.discard(pid)
