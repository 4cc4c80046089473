"""The processor programs of the communication-tree counter.

Every processor plays its *leaf* role (it can initiate ``inc`` and
receive values and parent id-updates); in addition it may work for inner
nodes — at most one non-root node plus possibly the root, per the
identifier scheme.  Most processors are pure leaves all run, so one
:class:`LeafProgram` serves them all, and a :class:`TreeWorker` is built
only for an id that holds, or has held, an inner role.

The program implements §4 of the paper verbatim where the paper is
explicit, and fills the two gaps the paper waves off:

* **Stale addressing.**  A neighbour's belief of where a node lives can
  lag behind retirements.  A worker that receives a message for a role it
  retired from forwards it to its successor (one extra message — the
  paper's "handshaking protocol with a constant number of extra messages").
* **Early arrival.**  A message can reach the successor before its
  hand-off batch does.  The successor defers it and replays it (as a local
  event, not a new message) once the role activates.
"""

from __future__ import annotations

from array import array
from functools import partial
from typing import TYPE_CHECKING

from repro.core.tree.protocol import (
    KIND_HANDOFF,
    KIND_ID_UPDATE,
    KIND_INC,
    KIND_VALUE,
    RoleKey,
    addr_of,
    node_key,
)
from repro.core.tree.roles import NodeRole
from repro.errors import ProtocolError
from repro.sim.columns import reach
from repro.sim.messages import Message, ProcessorId
from repro.sim.processor import Processor

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a cycle
    from repro.core.tree.counter import TreeCounter


class LeafProgram(Processor):
    """The leaf role of every processor, as one object in the processor
    table under every pure leaf's id (it reads the id off each message).

    A leaf's one datum, the worker it believes its parent node lives at,
    is ``parents[pid]`` (0, or past the end: the scheme's initial one).
    A message for an inner role gives the id a :class:`TreeWorker`.
    """

    __slots__ = ("_counter", "parents")

    def __init__(self, counter: "TreeCounter") -> None:
        # No Processor.__init__: a shared program has no id of its own.
        self.pid = None
        self._network = None
        self._counter = counter
        self.parents = array("i")

    def parent_worker(self, pid: ProcessorId) -> ProcessorId | None:
        """Where leaf *pid* believes its parent node works (``None``: no
        leaf)."""
        parents = self.parents
        if pid < len(parents) and parents[pid]:
            return parents[pid]
        geometry = self._counter.geometry
        if not 1 <= pid <= geometry.leaf_count:
            return None
        return geometry.initial_leaf_parent_worker(pid)

    def request_inc(self, pid: ProcessorId, request: object = None) -> None:
        """Initiate one operation at leaf *pid*: send the request to its
        parent node.

        *request* is an opaque operation descriptor interpreted at the
        root (``None`` = the counter's plain ``inc``; the generalized
        data structures of :mod:`repro.datatypes` pass their own ops —
        the paper's §2 remark that the bound covers "a bit that can be
        accessed and flipped and a priority queue" made concrete).
        """
        parent_worker = self.parent_worker(pid)
        if parent_worker is None:
            raise ProtocolError(f"processor {pid} has no leaf parent set")
        parent_key = node_key(self._counter.geometry.leaf_parent(pid))
        self._counter._network.send(
            pid,
            parent_worker,
            KIND_INC,
            {"origin": pid, "role": parent_key, "request": request},
        )

    def on_message(self, message: Message) -> None:
        pid = message.receiver
        kind = message.kind
        payload = message.payload
        if kind == KIND_VALUE:
            self._counter.deliver_result(pid, payload["value"])
        elif payload["role"][0] != "leaf":
            self._counter._promote(pid).on_message(message)
        elif kind != KIND_ID_UPDATE:
            raise ProtocolError(f"leaf {pid} cannot handle message kind {kind!r}")
        else:
            reach(self.parents, pid)
            self.parents[pid] = payload["new_worker"]


class TreeWorker(Processor):
    """A processor of the tree counter that holds, or has held, a role.

    A new worker starts in the state the paper's scheme gives processor
    *pid* before any message moved: it holds the inner node whose
    interval starts at *pid* (plus the root for processor 1).  That comes
    from :class:`~repro.core.tree.geometry.TreeGeometry` arithmetic, not
    from the registry's live ``worker`` fields — so it does not matter
    when during a run the worker is built: nothing can have changed its
    state before the first message reaches it, and a *successor* still
    takes a role up only when the hand-off arrives.  Its leaf role is
    the shared :class:`LeafProgram`'s.

    A worker stores only what can change.  The role table and the
    deferral table are allocated on first write (``None`` until then),
    and the role table goes back to ``None`` when the last role
    retires.  Forwarding
    pointers — one per role retired from, read only on the rare
    stale-address path — are one flat ``(key, successor, …)`` tuple,
    ``()`` when there are none.
    """

    __slots__ = (
        "_counter",
        "_roles",
        "_forward",
        "_pending",
        "forwarded_messages",
        "deferred_messages",
    )

    def __init__(self, pid: ProcessorId, counter: "TreeCounter") -> None:
        super().__init__(pid)
        self._counter = counter
        self._roles: dict[RoleKey, NodeRole] | None = None
        self._forward: tuple = ()
        self._pending: dict[RoleKey, list[Message]] | None = None
        self.forwarded_messages = 0
        self.deferred_messages = 0
        if pid == 1:
            self.adopt_role(counter.registry.root())
        addr = counter.geometry.initially_worked_node(pid)
        if addr is not None:
            self.adopt_role(counter.registry.role(addr))

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def adopt_role(self, role: NodeRole) -> None:
        """Take up work for *role* (initial assignment or hand-off)."""
        if self._roles is None:
            self._roles = {}
        key = role.key
        self._roles[key] = role
        forward = self._forward
        if key in forward:
            at = forward.index(key)
            self._forward = forward[:at] + forward[at + 2 :]

    def active_role_keys(self) -> list[RoleKey]:
        """Role keys this worker currently plays (test introspection)."""
        return list(self._roles or ())

    def forward_target(self, key: RoleKey) -> ProcessorId | None:
        """The successor this worker forwards messages for role *key* to
        (set when it retired from the role), or None."""
        forward = self._forward
        return forward[forward.index(key) + 1] if key in forward else None

    # ------------------------------------------------------------------
    # Operation entry point (a local event, not a message)
    # ------------------------------------------------------------------
    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def on_message(self, message: Message) -> None:
        kind = message.kind
        payload = message.payload
        if kind == KIND_VALUE or payload["role"][0] == "leaf":
            self._counter.leaves.on_message(message)  # addressed to self.pid
            return
        role_key: RoleKey = tuple(payload["role"])
        if kind == KIND_HANDOFF:
            self._handle_handoff(role_key, message)
            return
        role = self._roles.get(role_key) if self._roles else None
        if role is not None:
            if kind == KIND_INC:
                self._handle_inc(role, payload["origin"], payload.get("request"))
            elif kind == KIND_ID_UPDATE:
                self._handle_id_update(role, message)
            else:
                raise ProtocolError(
                    f"node {role.addr} cannot handle message kind {kind!r}"
                )
            return
        successor = self.forward_target(role_key)
        if successor is not None:
            # Stale addressing: pass the message along to the new worker.
            self.forwarded_messages += 1
            self.send(successor, kind, payload)
            return
        # Early arrival: the hand-off naming us the new worker is still in
        # flight.  Defer; replay when the role activates.
        self.deferred_messages += 1
        if self._pending is None:
            self._pending = {}
        self._pending.setdefault(role_key, []).append(message)

    # ------------------------------------------------------------------
    # Inner-node roles
    # ------------------------------------------------------------------
    def _handle_inc(
        self, role: NodeRole, origin: ProcessorId, request: object = None
    ) -> None:
        """Receive an operation climbing the tree; answer or forward it."""
        role.age += 1  # received the request
        if role.parent_addr is None:  # the root
            reply = self._counter.apply_at_root(role, request)
            self.send(origin, KIND_VALUE, {"value": reply})
        else:
            assert role.parent_worker is not None
            self.send(
                role.parent_worker,
                KIND_INC,
                {"origin": origin, "role": role.parent_key, "request": request},
            )
        role.age += 1  # sent the answer/forward
        self._maybe_retire(role)

    def _handle_id_update(self, role: NodeRole, message: Message) -> None:
        """A neighbour node moved: update the local belief of its worker."""
        changed: RoleKey = tuple(message.payload["node"])
        new_worker: ProcessorId = message.payload["new_worker"]
        if changed == role.parent_key:
            role.parent_worker = new_worker
        else:
            role.move_child(changed, new_worker)
        role.age += 1
        self._maybe_retire(role)

    # ------------------------------------------------------------------
    # Hand-off handling
    # ------------------------------------------------------------------
    def _handle_handoff(self, role_key: RoleKey, message: Message) -> None:
        role = self._roles.get(role_key) if self._roles else None
        if role is None:
            registry_role = self._counter.registry.role(addr_of(role_key))
            if registry_role.worker != self.pid:
                # A stale hand-off from a past tenure (possible only under
                # wrapped intervals with heavy reordering).  Receiving it
                # already cost load; there is nothing to do.
                return
            self.adopt_role(registry_role)
            role = registry_role
            self._replay_pending(role_key)
        if self._counter.policy.count_handoff_in_age:
            role.age += 1
            self._maybe_retire(role)

    def _replay_pending(self, role_key: RoleKey) -> None:
        """Re-dispatch messages that arrived before the role did.

        Replays run as injected local events attributed to the deferred
        message's own operation, so footprints stay exact and no new
        messages are charged.
        """
        pending = self._pending.pop(role_key, None) if self._pending else None
        if not pending:
            return
        for deferred in pending:
            self.network.inject(
                partial(self.on_message, deferred), op_index=deferred.op_index
            )

    # ------------------------------------------------------------------
    # Retirement (§4's hand-off procedure)
    # ------------------------------------------------------------------
    def _maybe_retire(self, role: NodeRole) -> None:
        threshold = self._counter.policy.retire_threshold
        if threshold is None or role.age < threshold:
            return
        registry = self._counter.registry
        successor = registry.next_worker_for(role)
        key = role.key
        registry.commit_retirement(
            role,
            successor,
            op_index=self.network.active_op,
            time=self.network.now,
        )
        del self._roles[key]
        if not self._roles:
            self._roles = None
        self._forward += (key, successor)
        # k+2 hand-off messages (k+3 for the root, which also ships val):
        # the new job, the parent id, the k child ids — each O(log n) bits.
        handoff_total = self._counter.geometry.arity + 2
        if role.parent_addr is None:  # the root also ships val
            handoff_total += 1
        for seq in range(handoff_total):
            self.send(
                successor,
                KIND_HANDOFF,
                {"role": key, "seq": seq, "total": handoff_total},
            )
        # One id-update to the parent (the root saves this message) ...
        if role.parent_addr is not None and role.parent_worker is not None:
            self.send(
                role.parent_worker,
                KIND_ID_UPDATE,
                {"role": role.parent_key, "node": key, "new_worker": successor},
            )
        # ... and one to each child (leaves included).
        for child_key, believed_worker in role.child_beliefs():
            self.send(
                believed_worker,
                KIND_ID_UPDATE,
                {"role": child_key, "node": key, "new_worker": successor},
            )
