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
        geometry = self._counter.geometry
        self._counter._network.send(
            pid,
            parent_worker,
            KIND_INC,
            {
                "origin": pid,
                "role": geometry.encode(geometry.leaf_parent(pid)),
                "request": request,
            },
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

    A processor works for at most two nodes over a whole run: the root,
    and the one inner node whose interval holds its pid (the registry's
    no-aliasing check enforces it).  So a worker keeps one slot for
    each, ``_root`` and ``_inner``.  A slot holds the role while the
    worker works for the node, the successor's pid once it retired from
    it — the forwarding pointer, read only on the rare stale-address
    path — and ``None`` before it ever did.  What that path counts, and
    the messages an early arrival defers, the counter keeps.
    """

    __slots__ = ("_counter", "_root", "_inner")

    def __init__(self, pid: ProcessorId, counter: "TreeCounter") -> None:
        super().__init__(pid)
        self._counter = counter
        self._root: NodeRole | ProcessorId | None = None
        self._inner: NodeRole | ProcessorId | None = None
        if pid == 1:
            self._root = counter.registry.root()
        node = counter.geometry.initially_worked_node(pid)
        if node is not None:
            self._inner = counter.registry.role(node)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def adopt_role(self, role: NodeRole) -> None:
        """Take up work for *role* (initial assignment or hand-off)."""
        if role.node == 0:
            self._root = role
        else:
            self._inner = role

    def held_nodes(self) -> list[int]:
        """The nodes this worker currently works for, root first (test
        introspection)."""
        slots = (self._root, self._inner)
        return [slot.node for slot in slots if type(slot) is NodeRole]

    def forward_target(self, node: int) -> ProcessorId | None:
        """The successor this worker forwards messages for *node* to (set
        when it retired from the node), or None."""
        if node == 0:
            slot = self._root
        elif node == self._counter.geometry.interval_node(self.pid):
            slot = self._inner
        else:
            return None
        return slot if type(slot) is int else None

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def on_message(self, message: Message) -> None:
        kind = message.kind
        payload = message.payload
        if kind == KIND_VALUE or payload["role"][0] == "leaf":
            self._counter.leaves.on_message(message)  # addressed to self.pid
            return
        node = self._counter.geometry.decode(payload["role"])
        if kind == KIND_HANDOFF:
            self._handle_handoff(node)
            return
        role = self._root if node == 0 else self._inner
        if type(role) is NodeRole and role.node == node:
            if kind == KIND_INC:
                self._handle_inc(role, payload["origin"], payload.get("request"))
            elif kind == KIND_ID_UPDATE:
                self._handle_id_update(role, payload)
            else:
                raise ProtocolError(
                    f"node {node} cannot handle message kind {kind!r}"
                )
            return
        successor = self.forward_target(node)
        if successor is not None:
            # Stale addressing: pass the message along to the new worker.
            self._counter._forwarded += 1
            self.send(successor, kind, payload)
            return
        # Early arrival: the hand-off naming us the new worker is still in
        # flight.  Defer; replay when the role activates.
        counter = self._counter
        counter._deferred += 1
        counter._pending.setdefault((self.pid, node), []).append(message)

    # ------------------------------------------------------------------
    # Inner-node roles
    # ------------------------------------------------------------------
    def _handle_inc(
        self, role: NodeRole, origin: ProcessorId, request: object = None
    ) -> None:
        """Receive an operation climbing the tree; answer or forward it."""
        role.age += 1  # received the request
        if role.node == 0:
            reply = self._counter.apply_at_root(role, request)
            self.send(origin, KIND_VALUE, {"value": reply})
        else:
            geometry = self._counter.geometry
            self.send(
                role.parent_worker,
                KIND_INC,
                {
                    "origin": origin,
                    "role": geometry.encode(geometry.parent(role.node)),
                    "request": request,
                },
            )
        role.age += 1  # sent the answer/forward
        self._maybe_retire(role)

    def _handle_id_update(self, role: NodeRole, payload: dict) -> None:
        """A neighbour node moved: update the local belief of its worker."""
        changed = payload["node"]
        new_worker: ProcessorId = payload["new_worker"]
        if changed[0] == "leaf":
            raise ProtocolError(
                f"node {role.node} got an id-update for leaf {changed!r}; "
                "a leaf is worked by its own processor and never moves"
            )
        geometry = self._counter.geometry
        changed = geometry.decode(changed)
        if role.node != 0 and changed == geometry.parent(role.node):
            role.parent_worker = new_worker
        else:
            try:
                position = geometry.children(role.node).index(changed)
            except ValueError:
                raise ProtocolError(
                    f"node {role.node} got an id-update for non-neighbour "
                    f"node {changed}"
                ) from None
            role.children[position] = new_worker
        role.age += 1
        self._maybe_retire(role)

    # ------------------------------------------------------------------
    # Hand-off handling
    # ------------------------------------------------------------------
    def _handle_handoff(self, node: int) -> None:
        role = self._root if node == 0 else self._inner
        if type(role) is not NodeRole or role.node != node:
            role = self._counter.registry.role(node)
            if role.worker != self.pid:
                # A stale hand-off from a past tenure (possible only under
                # wrapped intervals with heavy reordering).  Receiving it
                # already cost load; there is nothing to do.
                return
            self.adopt_role(role)
            self._replay_pending(node)
        if self._counter.policy.count_handoff_in_age:
            role.age += 1
            self._maybe_retire(role)

    def _replay_pending(self, node: int) -> None:
        """Re-dispatch messages that arrived before the role did.

        Replays run as injected local events attributed to the deferred
        message's own operation, so footprints stay exact and no new
        messages are charged.
        """
        pending = self._counter._pending
        if not pending:
            return
        for deferred in pending.pop((self.pid, node), ()):
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
        counter = self._counter
        geometry = counter.geometry
        successor = counter.registry.next_worker_for(role)
        node = role.node
        counter.registry.commit_retirement(
            role,
            successor,
            op_index=self.network.active_op,
            time=self.network.now,
        )
        # The slot keeps the successor: the forwarding pointer.
        if node == 0:
            self._root = successor
        else:
            self._inner = successor
        key = geometry.encode(node)
        # k+2 hand-off messages (k+3 for the root, which also ships val):
        # the new job, the parent id, the k child ids — each O(log n) bits.
        handoff_total = geometry.arity + 2
        if node == 0:  # the root also ships val
            handoff_total += 1
        for seq in range(handoff_total):
            self.send(
                successor,
                KIND_HANDOFF,
                {"role": key, "seq": seq, "total": handoff_total},
            )
        # One id-update to the parent (the root saves this message) ...
        if node != 0 and role.parent_worker is not None:
            self.send(
                role.parent_worker,
                KIND_ID_UPDATE,
                {
                    "role": geometry.encode(geometry.parent(node)),
                    "node": key,
                    "new_worker": successor,
                },
            )
        # ... and one to each child (leaves included).
        children = role.children
        if type(children) is range:  # leaves, each worked by its own pid
            child_keys = [("leaf", pid) for pid in children]
        else:
            child_keys = [geometry.encode(child) for child in geometry.children(node)]
        for child_key, believed_worker in zip(child_keys, children):
            self.send(
                believed_worker,
                KIND_ID_UPDATE,
                {"role": child_key, "node": key, "new_worker": successor},
            )
