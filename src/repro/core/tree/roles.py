"""Node roles and the role registry.

§4 of the paper separates *nodes* (logical positions in the communication
tree) from the *processors currently working for them*.  A
:class:`NodeRole` is a node's migrating state: its age, its interval
position, its local view of where its neighbours currently live, and — for
the root — the counter value.

The :class:`RoleRegistry` owns all roles and enforces the identifier
discipline: replacement ids come from the node's preallocated interval
(or the root's increasing walk), and no two inner nodes may ever be worked
by the same processor at the same time — the invariant behind the
Bottleneck Theorem's "at most once for the root and at most once for
another inner node" accounting.

Knowledge locality note: role state is a Python object handed from worker
to worker, while the paper transfers it inside the k+2 hand-off messages.
The counter *does* send those k+2 messages (they are counted like any
traffic); sharing the object merely avoids re-serializing state the
successor is entitled to.  Message counts — the paper's metric — are
unaffected.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.errors import ConfigurationError, ProtocolError
from repro.core.tree.geometry import TreeGeometry
from repro.core.tree.policy import IntervalMode, TreePolicy
from repro.sim.columns import Rows
from repro.sim.messages import OpIndex, ProcessorId


@dataclass(slots=True)
class NodeRole:
    """The migrating state of one inner node.

    A role stores only what a message can change.  The workers of inner
    children move, so a node above inner nodes keeps its belief of each
    one.  A last-level node's children are leaves, and a leaf's worker
    is its own pid for good, so such a node keeps just the range of its
    leaf ids.

    Attributes:
        node: which node this is (its level-order number; 0 is the root).
        worker: processor currently working for the node.
        age: messages the node sent/received under the current worker.
        parent_worker: this node's local belief of the parent's worker
            (None for the root).
        children: this node's belief of each inner child's worker, a
            list indexed by child position; or, on the last inner level,
            the ``range`` of its leaf children's ids.
        value: the counter value (root only; None elsewhere).
        retire_count: how many times this node has retired a worker.
    """

    node: int
    worker: ProcessorId
    age: int = 0
    parent_worker: ProcessorId | None = None
    children: list[ProcessorId] | range = range(0)
    value: int | None = None
    retire_count: int = 0

    @property
    def is_root(self) -> bool:
        """True for the root role."""
        return self.node == 0


@dataclass(frozen=True, slots=True)
class RetirementEvent:
    """One retirement, for the invariant checkers and E5 statistics."""

    op_index: OpIndex
    node: int
    old_worker: ProcessorId
    new_worker: ProcessorId
    age_at_retirement: int
    time: float


class _RetirementLog(Rows):
    """Retirement events as columns: ~28 bytes an event, where a
    :class:`RetirementEvent` costs ~90."""

    __slots__ = ()
    schema = {
        "op_index": "i", "node": "i", "old_worker": "i",
        "new_worker": "i", "age_at_retirement": "i", "time": "d",
    }
    row = RetirementEvent


class RoleRegistry:
    """Tracks and retires the node roles of one tree counter.

    A role exists from the first time it is asked for.  Before that its
    state is arithmetic on :class:`TreeGeometry` — initial worker, the
    parent's and the children's initial workers — and nothing but a
    message to its worker can change it, so building it late yields
    exactly the object an up-front build would hold at that moment.
    """

    def __init__(self, geometry: TreeGeometry, policy: TreePolicy) -> None:
        self._geometry = geometry
        self._policy = policy
        self._roles: dict[int, NodeRole] = {}
        self._inner_worker_index: dict[ProcessorId, int] = {}
        self._retirements = _RetirementLog()
        self._root_walk_next: ProcessorId = geometry.initial_worker(0) + 1

    def _build_role(self, node: int) -> NodeRole:
        """Create *node*'s role in the state the scheme gives it initially."""
        geometry = self._geometry
        try:
            children = geometry.children(node)
        except ConfigurationError:
            raise ConfigurationError(f"no inner node {node}") from None
        if children:
            beliefs = [geometry.initial_worker(child) for child in children]
        else:  # last inner level: the children are leaves
            beliefs = geometry.leaf_children(node)
        role = NodeRole(node, geometry.initial_worker(node), children=beliefs)
        if node == 0:
            role.value = 0
        else:
            role.parent_worker = geometry.initial_worker(geometry.parent(node))
            self._inner_worker_index[role.worker] = node
        self._roles[node] = role
        return role

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    @property
    def geometry(self) -> TreeGeometry:
        """The tree shape this registry manages."""
        return self._geometry

    @property
    def policy(self) -> TreePolicy:
        """The retirement policy in force."""
        return self._policy

    def role(self, node: int) -> NodeRole:
        """The role object of inner node *node*, built on first request."""
        role = self._roles.get(node)
        return role if role is not None else self._build_role(node)

    def root(self) -> NodeRole:
        """The root role (holder of the counter value)."""
        return self.role(0)

    def all_roles(self) -> list[NodeRole]:
        """Every role, root first, in level order.

        Builds every node nothing has addressed yet — for analysis and
        tests, which want the whole tree; the protocol never calls it.
        """
        return [self.role(node) for node in self._geometry.all_nodes()]

    @property
    def retirements(self) -> Sequence[RetirementEvent]:
        """All retirement events in chronological order: a read-only
        sequence, each event built on access from the log's columns."""
        return self._retirements

    def retirement_counts_by_level(self) -> dict[int, int]:
        """Total retirements per tree level (E5's per-level table)."""
        geometry = self._geometry
        counts: dict[int, int] = {level: 0 for level in geometry.inner_levels()}
        for event in self._retirements:
            counts[geometry.level_of(event.node)] += 1
        return counts

    def root_ids_used(self) -> int:
        """How many ids the root's replacement walk has consumed."""
        return self._root_walk_next - 1

    # ------------------------------------------------------------------
    # Retirement (the id-discipline part; messaging lives in the worker)
    # ------------------------------------------------------------------
    def next_worker_for(self, role: NodeRole) -> ProcessorId:
        """The id the paper's scheme assigns as *role*'s next worker."""
        if role.node == 0:  # the root walks ids 1, 2, 3, ...
            candidate = self._root_walk_next
            limit = self._geometry.processor_requirement()
            if candidate > limit:
                if self._policy.interval_mode is IntervalMode.WRAP:
                    return ((candidate - 1) % limit) + 1
                raise ProtocolError(
                    f"root replacement walk exhausted the id space "
                    f"(next={candidate}, limit={limit}); the workload is "
                    "not one-shot — use IntervalMode.WRAP"
                )
            return candidate
        interval = self._geometry.id_interval(role.node)
        offset = role.retire_count + 1
        if offset < len(interval):
            return interval[offset]
        if self._policy.interval_mode is IntervalMode.WRAP:
            return interval[offset % len(interval)]
        raise ProtocolError(
            f"node {role.node} exhausted its replacement interval "
            f"{interval.start}..{interval.stop - 1} after "
            f"{role.retire_count} retirements (Number-of-Retirements "
            f"Lemma violated, or workload is not one-shot; use "
            f"IntervalMode.WRAP for repeated workloads)"
        )

    def commit_retirement(
        self,
        role: NodeRole,
        new_worker: ProcessorId,
        op_index: OpIndex,
        time: float,
    ) -> RetirementEvent:
        """Record that *role* moves to *new_worker*; reset its age.

        Enforces the no-aliasing invariant: the new worker must not be
        working for any other inner node right now.
        """
        node, old_worker = role.node, role.worker
        if node != 0:  # the root may walk onto any id
            current_owner = self._inner_worker_index.get(new_worker)
            if current_owner is None:
                # A node nothing has addressed yet still has its initial
                # worker (a built one is in the index until it retires).
                initial = self._geometry.initially_worked_node(new_worker)
                if initial is not None and initial not in self._roles:
                    current_owner = initial
            if current_owner is not None and current_owner != node:
                raise ProtocolError(
                    f"processor {new_worker} would work for both node "
                    f"{current_owner} and node {node} — interval discipline "
                    "broken"
                )
        event = RetirementEvent(op_index, node, old_worker, new_worker, role.age, time)
        self._retirements.add(
            op_index, node, old_worker, new_worker, role.age, time
        )
        role.worker = new_worker
        role.age = 0
        role.retire_count += 1
        if node == 0:
            self._root_walk_next = new_worker + 1
        else:
            if self._inner_worker_index.get(old_worker) == node:
                del self._inner_worker_index[old_worker]
            self._inner_worker_index[new_worker] = node
        return event
