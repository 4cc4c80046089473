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
from repro.core.tree.geometry import ROOT, NodeAddr, TreeGeometry
from repro.core.tree.policy import IntervalMode, TreePolicy
from repro.core.tree.protocol import addr_of, is_leaf_key, leaf_key, node_key
from repro.sim.columns import Rows
from repro.sim.messages import OpIndex, ProcessorId


@dataclass(slots=True)
class NodeRole:
    """The migrating state of one inner node.

    A role stores only what a message can change.  The workers of inner
    children move, so a node above inner nodes keeps its belief of each
    one.  A last-level node's children are leaves, and a leaf's worker
    is its own pid for good, so such a node keeps just the range of its
    leaf ids; the views below derive the ``("leaf", pid) → pid`` pairs
    from it on demand.

    Attributes:
        addr: which node this is.
        worker: processor currently working for the node.
        age: messages the node sent/received under the current worker.
        parent_addr: address of the parent node (None for the root).
        parent_worker: this node's local belief of the parent's worker.
        children: this node's belief of each inner child's worker, keyed
            by the child's role key, in child order; or, on the last
            inner level, the ``range`` of its leaf children's ids.
        value: the counter value (root only; None elsewhere).
        retire_count: how many times this node has retired a worker.
        key, parent_key: role keys of the node and its parent (None for
            the root), built once and shared by every message naming them.
    """

    addr: NodeAddr
    worker: ProcessorId
    age: int = 0
    parent_addr: NodeAddr | None = None
    parent_worker: ProcessorId | None = None
    children: dict[tuple, ProcessorId] | range = range(0)
    value: int | None = None
    retire_count: int = 0
    key: tuple = ()
    parent_key: tuple | None = None

    @property
    def is_root(self) -> bool:
        """True for the root role (the one node without a parent)."""
        return self.parent_addr is None

    @property
    def child_addrs(self) -> list[NodeAddr]:
        """Inner-node children (empty on the last inner level)."""
        children = self.children
        if type(children) is range:
            return []
        return [addr_of(key) for key in children]

    def child_beliefs(self) -> list[tuple[tuple, ProcessorId]]:
        """``(child key, believed worker)`` for every child, in child order;
        leaf children are ``(("leaf", pid), pid)``."""
        children = self.children
        if type(children) is range:
            return [(leaf_key(pid), pid) for pid in children]
        return list(children.items())

    @property
    def children_workers(self) -> dict[tuple, ProcessorId]:
        """Believed worker of every child (inner or leaf), keyed by the
        child's role key, in child order (a fresh dict)."""
        return dict(self.child_beliefs())

    def child_keys(self) -> list[tuple]:
        """Payload-safe keys of all children (inner or leaf)."""
        return [key for key, _ in self.child_beliefs()]

    def move_child(self, key: tuple, worker: ProcessorId) -> None:
        """Record an id-update: inner child *key* is now worked by *worker*.

        Raises :class:`ProtocolError` for a leaf — a leaf is worked by
        its own processor and never moves — and for a non-neighbour.
        """
        children = self.children
        if is_leaf_key(key):
            raise ProtocolError(
                f"node {self.addr} got an id-update for leaf {key!r}; "
                "a leaf is worked by its own processor and never moves"
            )
        if type(children) is range or key not in children:
            raise ProtocolError(
                f"node {self.addr} got an id-update for non-neighbour {key!r}"
            )
        children[key] = worker

    def believed_child_worker(self, key: tuple) -> ProcessorId:
        """The worker this node believes currently serves child *key*."""
        children = self.children
        if type(children) is range:
            if is_leaf_key(key) and len(key) == 2 and key[1] in children:
                return key[1]
        elif key in children:
            return children[key]
        raise ProtocolError(f"{self.addr} has no child {key!r}")


@dataclass(frozen=True, slots=True)
class RetirementEvent:
    """One retirement, for the invariant checkers and E5 statistics."""

    op_index: OpIndex
    addr: NodeAddr
    old_worker: ProcessorId
    new_worker: ProcessorId
    age_at_retirement: int
    time: float


class _RetirementLog(Rows):
    """Retirement events as columns, the node address as level and index:
    ~30 bytes an event, where a :class:`RetirementEvent` costs ~90."""

    __slots__ = ()
    schema = {
        "op_index": "i", "level": "B", "index": "i", "old_worker": "i",
        "new_worker": "i", "age_at_retirement": "i", "time": "d",
    }

    row = staticmethod(
        lambda op_index, level, index, *rest: RetirementEvent(
            op_index, NodeAddr(level, index), *rest
        )
    )


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
        self._roles: dict[NodeAddr, NodeRole] = {}
        self._inner_worker_index: dict[ProcessorId, NodeAddr] = {}
        self._retirements = _RetirementLog()
        self._root_walk_next: ProcessorId = geometry.initial_worker(ROOT) + 1

    def _build_role(self, addr: NodeAddr) -> NodeRole:
        """Create *addr*'s role in the state the scheme gives it initially."""
        geometry = self._geometry
        try:
            child_addrs = geometry.children(addr)
        except ConfigurationError:
            raise ConfigurationError(f"no inner node at {addr}") from None
        if child_addrs:
            children = {node_key(c): geometry.initial_worker(c) for c in child_addrs}
        else:  # last inner level: the children are leaves, ids base+1..
            base = addr.index * geometry.arity
            children = range(base + 1, base + geometry.arity + 1)
        worker = geometry.initial_worker(addr)
        role = NodeRole(
            addr=addr,
            worker=worker,
            children=children,
            key=node_key(addr),
        )
        if addr.is_root:
            role.value = 0
        else:
            role.parent_addr = geometry.parent(addr)
            role.parent_key = node_key(role.parent_addr)
            role.parent_worker = geometry.initial_worker(role.parent_addr)
            self._inner_worker_index[worker] = addr
        self._roles[addr] = role
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

    def role(self, addr: NodeAddr) -> NodeRole:
        """The role object of inner node *addr*, built on first request."""
        role = self._roles.get(addr)
        return role if role is not None else self._build_role(addr)

    def root(self) -> NodeRole:
        """The root role (holder of the counter value)."""
        return self.role(ROOT)

    def all_roles(self) -> list[NodeRole]:
        """Every role, root first, in level order.

        Builds every node nothing has addressed yet — for analysis and
        tests, which want the whole tree; the protocol never calls it.
        """
        return [self.role(addr) for addr in self._geometry.all_nodes()]

    @property
    def retirements(self) -> Sequence[RetirementEvent]:
        """All retirement events in chronological order: a read-only
        sequence, each event built on access from the log's columns."""
        return self._retirements

    def retirement_counts_by_level(self) -> dict[int, int]:
        """Total retirements per tree level (E5's per-level table)."""
        counts: dict[int, int] = {level: 0 for level in self._geometry.inner_levels()}
        for event in self._retirements:
            counts[event.addr.level] += 1
        return counts

    def root_ids_used(self) -> int:
        """How many ids the root's replacement walk has consumed."""
        return self._root_walk_next - 1

    # ------------------------------------------------------------------
    # Retirement (the id-discipline part; messaging lives in the worker)
    # ------------------------------------------------------------------
    def next_worker_for(self, role: NodeRole) -> ProcessorId:
        """The id the paper's scheme assigns as *role*'s next worker."""
        if role.parent_addr is None:  # the root walks ids 1, 2, 3, ...
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
        interval = self._geometry.id_interval(role.addr)
        offset = role.retire_count + 1
        if offset < len(interval):
            return interval[offset]
        if self._policy.interval_mode is IntervalMode.WRAP:
            return interval[offset % len(interval)]
        raise ProtocolError(
            f"{role.addr} exhausted its replacement interval "
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
        is_root = role.parent_addr is None
        if not is_root:
            current_owner = self._inner_worker_index.get(new_worker)
            if current_owner is None:
                # A node nothing has addressed yet still has its initial
                # worker (a built one is in the index until it retires).
                initial = self._geometry.initially_worked_node(new_worker)
                if initial is not None and initial not in self._roles:
                    current_owner = initial
            if current_owner is not None and current_owner != role.addr:
                raise ProtocolError(
                    f"processor {new_worker} would work for both "
                    f"{current_owner} and {role.addr} — interval discipline "
                    "broken"
                )
        addr, old_worker = role.addr, role.worker
        event = RetirementEvent(op_index, addr, old_worker, new_worker, role.age, time)
        self._retirements.add(
            op_index, addr.level, addr.index, old_worker, new_worker, role.age, time
        )
        role.worker = new_worker
        role.age = 0
        role.retire_count += 1
        if is_root:
            self._root_walk_next = new_worker + 1
        else:
            if self._inner_worker_index.get(old_worker) == role.addr:
                del self._inner_worker_index[old_worker]
            self._inner_worker_index[new_worker] = role.addr
        return event
