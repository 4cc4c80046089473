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

from dataclasses import dataclass, field
from functools import lru_cache

from repro.errors import ConfigurationError, ProtocolError
from repro.core.tree.geometry import ROOT, NodeAddr, TreeGeometry
from repro.core.tree.policy import IntervalMode, TreePolicy
from repro.sim.messages import OpIndex, ProcessorId


@dataclass(slots=True)
class NodeRole:
    """The migrating state of one inner node.

    Attributes:
        addr: which node this is.
        worker: processor currently working for the node.
        age: messages the node sent/received under the current worker.
        parent_addr: address of the parent node (None for the root).
        parent_worker: this node's local belief of the parent's worker.
        child_addrs: inner-node children (empty on the last inner level).
        children_workers: local belief of each child's worker, keyed by the
            child's address key; for last-level nodes the "children" are
            leaves, keyed by ``("leaf", pid)`` with fixed worker = pid.
        value: the counter value (root only; None elsewhere).
        retire_count: how many times this node has retired a worker.
        tenure_start_load: bookkeeping for per-tenure statistics.
    """

    addr: NodeAddr
    worker: ProcessorId
    age: int = 0
    parent_addr: NodeAddr | None = None
    parent_worker: ProcessorId | None = None
    child_addrs: list[NodeAddr] = field(default_factory=list)
    children_workers: dict[tuple, ProcessorId] = field(default_factory=dict)
    value: int | None = None
    retire_count: int = 0

    @property
    def is_root(self) -> bool:
        """True for the root role (the one node without a parent)."""
        return self.parent_addr is None

    def child_keys(self) -> list[tuple]:
        """Payload-safe keys of all children (inner or leaf)."""
        return list(self.children_workers.keys())

    def believed_child_worker(self, key: tuple) -> ProcessorId:
        """The worker this node believes currently serves child *key*."""
        try:
            return self.children_workers[key]
        except KeyError:
            raise ProtocolError(f"{self.addr} has no child {key!r}") from None


@dataclass(frozen=True, slots=True)
class RetirementEvent:
    """One retirement, for the invariant checkers and E5 statistics."""

    op_index: OpIndex
    addr: NodeAddr
    old_worker: ProcessorId
    new_worker: ProcessorId
    age_at_retirement: int
    time: float


@lru_cache(maxsize=64)
def _role_plan(
    arity: int, depth: int
) -> tuple[tuple[NodeAddr, ProcessorId, int, tuple, int], ...]:
    """The immutable construction plan of one tree shape.

    One row per inner node in level order: ``(addr, initial_worker,
    parent_row_index, node_key, leaf_base)`` — ``parent_row_index`` is
    -1 for the root, ``leaf_base`` is the pid preceding the node's first
    leaf child on the last inner level and -1 elsewhere.  Everything in
    a row is immutable (``NodeAddr`` is frozen), so the plan is shared
    across every :class:`RoleRegistry` built for the same shape —
    session construction replays the plan instead of redoing the
    interval arithmetic (the measured RunSession-rate bottleneck).
    """
    rows: list[tuple[NodeAddr, ProcessorId, int, tuple, int]] = [
        (ROOT, 1, -1, ("node", 0, 0), -1)
    ]
    band = arity**depth
    row_of_addr = {ROOT: 0}
    for level in range(1, depth + 1):
        # id_interval(level, index) starts at
        # (level-1)*band + index*width + 1 with width ids per node.
        width = arity ** (depth - level)
        level_base = (level - 1) * band + 1
        last_level = level == depth
        for index in range(arity**level):
            addr = NodeAddr(level, index)
            worker = level_base + index * width
            parent_row = row_of_addr[NodeAddr(level - 1, index // arity)]
            leaf_base = index * arity if last_level else -1
            row_of_addr[addr] = len(rows)
            rows.append(
                (addr, worker, parent_row, ("node", level, index), leaf_base)
            )
    return tuple(rows)


class RoleRegistry:
    """Creates, tracks and retires all node roles of one tree counter."""

    def __init__(self, geometry: TreeGeometry, policy: TreePolicy) -> None:
        self._geometry = geometry
        self._policy = policy
        self._roles: dict[NodeAddr, NodeRole] = {}
        self._worker_of_role: dict[NodeAddr, ProcessorId] = {}
        self._inner_worker_index: dict[ProcessorId, NodeAddr] = {}
        self._retirements: list[RetirementEvent] = []
        self._root_walk_next: ProcessorId = 0
        self._build_roles()

    def _build_roles(self) -> None:
        """Create and wire every role by replaying the shape's plan.

        Parents exist before their children, so each non-root role wires
        itself into its parent at creation — no second wiring pass over
        the whole tree.  All shape arithmetic lives in the cached
        :func:`_role_plan`, so building the 10^5-leaf tree is O(nodes)
        dict and list appends — and repeat constructions of the same
        shape skip the arithmetic entirely.  Orders match the old
        two-pass construction exactly: ``child_addrs`` and
        ``children_workers`` fill in child index order.
        """
        geometry = self._geometry
        arity = geometry.arity
        roles = self._roles
        worker_of_role = self._worker_of_role
        inner_worker_index = self._inner_worker_index
        built: list[NodeRole] = []
        for addr, worker, parent_row, key, leaf_base in _role_plan(
            arity, geometry.depth
        ):
            if parent_row < 0:
                role = NodeRole(addr=addr, worker=worker)
                role.value = 0
                self._root_walk_next = worker + 1
            else:
                parent = built[parent_row]
                role = NodeRole(
                    addr=addr,
                    worker=worker,
                    parent_addr=parent.addr,
                    parent_worker=parent.worker,
                )
                parent.child_addrs.append(addr)
                parent.children_workers[key] = worker
                inner_worker_index[worker] = addr
                if leaf_base >= 0:
                    leaf_workers = role.children_workers
                    for c in range(arity):
                        leaf_workers[("leaf", leaf_base + c + 1)] = (
                            leaf_base + c + 1
                        )
            built.append(role)
            roles[addr] = role
            worker_of_role[addr] = worker

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
        """The role object of inner node *addr*."""
        try:
            return self._roles[addr]
        except KeyError:
            raise ConfigurationError(f"no inner node at {addr}") from None

    def root(self) -> NodeRole:
        """The root role (holder of the counter value)."""
        return self._roles[ROOT]

    def all_roles(self) -> list[NodeRole]:
        """Every role, root first, in level order.

        ``_roles`` is populated in exactly this order (see
        :meth:`_build_roles`), so this is a plain dict walk — no address
        materialization.
        """
        return list(self._roles.values())

    @property
    def retirements(self) -> list[RetirementEvent]:
        """All retirement events in chronological order."""
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
            if current_owner is not None and current_owner != role.addr:
                raise ProtocolError(
                    f"processor {new_worker} would work for both "
                    f"{current_owner} and {role.addr} — interval discipline "
                    "broken"
                )
        event = RetirementEvent(
            op_index=op_index,
            addr=role.addr,
            old_worker=role.worker,
            new_worker=new_worker,
            age_at_retirement=role.age,
            time=time,
        )
        self._retirements.append(event)
        old_worker = role.worker
        role.worker = new_worker
        role.age = 0
        role.retire_count += 1
        self._worker_of_role[role.addr] = new_worker
        if is_root:
            self._root_walk_next = new_worker + 1
        else:
            if self._inner_worker_index.get(old_worker) == role.addr:
                del self._inner_worker_index[old_worker]
            self._inner_worker_index[new_worker] = role.addr
        return event
