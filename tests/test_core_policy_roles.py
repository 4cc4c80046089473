"""Unit tests for retirement policy and the role registry."""

from __future__ import annotations

import pytest

from repro.core import (
    IntervalMode,
    RoleRegistry,
    TreeCounter,
    TreeGeometry,
    TreePolicy,
)
from repro.core.tree.protocol import KIND_ID_UPDATE
from repro.errors import ConfigurationError, ProtocolError
from repro.registry import RunSession
from repro.sim.messages import Message
from repro.sim.network import Network


class TestTreePolicy:
    def test_paper_default_threshold(self):
        assert TreePolicy.paper_default(3).retire_threshold == 12
        assert TreePolicy.paper_default(3).retires

    def test_never_retire(self):
        policy = TreePolicy.never_retire()
        assert policy.retire_threshold is None
        assert not policy.retires

    def test_threshold_factor(self):
        assert TreePolicy.with_threshold_factor(4, 2.0).retire_threshold == 8
        assert TreePolicy.with_threshold_factor(4, 0.1).retire_threshold == 1

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ConfigurationError):
            TreePolicy(retire_threshold=0)
        with pytest.raises(ConfigurationError):
            TreePolicy.with_threshold_factor(4, -1.0)

    def test_default_interval_mode_is_strict(self):
        assert TreePolicy.paper_default(2).interval_mode is IntervalMode.STRICT


def _registry(k=2, policy=None):
    geometry = TreeGeometry.paper_shape(k)
    return RoleRegistry(geometry, policy or TreePolicy.paper_default(k))


class TestRegistryConstruction:
    def test_every_node_has_a_role(self):
        registry = _registry(3)
        assert len(registry.all_roles()) == registry.geometry.total_inner_nodes()

    def test_root_holds_the_value(self):
        registry = _registry()
        assert registry.root().value == 0
        assert registry.root().is_root

    def test_non_root_roles_have_no_value(self):
        registry = _registry()
        assert all(
            role.value is None for role in registry.all_roles() if not role.is_root
        )

    def test_initial_workers_match_geometry(self):
        registry = _registry(3)
        for role in registry.all_roles():
            assert role.worker == registry.geometry.initial_worker(role.node)

    def test_neighbour_beliefs_initialized(self):
        registry = _registry(2)
        child = registry.role(1)
        assert registry.geometry.parent(child.node) == 0
        assert child.parent_worker == registry.root().worker
        root = registry.root()
        assert root.children == [registry.role(1).worker, registry.role(2).worker]

    def test_last_level_children_are_leaves(self):
        registry = _registry(2)
        bottom = registry.role(registry.geometry.leaf_parent(1))
        assert bottom.children == range(1, 3)

    def test_unknown_addr_rejected(self):
        with pytest.raises(ConfigurationError):
            _registry().role(99)


class TestRetirementDiscipline:
    def test_next_worker_walks_the_interval(self):
        registry = _registry(3)
        role = registry.role(1)
        interval = registry.geometry.id_interval(role.node)
        first_successor = registry.next_worker_for(role)
        assert first_successor == interval[1]

    def test_commit_updates_role(self):
        registry = _registry(3)
        role = registry.role(1)
        role.age = 99
        successor = registry.next_worker_for(role)
        event = registry.commit_retirement(role, successor, op_index=2, time=5.0)
        assert role.worker == successor
        assert role.age == 0
        assert role.retire_count == 1
        assert event.age_at_retirement == 99
        assert event.op_index == 2
        assert registry.retirements == [event]

    def test_root_walk_is_strictly_increasing(self):
        registry = _registry(3)
        root = registry.root()
        seen = [root.worker]
        for _ in range(5):
            successor = registry.next_worker_for(root)
            registry.commit_retirement(root, successor, op_index=0, time=0.0)
            seen.append(successor)
        assert seen == sorted(set(seen))
        assert registry.root_ids_used() == seen[-1]

    def test_strict_interval_exhaustion_raises(self):
        registry = _registry(2)
        role = registry.role(3)  # last level: width-1 interval, no spares
        with pytest.raises(ProtocolError, match="exhausted"):
            registry.next_worker_for(role)

    def test_wrap_mode_reuses_interval(self):
        geometry = TreeGeometry.paper_shape(2)
        policy = TreePolicy(retire_threshold=8, interval_mode=IntervalMode.WRAP)
        registry = RoleRegistry(geometry, policy)
        role = registry.role(3)
        successor = registry.next_worker_for(role)
        assert successor == geometry.id_interval(role.node)[0]

    def test_aliasing_between_inner_nodes_rejected(self):
        registry = _registry(3)
        role_a = registry.role(1)
        role_b = registry.role(2)
        with pytest.raises(ProtocolError, match="interval discipline"):
            registry.commit_retirement(role_a, role_b.worker, op_index=0, time=0.0)

    def test_root_exempt_from_aliasing(self):
        registry = _registry(3)
        root = registry.root()
        inner_worker = registry.role(2).worker
        # The root walking onto an id that works for an inner node is by
        # design: "at most once for the root and at most once for another
        # inner node".
        registry.commit_retirement(root, inner_worker, op_index=0, time=0.0)
        assert root.worker == inner_worker

    def test_retirement_counts_by_level(self):
        registry = _registry(3)
        role = registry.role(1)
        registry.commit_retirement(
            role, registry.next_worker_for(role), op_index=0, time=0.0
        )
        counts = registry.retirement_counts_by_level()
        assert counts[1] == 1
        assert counts[0] == 0


class TestNodeRoleHelpers:
    def test_believed_child_worker(self):
        registry = _registry(2)
        root = registry.root()
        children = registry.geometry.children(0)
        assert root.children[children.index(1)] == registry.role(1).worker

    def test_unknown_child_rejected(self):
        counter = TreeCounter(Network(), 8)
        worker = counter.worker(1)  # works for the root
        beliefs = list(counter.registry.root().children)
        for stranger in (("node", 5, 5), ("node", 2, 0)):
            update = Message(
                sender=2, receiver=1, kind=KIND_ID_UPDATE,
                payload={"role": ("node", 0, 0), "node": stranger, "new_worker": 7},
            )
            with pytest.raises(ProtocolError):
                worker.on_message(update)
        assert counter.registry.root().children == beliefs

    def test_child_keys(self):
        geometry = _registry(2).geometry
        keys = [geometry.encode(child) for child in geometry.children(0)]
        assert keys == [("node", 1, 0), ("node", 1, 1)]


class TestBeliefsAfterQuiescence:
    """Once a run is quiescent every id-update has landed: each role
    believes each inner child is served by that child's current worker,
    and each leaf child by its own processor.  ``all_roles`` also builds
    the roles the run never addressed (n = 256 rounds up to the 4^5
    shape), which must hold their initial beliefs."""

    @pytest.mark.parametrize(
        ("spec", "n", "policy", "seed", "checked"),
        [
            ("ww-tree", 81, "unit", 0, 120),
            ("ww-tree", 1024, "unit", 0, 1364),
            ("ww-tree?interval_mode=wrap", 256, "unit", 0, 1364),
            ("ww-tree", 1024, "random", 3, 1364),
        ],
    )
    def test_every_child_belief_is_current(self, spec, n, policy, seed, checked):
        session = RunSession(spec, n, policy=policy, seed=seed, trace_level="LOADS")
        session.run_sequence()
        registry = session.counter.registry
        assert registry.retirements, "the run retired no worker"
        beliefs = 0
        geometry = registry.geometry
        for role in registry.all_roles():
            children = geometry.children(role.node)
            if children:
                actual = [registry.role(child).worker for child in children]
            else:
                actual = geometry.leaf_children(role.node)
            assert role.children == actual, role.node
            beliefs += len(actual)
        assert beliefs == checked
