"""Tree workers on demand: building a processor late changes nothing.

A ww-tree session registers every id the tree may touch as one lazy
range and builds a worker the first time its id is addressed.  These
tests pin the three promises behind that: a run on a network where
every worker was built up front is indistinguishable from the lazy run;
the lazy table survives ``copy.deepcopy`` (the lower-bound adversary
and the explorer clone live networks); and an unmaterialised id is
registered in every observable sense.  The registry's node roles are
likewise built the first time they are asked for: ``TestRolesOnDemand``
pins the first promise for them, the deep-copy test covers both, and
``TestNoAliasingAcrossTheBuildBoundary`` the one check that has to
reason about roles that do not exist yet.  The last class counts
constructions instead of timing them.
"""

from __future__ import annotations

import copy
import re

import pytest

from repro.core import TreeCounter
from repro.core.tree.geometry import TreeGeometry
from repro.core.tree.policy import TreePolicy
from repro.core.tree.roles import RoleRegistry
from repro.core.tree.worker import TreeWorker
from repro.errors import (
    ConfigurationError,
    DuplicateProcessorError,
    ProtocolError,
    UnknownProcessorError,
)
from repro.registry import RunSession
from repro.sim.network import Network
from repro.sim.processor import InertProcessor
from repro.sim.transport import ReliableTransport
from repro.workloads import one_shot

from conftest import all_values, observed, values


class _Recorder(InertProcessor):
    """Keeps what it is handed."""

    def __init__(self, pid):
        super().__init__(pid)
        self.received = []

    def on_message(self, message):
        self.received.append(message.kind)


RUNS = {
    "strict-81": (("ww-tree", 81), {}, 1),
    "strict-100": (("ww-tree", 100), {}, 1),  # 100 is not k^(k+1): shape 4^5
    "wrap-3-rounds": (("ww-tree?interval_mode=wrap", 81), {}, 3),
    "lossy-reliable": (
        ("ww-tree", 81),
        {"faults": "drop=0.05", "reliable": True, "policy": "random", "seed": 5},
        1,
    ),
}


def _requirement(session: RunSession) -> int:
    return session.counter.geometry.processor_requirement()


def _materialise_everything(session: RunSession) -> None:
    for pid in range(1, _requirement(session) + 1):
        session.counter.worker(pid)


def _observed(session: RunSession, rounds: int):
    result = session.run_sequence(one_shot(session.n) * rounds)
    return (
        session.network.trace.fingerprint(),
        list(session.counter.retirements),
        result.values(),
        session.network.events_executed,
        session.transport_stats(),
    )


class TestEagerLazyEquivalence:
    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_building_every_worker_up_front_changes_nothing(self, name):
        args, kwargs, rounds = RUNS[name]
        lazy = RunSession(*args, **kwargs)
        eager = RunSession(*args, **kwargs)
        _materialise_everything(eager)
        assert len(eager.network.materialised_ids()) == _requirement(eager)
        assert len(lazy.network.materialised_ids()) == 0

        assert _observed(lazy, rounds) == _observed(eager, rounds)
        # ... and where n was rounded up, the lazy run skipped processors
        # (at an exact k^(k+1) every id is a client and gets built).
        built = len(lazy.network.materialised_ids())
        assert built == 81 if lazy.n == 81 else built < _requirement(lazy) // 2

    def test_initial_state_of_a_late_worker_is_the_schemes(self):
        """Roles come from geometry arithmetic, not from who works for a
        node *now*: after a full run, a never-addressed processor still
        starts with exactly the nodes whose intervals start at its id."""
        session = RunSession("ww-tree", 100)
        session.run_sequence()
        counter, geometry = session.counter, session.counter.geometry
        untouched = set(range(1, _requirement(session) + 1)) - set(
            session.network.materialised_ids()
        )
        initial = {
            geometry.initial_worker(role.node): role.node
            for role in counter.registry.all_roles()
            if not role.is_root
        }
        assert untouched & set(initial), "the run left no initial worker unbuilt"
        for pid in untouched:
            node = initial.get(pid)
            expected = [] if node is None else [node]
            assert counter.worker(pid).held_nodes() == expected


def _role_state(registry: RoleRegistry) -> list[tuple]:
    """Every field of every role, in level order (forces the build)."""
    return [
        (
            role.node, role.worker, role.age, role.parent_worker,
            list(role.children), role.value, role.retire_count,
        )
        for role in registry.all_roles()
    ]


class TestDeepcopyMidRun:
    @pytest.mark.parametrize("reliable", [False, True])
    def test_clone_finishes_identically_and_owns_its_workers(self, reliable):
        n = 100  # rounded up to the 4^5 shape: most ids are never built
        # Cloned mid-run: messages are in flight, and local events
        # (operation requests, the transport's retransmit timers) are
        # pending as (action, op) pairs the copy owns with their actions.
        if reliable:
            session = RunSession(
                "ww-tree", n, faults="drop=0.05", reliable=True,
                policy="random", seed=2,
            )
        else:
            session = RunSession("ww-tree", n)
        received = observed(session.counter)
        for op_index, pid in enumerate(one_shot(n)):
            session.counter.begin_inc(pid, op_index)
        session.network.run(300)
        assert not session.network.is_quiescent()
        if reliable:
            assert session.transport.held()["pending"] > 0
        before = set(session.network.materialised_ids())
        assert 0 < len(before) < _requirement(session)
        roles_before = set(session.counter.registry._roles)
        assert 0 < len(roles_before) < session.counter.geometry.total_inner_nodes()

        clone, clone_received = copy.deepcopy((session, received))
        for each in (session, clone):
            each.network.run_until_quiescent()

        assert clone.network.trace.fingerprint() == session.network.trace.fingerprint()
        assert clone.counter.retirements == session.counter.retirements
        assert all_values(clone_received) == list(range(n))
        assert [values(clone_received, p) for p in range(1, n + 1)] == [
            values(received, p) for p in range(1, n + 1)
        ]
        assert clone.network.materialised_ids() == session.network.materialised_ids()

        # Workers built before the copy and workers the clone built later
        # are all wired to the clone, never to the original.
        built_later = set(clone.network.materialised_ids()) - before
        assert built_later
        fabric = clone.transport if reliable else clone.network
        assert clone.counter.network is fabric
        for pid in (min(before), min(built_later), _requirement(clone)):
            worker = clone.counter.worker(pid)
            assert type(worker) is TreeWorker
            assert worker._counter is clone.counter
            assert worker.network is fabric
            assert worker is not session.counter.worker(pid)

        # The same for node roles: built before the copy or by the clone
        # afterwards, they are the clone's own and end in the same state.
        ours, theirs = session.counter.registry, clone.counter.registry
        assert list(theirs._roles) == list(ours._roles)
        roles_built_later = set(theirs._roles) - roles_before
        assert roles_built_later
        for node in (min(roles_before), min(roles_built_later)):
            assert theirs.role(node) is not ours.role(node)
        assert _role_state(theirs) == _role_state(ours)


class TestRolesOnDemand:
    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_building_every_role_up_front_changes_nothing(self, name):
        args, kwargs, rounds = RUNS[name]
        lazy = RunSession(*args, **kwargs)
        eager = RunSession(*args, **kwargs)
        total = eager.counter.geometry.total_inner_nodes()
        assert len(eager.counter.registry.all_roles()) == total
        assert len(eager.counter.registry._roles) == total
        assert len(lazy.counter.registry._roles) == 0

        assert _observed(lazy, rounds) == _observed(eager, rounds)
        if lazy.n < lazy.counter.geometry.leaf_count:
            assert len(lazy.counter.registry._roles) < total
        # ... and the roles the lazy run never built are, once asked for,
        # what the eager run is left with.
        assert _role_state(lazy.counter.registry) == _role_state(
            eager.counter.registry
        )

    def test_a_role_first_asked_for_after_the_run_has_its_initial_state(self):
        session = RunSession("ww-tree", 100)
        session.run_sequence()
        registry, geometry = session.counter.registry, session.counter.geometry
        unbuilt = [v for v in geometry.all_nodes() if v not in registry._roles]
        assert unbuilt and 0 not in unbuilt
        for node in unbuilt:
            role = registry.role(node)
            assert role is registry.role(node)
            assert (role.worker, role.age, role.retire_count, role.value) == (
                geometry.initial_worker(node), 0, 0, None,
            )
            parent = geometry.parent(node)
            assert role.parent_worker == geometry.initial_worker(parent)
            if geometry.level_of(node) == geometry.depth:
                assert role.children == geometry.leaf_children(node)
            else:
                assert role.children == [
                    geometry.initial_worker(c) for c in geometry.children(node)
                ]

    def test_all_roles_is_level_order_whatever_was_built_first(self):
        registry = RoleRegistry(
            TreeGeometry.paper_shape(3), TreePolicy.paper_default(3)
        )
        registry.role(39)  # level 3, index 26: the last node
        registry.role(3)  # level 1, index 2
        assert [r.node for r in registry.all_roles()] == list(range(40))
        assert registry.root() is registry.role(0) is registry.all_roles()[0]
        for bad in (40, 41, -1):
            with pytest.raises(ConfigurationError, match="no inner node"):
                registry.role(bad)
        assert len(registry._roles) == registry.geometry.total_inner_nodes()


class TestNoAliasingAcrossTheBuildBoundary:
    """``commit_retirement`` refuses a successor that works for another
    inner node — whether or not anything has asked for that node yet."""

    def _registry(self):
        # 3^4 shape: node 1 (level 1, index 0) owns ids 1..9, node 2
        # (level 1, index 1) starts at 10, node 4 (level 2, index 0) at 28.
        return RoleRegistry(TreeGeometry.paper_shape(3), TreePolicy.paper_default(3))

    def test_successor_is_the_initial_worker_of_a_never_built_role(self):
        registry = self._registry()
        role = registry.role(1)
        for taken, owner in ((10, 2), (28, 4)):
            with pytest.raises(
                ProtocolError, match=re.escape(f"both node {owner} and")
            ):
                registry.commit_retirement(role, taken, op_index=0, time=0.0)
        assert 2 not in registry._roles  # the check built nothing
        assert role.retire_count == 0 and registry.retirements == []

    def test_successor_is_the_worker_of_a_built_role_that_has_not_retired(self):
        registry = self._registry()
        role, other = registry.role(1), registry.role(2)
        with pytest.raises(ProtocolError, match="interval discipline"):
            registry.commit_retirement(role, other.worker, op_index=0, time=0.0)

    def test_no_error_once_that_role_has_moved_on(self):
        registry = self._registry()
        role, other = registry.role(1), registry.role(2)
        registry.commit_retirement(other, 11, op_index=0, time=0.0)
        registry.commit_retirement(role, 10, op_index=1, time=0.0)
        assert (role.worker, other.worker) == (10, 11)
        # ... and the processor it moved *to* is now the protected one.
        with pytest.raises(ProtocolError, match="interval discipline"):
            registry.commit_retirement(role, 11, op_index=2, time=0.0)

    def test_own_ids_and_unowned_ids_pass(self):
        registry = self._registry()
        role = registry.role(1)
        registry.commit_retirement(role, 2, op_index=0, time=0.0)  # own interval
        registry.commit_retirement(role, 1, op_index=1, time=0.0)  # wrap to own start
        registry.commit_retirement(role, 11, op_index=2, time=0.0)  # nobody's start
        assert role.retire_count == 3
        # The root shares ids with inner nodes by design.
        registry.commit_retirement(registry.root(), 10, op_index=3, time=0.0)


class TestLazyRangeIsRegistered:
    def test_tree_ids_are_registered_before_any_worker_exists(self):
        network = Network()
        counter = TreeCounter(network, 81)
        requirement = counter.geometry.processor_requirement()
        assert network.materialised_ids() == []
        assert network.processor_count == requirement
        assert network.registered_ids() == list(range(1, requirement + 1))
        assert network.has_processor(requirement)
        assert not network.has_processor(requirement + 1)
        # The failure detector's hub id rule still lands past the tree.
        assert max(network.registered_ids()) + 1 == requirement + 1

    def test_send_past_the_range_is_unknown(self):
        network = Network()
        counter = TreeCounter(network, 81)
        requirement = counter.geometry.processor_requirement()
        with pytest.raises(UnknownProcessorError, match=str(requirement + 1)):
            network.send(1, requirement + 1, "inc", {})
        with pytest.raises(UnknownProcessorError):
            network.processor(requirement + 1)
        with pytest.raises(UnknownProcessorError):
            network.processor(0)
        # A send inside the range builds the receiver, not the sender.
        network.send(1, requirement, "value", {"value": 0})
        assert network.materialised_ids() == [requirement]

    def test_registering_inside_a_lazy_range_is_a_duplicate(self):
        network = Network()
        TreeCounter(network, 81)
        with pytest.raises(DuplicateProcessorError):
            network.register(InertProcessor(5))  # never materialised
        network.processor(6)
        with pytest.raises(DuplicateProcessorError):
            network.register(InertProcessor(6))  # materialised
        with pytest.raises(DuplicateProcessorError):
            TreeCounter(network, 8)  # overlapping lazy range
        with pytest.raises(DuplicateProcessorError):
            network.register_lazy(range(81, 200), InertProcessor)
        network.register(InertProcessor(500))
        with pytest.raises(DuplicateProcessorError):
            network.register_lazy(range(400, 600), InertProcessor)
        network.register_lazy(range(501, 600), InertProcessor)  # adjacent is fine
        assert network.processor_count == 81 + 1 + 99

    @pytest.mark.parametrize(
        "ids", [range(0, 4), range(1, 9, 2), range(5, 5), [1, 2, 3]]
    )
    def test_only_contiguous_positive_ranges(self, ids):
        with pytest.raises(ConfigurationError):
            Network().register_lazy(ids, InertProcessor)

    def test_factory_must_build_the_id_it_was_asked_for(self):
        network = Network()
        network.register_lazy(range(1, 4), lambda pid: InertProcessor(pid + 1))
        with pytest.raises(ConfigurationError, match="for id 2"):
            network.processor(2)

    def test_counts_follow_materialisation_and_replace(self):
        network = Network()
        network.register_lazy(range(1, 11), InertProcessor)
        network.processor(3)
        swapped = network.replace(InertProcessor(7))  # unmaterialised id
        assert network.processor(7) is swapped
        again = network.replace(InertProcessor(3))  # materialised id
        assert network.processor(3) is again
        assert network.processor_count == 10
        assert network.materialised_ids() == [3, 7]
        with pytest.raises(UnknownProcessorError):
            network.replace(InertProcessor(11))
        # Delivery goes to the replacement, in-flight messages included.
        network.send(7, 3, "m", {})
        recorder = network.replace(_Recorder(3))
        network.run_until_quiescent()
        assert recorder.received == ["m"]

    def test_transport_wraps_what_the_factory_builds(self):
        network = Network()
        transport = ReliableTransport(network)
        counter = TreeCounter(transport, 8)
        worker = counter.worker(3)
        assert type(worker) is TreeWorker and worker.network is transport
        assert transport.processor(3) is worker
        assert network.processor(3) is not worker  # the endpoint
        assert transport.materialised_ids() == [3]
        assert transport.processor_count == counter.geometry.processor_requirement()


class TestConstructionCount:
    def test_a_large_session_builds_what_its_run_touches(self):
        """A count, not a clock: n = 20 000 rounds up to the 6^7 shape
        with 279 936 ids; almost none exist before the run and the run
        builds at most one worker per client, per inner node and per
        retirement."""
        n = 20_000
        session = RunSession("ww-tree", n, trace_level="LOADS")
        network, counter = session.network, session.counter
        assert network.processor_count == 279_936
        assert len(network.materialised_ids()) < 279_936 // 100

        session.run_sequence()
        built = len(network.materialised_ids())
        inner_nodes = counter.geometry.total_inner_nodes()
        assert built <= n + inner_nodes + len(counter.retirements)
        assert built < 279_936 // 2
        assert network.processor_count == 279_936

    def test_a_large_session_holds_no_role_until_one_is_addressed(self):
        session = RunSession("ww-tree", 50_000, trace_level="LOADS")
        assert session.counter.registry._roles == {}
        assert session.counter.registry._inner_worker_index == {}
        assert session.counter.value == 0  # reading the value builds the root
        assert list(session.counter.registry._roles) == [0]

    def test_a_partly_filled_tree_builds_the_roles_its_processors_reach(self):
        """n = 50 of the 3^4 shape's 81 leaves: a role exists iff a
        processor that was built starts out working for it, and that
        covers every node on an initiator's path to the root."""
        n = 50
        session = RunSession("ww-tree", n, trace_level="LOADS")
        session.run_sequence()
        geometry = session.counter.geometry
        built = set(session.counter.registry._roles)
        on_paths = {a for pid in range(1, n + 1) for a in geometry.path_to_root(pid)}
        started_by_a_built_processor = {
            geometry.initially_worked_node(pid)
            for pid in session.network.materialised_ids()
        } - {None}
        assert built == started_by_a_built_processor | {0}
        assert on_paths <= built
        assert len(on_paths) == 1 + 2 + 6 + 17
        assert len(built) < geometry.total_inner_nodes() == 40

    def test_a_one_shot_leaves_one_sealed_footprint_per_operation(self):
        n = 15_625
        session = RunSession("ww-tree", n, trace_level="LOADS")
        session.run_sequence()
        trace = session.network.trace
        assert trace._footprints == {}
        widths = trace._sealed_width
        assert sum(1 for width in widths if width) == n
        # Sealed once each: the flat column holds no unread entries.
        assert len(trace._sealed) == sum(widths)
