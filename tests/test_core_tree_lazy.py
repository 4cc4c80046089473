"""Tree workers on demand: building a processor late changes nothing.

A ww-tree session registers every id the tree may touch as one lazy
range and builds a worker the first time its id is addressed.  These
tests pin the three promises behind that: a run on a network where
every worker was built up front is indistinguishable from the lazy run;
the lazy table survives ``copy.deepcopy`` (the lower-bound adversary
and the explorer clone live networks); and an unmaterialised id is
registered in every observable sense.  The last class counts
constructions instead of timing them.
"""

from __future__ import annotations

import copy

import pytest

from repro.core import TreeCounter
from repro.core.tree.worker import TreeWorker
from repro.errors import (
    ConfigurationError,
    DuplicateProcessorError,
    UnknownProcessorError,
)
from repro.registry import RunSession
from repro.sim.network import Network
from repro.sim.processor import InertProcessor
from repro.sim.transport import ReliableTransport
from repro.workloads import one_shot


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
            geometry.initial_worker(role.addr): role.addr
            for role in counter.registry.all_roles()
            if not role.is_root
        }
        assert untouched & set(initial), "the run left no initial worker unbuilt"
        for pid in untouched:
            keys = counter.worker(pid).active_role_keys()
            addr = initial.get(pid)
            expected = [] if addr is None else [("node", addr.level, addr.index)]
            assert keys == expected


class TestDeepcopyMidRun:
    @pytest.mark.parametrize("reliable", [False, True])
    def test_clone_finishes_identically_and_owns_its_workers(self, reliable):
        n = 100  # rounded up to the 4^5 shape: most ids are never built
        if reliable:
            # Local actions (operation requests, retransmit timers) sit in
            # the event queue as closures, which deepcopy shares — so a
            # transport session is cloned between operations, half-way
            # through the sequence, and both copies run the second half.
            session = RunSession(
                "ww-tree", n, faults="drop=0.05", reliable=True,
                policy="random", seed=2,
            )
            session.run_sequence(one_shot(n)[: n // 2])
            rest = one_shot(n)[n // 2 :]
        else:
            # The bare network is cloneable with messages in flight.
            session = RunSession("ww-tree", n)
            for op_index, pid in enumerate(one_shot(n)):
                session.counter.begin_inc(pid, op_index)
            session.network.run(300)
            assert not session.network.is_quiescent()
            rest = []
        before = set(session.network.materialised_ids())
        assert 0 < len(before) < _requirement(session)

        clone = copy.deepcopy(session)
        for each in (session, clone):
            each.run_sequence(rest, check_values=False)
            each.network.run_until_quiescent()

        assert clone.network.trace.fingerprint() == session.network.trace.fingerprint()
        assert clone.counter.retirements == session.counter.retirements
        assert sorted(clone.counter.all_results()) == list(range(n))
        assert [clone.counter.results_for(p) for p in range(1, n + 1)] == [
            session.counter.results_for(p) for p in range(1, n + 1)
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
