"""Edge-case tests for the tree worker: forwarding, deferral, errors.

These drive the 'handshaking' machinery directly — the part of §4 the
paper waves off and this implementation realizes — plus the protocol
error paths that keep bugs loud.
"""

from __future__ import annotations

import pytest

from repro.core import TreeCounter, TreeGeometry, TreePolicy
from repro.core.tree.protocol import KIND_HANDOFF, KIND_ID_UPDATE, KIND_INC
from repro.errors import ProtocolError
from repro.sim.messages import Message
from repro.sim.network import Network
from repro.sim.policies import SkewedDelay
from repro.workloads import one_shot, run_sequence, shuffled

from conftest import observed, values


def _fresh(n=8, policy=None):
    network = Network()
    counter = TreeCounter(network, n, policy=policy)
    return network, counter


class TestDispatchErrors:
    def test_unknown_kind_for_node_role_raises(self):
        network, counter = _fresh()
        worker = counter.worker(1)  # plays the root and node 1
        bogus = Message(
            sender=2, receiver=1, kind="bogus",
            payload={"role": ("node", 1, 0)},
        )
        with pytest.raises(ProtocolError, match="bogus"):
            worker.on_message(bogus)

    def test_leaf_cannot_handle_inc(self):
        network, counter = _fresh()
        worker = counter.worker(3)
        bogus = Message(
            sender=2, receiver=3, kind=KIND_INC,
            payload={"role": ("leaf", 3), "origin": 2},
        )
        with pytest.raises(ProtocolError, match="leaf"):
            worker.on_message(bogus)

    def test_id_update_for_non_neighbour_raises(self):
        network, counter = _fresh()
        worker = counter.worker(1)
        bogus = Message(
            sender=2, receiver=1, kind=KIND_ID_UPDATE,
            payload={
                "role": ("node", 1, 0),
                "node": ("node", 2, 3),  # not adjacent to ("node", 1, 0)
                "new_worker": 5,
            },
        )
        with pytest.raises(ProtocolError, match="non-neighbour"):
            worker.on_message(bogus)

    def test_id_update_naming_a_leaf_child_raises(self):
        # A leaf is worked by its own processor for good: an id-update
        # moving one is a protocol error, not a belief to record (the
        # next retirement would send that leaf's update to processor 42
        # and overwrite 42's own leaf-parent belief).
        network, counter = _fresh()
        bottom = counter.geometry.leaf_parent(1)
        worker = counter.worker(counter.registry.role(bottom).worker)
        bogus = Message(
            sender=2, receiver=worker.pid, kind=KIND_ID_UPDATE,
            payload={
                "role": counter.geometry.encode(bottom),
                "node": ("leaf", 1),
                "new_worker": 42,
            },
        )
        with pytest.raises(ProtocolError, match="leaf"):
            worker.on_message(bogus)
        assert counter.registry.role(bottom).children == range(1, 3)

    def test_request_inc_requires_leaf_parent(self):
        # Only leaves have a leaf parent; a replacement id past the
        # leaves may hold a worker but has no belief to send a request along.
        network, counter = _fresh()
        pid = counter.geometry.leaf_count + 1
        assert counter.leaves.parent_worker(pid) is None
        with pytest.raises(ProtocolError, match="leaf parent"):
            counter.leaves.request_inc(pid)


class TestForwarding:
    def test_forward_pointer_set_after_retirement(self):
        network, counter = _fresh(81)
        run_sequence(counter, one_shot(81))
        # Every retirement leaves a forwarding pointer at the old worker.
        for event in counter.retirements:
            old = counter.worker(event.old_worker)
            if event.node in old.held_nodes():
                continue  # role wrapped back (not in strict mode)
            assert old.forward_target(event.node) is not None

    def test_stale_message_is_forwarded_to_successor(self):
        network, counter = _fresh(81)
        run_sequence(counter, one_shot(81))
        event = counter.retirements[0]
        old_worker = counter.worker(event.old_worker)
        # Send an inc for the retired role to the OLD worker; expect it
        # to arrive at the current worker and be answered.
        received = observed(counter)
        stale = Message(
            sender=1, receiver=event.old_worker, kind=KIND_INC,
            payload={"role": counter.geometry.encode(event.node), "origin": 1},
        )
        forwarded_before = counter.total_forwarded()
        network.inject(lambda: old_worker.on_message(stale), op_index=999)
        network.run_until_quiescent()
        # The old worker re-sent it once, to its successor; the counter's
        # total also holds what the extra inc's climb forwarded after it.
        resent = [
            (record.receiver, record.kind)
            for record in network.trace.records_for_op(999)
            if record.sender == event.old_worker
        ]
        assert resent == [(event.new_worker, KIND_INC)]
        assert counter.total_forwarded() > forwarded_before
        assert len(values(received, 1)) == 1

    def test_no_pointer_and_no_role_defers(self):
        network, counter = _fresh()
        # Processor 5 never plays node 2 (its initial worker is elsewhere)
        worker = counter.worker(5)
        assert 2 not in worker.held_nodes()
        orphan = Message(
            sender=1, receiver=5, kind=KIND_INC,
            payload={"role": ("node", 1, 1), "origin": 1},
        )
        worker.on_message(orphan)
        assert counter.total_deferred() == 1
        assert counter._pending[(5, 2)] == [orphan]


class TestHandoffEdges:
    def test_stale_handoff_is_ignored(self):
        network, counter = _fresh()
        # Craft a handoff for a role whose registry worker is NOT the
        # receiver: must be swallowed without state change.
        role = counter.registry.role(1)
        receiver = counter.worker(5)
        assert role.worker != 5
        stale = Message(
            sender=1, receiver=5, kind=KIND_HANDOFF,
            payload={"role": ("node", 1, 0), "seq": 0, "total": 4},
        )
        receiver.on_message(stale)
        assert 1 not in receiver.held_nodes()

    def test_deferred_messages_replay_after_activation(self):
        # Under heavily skewed delays some message must overtake its
        # hand-off at least occasionally across several orders; deferral
        # plus replay keeps every run correct either way.
        for seed in range(3):
            network = Network(policy=SkewedDelay(slow=40.0))
            counter = TreeCounter(network, 81)
            result = run_sequence(counter, shuffled(81, seed=seed))
            assert result.values() == list(range(81))

    def test_handoff_age_policy_counts_when_enabled(self):
        from repro.core import IntervalMode

        geometry = TreeGeometry.paper_shape(3)
        # Aging on hand-offs inflates retirement counts beyond the
        # one-shot interval budgets, so wrap mode is required.
        policy = TreePolicy(
            retire_threshold=12,
            count_handoff_in_age=True,
            interval_mode=IntervalMode.WRAP,
        )
        network = Network()
        counter = TreeCounter(network, 81, geometry=geometry, policy=policy)
        result = run_sequence(counter, one_shot(81))
        assert result.values() == list(range(81))
        # Counting hand-offs ages workers faster: at least as many
        # retirements as the default configuration.
        default_network = Network()
        default_counter = TreeCounter(default_network, 81)
        run_sequence(default_counter, one_shot(81))
        assert len(counter.retirements) >= len(default_counter.retirements)


class TestMultiRoleDispatch:
    def test_processor_one_plays_root_and_inner_simultaneously(self):
        network, counter = _fresh()
        worker = counter.worker(1)
        assert worker.held_nodes() == [0, 1]
        # An inc addressed to the root role on processor 1 is answered
        # even though processor 1 also plays node 1.
        received = observed(counter)
        counter.begin_inc(2, 0)
        network.run_until_quiescent()
        assert values(received, 2) == [0]

    def test_roles_keep_distinct_ages(self):
        network, counter = _fresh(81)
        run_sequence(counter, one_shot(10))
        ages = {role.node: role.age for role in counter.registry.all_roles()}
        assert len(set(ages.values())) > 1  # not all in lockstep
