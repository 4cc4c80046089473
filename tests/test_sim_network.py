"""Unit tests for the network simulator."""

from __future__ import annotations

import pytest

from repro.errors import (
    DuplicateProcessorError,
    SimulationError,
    SimulationLimitError,
    UnknownProcessorError,
)
from repro.sim.messages import NO_OP, Message
from repro.sim.network import Network
from repro.sim.policies import RandomDelay
from repro.sim.processor import InertProcessor, Processor


class Echo(Processor):
    """Replies once to every 'ping' with a 'pong'."""

    def on_message(self, message: Message) -> None:
        if message.kind == "ping":
            self.send(message.sender, "pong", {})


class Collector(Processor):
    """Remembers everything it receives."""

    def __init__(self, pid):
        super().__init__(pid)
        self.inbox: list[Message] = []

    def on_message(self, message: Message) -> None:
        self.inbox.append(message)


class Flooder(Processor):
    """Bounces a message back and forth forever (for the limit test)."""

    def on_message(self, message: Message) -> None:
        self.send(message.sender, "flood", {})


class TestRegistration:
    def test_register_and_lookup(self, network):
        processor = InertProcessor(1)
        network.register(processor)
        assert network.processor(1) is processor
        assert network.has_processor(1)
        assert network.processor_count == 1

    def test_duplicate_id_rejected(self, network):
        network.register(InertProcessor(1))
        with pytest.raises(DuplicateProcessorError):
            network.register(InertProcessor(1))

    def test_unknown_lookup_raises(self, network):
        with pytest.raises(UnknownProcessorError):
            network.processor(99)

    def test_register_all(self, network):
        network.register_all([InertProcessor(1), InertProcessor(2)])
        assert network.processor_count == 2

    def test_processor_requires_attachment(self):
        lonely = InertProcessor(1)
        with pytest.raises(SimulationError):
            lonely.network  # noqa: B018

    def test_reattach_to_other_network_rejected(self, network):
        processor = InertProcessor(1)
        network.register(processor)
        other = Network()
        with pytest.raises(SimulationError):
            other.register(processor)

    def test_nonpositive_pid_rejected(self):
        with pytest.raises(ValueError):
            InertProcessor(0)


class TestMessaging:
    def test_send_to_unknown_receiver_raises(self, network):
        network.register(InertProcessor(1))
        with pytest.raises(UnknownProcessorError):
            network.send(1, 2, "x", {})

    def test_message_delivered_and_traced(self, network):
        collector = Collector(2)
        network.register_all([InertProcessor(1), collector])
        network.send(1, 2, "hello", {"data": 7})
        network.run_until_quiescent()
        assert len(collector.inbox) == 1
        assert collector.inbox[0].payload == {"data": 7}
        assert network.trace.total_messages == 1
        assert network.trace.load(1) == 1
        assert network.trace.load(2) == 1

    def test_request_reply_round_trip(self, network):
        collector = Collector(1)
        network.register_all([collector, Echo(2)])
        network.send(1, 2, "ping", {})
        network.run_until_quiescent()
        assert [m.kind for m in collector.inbox] == ["pong"]
        assert network.trace.total_messages == 2

    def test_uids_unique_and_increasing(self, network):
        network.register_all([InertProcessor(1), InertProcessor(2)])
        uids = [network.send(1, 2, "x", {}).uid for _ in range(5)]
        assert uids == sorted(set(uids))

    def test_in_flight_tracking(self, network):
        network.register_all([InertProcessor(1), InertProcessor(2)])
        network.send(1, 2, "x", {})
        assert network.in_flight == 1
        network.run_until_quiescent()
        assert network.in_flight == 0


class TestOperationAttribution:
    def test_inject_sets_op_for_caused_messages(self, network):
        network.register_all([Echo(1), Echo(2)])
        network.inject(lambda: network.processor(1).send(2, "ping", {}), op_index=5)
        network.run_until_quiescent()
        assert all(r.op_index == 5 for r in network.trace.records)
        assert network.trace.footprint(5) == frozenset({1, 2})

    def test_messages_outside_ops_are_untracked(self, network):
        network.register_all([InertProcessor(1), InertProcessor(2)])
        network.send(1, 2, "x", {})
        network.run_until_quiescent()
        assert network.trace.op_indices() == []
        assert network.trace.records[0].op_index == NO_OP

    def test_interleaved_ops_attribute_causally(self, network):
        network.register_all([Echo(1), Echo(2), Echo(3), Echo(4)])
        network.inject(lambda: network.processor(1).send(2, "ping", {}), op_index=0)
        network.inject(lambda: network.processor(3).send(4, "ping", {}), op_index=1)
        network.run_until_quiescent()
        assert network.trace.footprint(0) == frozenset({1, 2})
        assert network.trace.footprint(1) == frozenset({3, 4})

    def test_active_op_restored_after_delivery(self, network):
        network.register_all([Echo(1), Echo(2)])
        network.inject(lambda: network.processor(1).send(2, "ping", {}), op_index=3)
        network.run_until_quiescent()
        assert network.active_op == NO_OP


class TestExecution:
    def test_quiescence_on_empty_network(self, network):
        assert network.is_quiescent()
        assert network.run_until_quiescent() == 0

    def test_event_limit_detects_livelock(self):
        network = Network(event_limit=100)
        network.register_all([Flooder(1), Flooder(2)])
        network.send(1, 2, "flood", {})
        with pytest.raises(SimulationLimitError):
            network.run_until_quiescent()

    def test_run_is_bounded_and_reports_how_many_ran(self, network):
        network.register_all([InertProcessor(1), InertProcessor(2)])
        for _ in range(5):
            network.send(1, 2, "x", {})
        assert network.run(2) == 2
        assert network.events_executed == 2
        assert network.step() is True  # the limit-1 call
        assert network.run(10) == 2  # fewer than asked: the queue emptied
        assert network.is_quiescent()
        assert network.run(10) == 0
        assert network.step() is False
        assert network.events_executed == 5

    def test_run_counts_against_the_event_limit(self):
        network = Network(event_limit=100)
        network.register_all([Flooder(1), Flooder(2)])
        network.send(1, 2, "flood", {})
        assert network.run(60) == 60
        with pytest.raises(SimulationLimitError):
            network.run(60)
        # stopped one event past the budget, not at the caller's limit
        assert network.events_executed == 101

    def test_events_executed_accumulates(self, network):
        network.register_all([InertProcessor(1), InertProcessor(2)])
        network.send(1, 2, "x", {})
        network.run_until_quiescent()
        network.send(2, 1, "y", {})
        network.run_until_quiescent()
        assert network.events_executed == 2

    def test_time_advances_with_delays(self):
        network = Network(policy=RandomDelay(seed=1, low=2.0, high=4.0))
        network.register_all([InertProcessor(1), InertProcessor(2)])
        network.send(1, 2, "x", {})
        network.run_until_quiescent()
        assert 2.0 <= network.now <= 4.0


class TestDeterminism:
    def _run(self, seed: int) -> list[tuple[int, int, str]]:
        network = Network(policy=RandomDelay(seed=seed))
        network.register_all([Echo(pid) for pid in range(1, 6)])
        for sender in range(1, 5):
            network.inject(
                lambda s=sender: network.processor(s).send(s + 1, "ping", {}),
                op_index=sender,
            )
        network.run_until_quiescent()
        return [(r.sender, r.receiver, r.kind) for r in network.trace.records]

    def test_same_seed_same_trace(self):
        assert self._run(11) == self._run(11)

    def test_different_seed_may_reorder(self):
        # Loads must match even when delivery order differs.
        def loads(seed):
            network = Network(policy=RandomDelay(seed=seed))
            network.register_all([Echo(pid) for pid in range(1, 6)])
            for sender in range(1, 5):
                network.inject(
                    lambda s=sender: network.processor(s).send(s + 1, "ping", {}),
                    op_index=sender,
                )
            network.run_until_quiescent()
            return network.trace.loads()

        assert loads(1) == loads(2)
