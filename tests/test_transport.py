"""ReliableTransport: exactly-once delivery over a faulty wire.

The headline contract: *unmodified* counters complete `one_shot(n)` with
correct values over a lossy network, deterministically per seed, with
zero spurious retransmissions when the network is clean.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    CapabilityError,
    ConfigurationError,
    DeliveryAbandonedError,
    SimulationLimitError,
    UnknownProcessorError,
)
from repro.registry import RunSession, registered_specs
from repro.sim.faults import FaultPlan, CrashRule, DuplicateRule, parse_fault_spec
from repro.sim.network import Network
from repro.sim.policies import RandomDelay
from repro.sim.processor import Processor
from repro.sim.trace import TraceLevel
from repro.sim.transport import ACK_KIND, DATA_KIND, ReliableTransport

pytestmark = pytest.mark.faults


class _Recorder(Processor):
    """Protocol processor that logs every delivered message."""

    def __init__(self, pid):
        super().__init__(pid)
        self.received = []

    def on_message(self, message):
        self.received.append((message.sender, message.kind, dict(message.payload)))


def _pair(fault_plan=None, **transport_kwargs):
    network = Network(fault_plan=fault_plan)
    transport = ReliableTransport(network, **transport_kwargs)
    a, b = _Recorder(1), _Recorder(2)
    transport.register_all([a, b])
    return transport, a, b


class TestEndpointMechanics:
    def test_clean_delivery_is_exactly_once_with_zero_retransmits(self):
        transport, _, b = _pair()
        for index in range(20):
            transport.send(1, 2, "m", {"i": index})
        transport.run_until_quiescent()
        assert [payload["i"] for _, _, payload in b.received] == list(range(20))
        stats = transport.stats()
        assert stats["data_sent"] == stats["delivered"] == 20
        assert stats["retransmissions"] == 0
        assert stats["duplicates_suppressed"] == 0
        assert transport.overhead_ratio() == 1.0

    def test_unknown_sender_rejected(self):
        transport, _, _ = _pair()
        with pytest.raises(UnknownProcessorError):
            transport.send(9, 1, "m", {})

    def test_retransmits_through_total_loss_window(self):
        # Receiver 2 is down until t=60; the first attempts die on the
        # wire and the backoff retries land after recovery.
        plan = FaultPlan([CrashRule(2, start=0.0, end=60.0)])
        transport, _, b = _pair(fault_plan=plan, rto=25.0)
        transport.send(1, 2, "m", {"x": 1})
        transport.run_until_quiescent()
        assert b.received == [(1, "m", {"x": 1})]
        stats = transport.stats()
        assert stats["retransmissions"] >= 1
        assert stats["delivered"] == 1
        assert stats["gave_up"] == 0

    def test_injected_duplicates_are_suppressed(self):
        plan = FaultPlan([DuplicateRule(1.0, copies=2)], seed=1)
        transport, _, b = _pair(fault_plan=plan)
        for index in range(10):
            transport.send(1, 2, "m", {"i": index})
        transport.run_until_quiescent()
        # Every data envelope (and every ack) was tripled on the wire,
        # yet the protocol saw each logical message exactly once.
        assert [payload["i"] for _, _, payload in b.received] == list(range(10))
        assert transport.stats()["duplicates_suppressed"] == 20
        assert transport.stats()["delivered"] == 10

    def test_gave_up_after_max_retries_against_a_dead_peer(self):
        plan = FaultPlan([CrashRule(2, start=0.0)])  # never recovers
        transport, _, b = _pair(fault_plan=plan, rto=5.0, max_retries=3)
        transport.send(1, 2, "m", {})
        transport.run_until_quiescent()  # quiesces: the give-up timer fires
        stats = transport.stats()
        assert stats["gave_up"] == 1
        assert stats["retransmissions"] == 3
        assert stats["delivered"] == 0
        assert b.received == []

    def test_dead_peer_without_retry_cap_abandons_delivery(self):
        # Uncapped retries used to spin until the event budget blew up
        # with an unhelpful SimulationLimitError; now the attempt cap
        # raises a typed error naming the dead destination.
        plan = FaultPlan([CrashRule(2, start=0.0)])
        network = Network(fault_plan=plan)
        transport = ReliableTransport(network, rto=1.0, rto_cap=2.0)
        transport.register_all([_Recorder(1), _Recorder(2)])
        transport.send(1, 2, "m", {})
        with pytest.raises(DeliveryAbandonedError) as excinfo:
            transport.run_until_quiescent()
        assert excinfo.value.receiver == 2
        assert excinfo.value.attempts == 25
        assert transport.stats()["gave_up"] == 1

    def test_attempt_cap_is_tunable_and_validated(self):
        plan = FaultPlan([CrashRule(2, start=0.0)])
        network = Network(fault_plan=plan)
        transport = ReliableTransport(network, rto=1.0, rto_cap=2.0, attempt_cap=3)
        transport.register_all([_Recorder(1), _Recorder(2)])
        transport.send(1, 2, "m", {})
        with pytest.raises(DeliveryAbandonedError) as excinfo:
            transport.run_until_quiescent()
        assert excinfo.value.attempts == 3
        with pytest.raises(ConfigurationError):
            ReliableTransport(Network(), attempt_cap=0)

    def test_max_retries_still_gives_up_silently(self):
        # Explicit max_retries keeps best-effort semantics: no raise.
        plan = FaultPlan([CrashRule(2, start=0.0)])
        network = Network(fault_plan=plan)
        transport = ReliableTransport(network, rto=1.0, max_retries=2)
        transport.register_all([_Recorder(1), _Recorder(2)])
        transport.send(1, 2, "m", {})
        transport.run_until_quiescent()
        assert transport.stats()["gave_up"] == 1

    def test_give_up_leaves_a_gap_that_later_traffic_survives(self):
        # The limit of the silent budget: seq 0 dies inside the crash
        # window and is given up on, so the receiver's watermark can
        # never pass it.  Everything after is still exactly-once, held
        # in the out-of-order set until a straggler closes the gap.
        plan = FaultPlan(
            [CrashRule(2, start=0.0, end=12.0), DuplicateRule(1.0, copies=1)],
            seed=1,
        )
        transport, _, b = _pair(fault_plan=plan, rto=5.0, max_retries=1)
        transport.send(1, 2, "m", {"i": 0})
        transport.run_until_quiescent()
        assert transport.stats()["gave_up"] == 1
        assert b.received == []
        assert transport.held() == {"channels": 0, "pending": 0, "out_of_order": 0}

        for index in range(1, 51):
            transport.send(1, 2, "m", {"i": index})
        transport.run_until_quiescent()
        assert [payload["i"] for _, _, payload in b.received] == list(range(1, 51))
        assert transport.stats()["duplicates_suppressed"] == 50  # one copy each
        assert transport.held() == {"channels": 0, "pending": 0, "out_of_order": 50}

        # A copy of seq 0 that was still on the wire when the sender gave
        # up: delivered once, and the window slides over all it held.
        transport.network.send(
            1, 2, DATA_KIND, {"seq": 0, "kind": "m", "data": {"i": 0}}
        )
        transport.run_until_quiescent()
        assert [payload["i"] for _, _, payload in b.received][-1] == 0
        assert len(b.received) == 51
        stats = transport.stats()
        assert stats["delivered"] == 51
        assert stats["duplicates_suppressed"] == 51
        assert transport.held() == {"channels": 1, "pending": 0, "out_of_order": 0}
        assert transport._ahead == {}

    def test_trace_separates_goodput_from_overhead_by_kind(self):
        plan = parse_fault_spec("drop=0.3", seed=4)
        network = Network(fault_plan=plan, trace_level=TraceLevel.FULL)
        transport = ReliableTransport(network)
        transport.register_all([_Recorder(1), _Recorder(2)])
        for index in range(30):
            transport.send(1, 2, "m", {"i": index})
        transport.run_until_quiescent()
        kinds = {record.kind for record in network.trace.records}
        assert kinds == {DATA_KIND, ACK_KIND}
        data_deliveries = sum(
            1 for r in network.trace.records if r.kind == DATA_KIND
        )
        stats = transport.stats()
        assert data_deliveries == stats["delivered"] + stats["duplicates_suppressed"]

    def test_constructor_validation(self):
        network = Network()
        with pytest.raises(ConfigurationError):
            ReliableTransport(network, rto=0)
        with pytest.raises(ConfigurationError):
            ReliableTransport(network, rto=10, rto_cap=5)
        with pytest.raises(ConfigurationError):
            ReliableTransport(network, max_retries=0)

    def test_network_facade_forwards_introspection(self):
        transport, a, _ = _pair()
        assert transport.processor(1) is a  # unwrapped protocol processor
        assert transport.has_processor(2)
        assert transport.now == 0.0
        assert transport.is_quiescent()
        assert transport.processor_count == 2
        assert transport.trace is transport.network.trace


class TestCountersOverLossyLinks:
    N = 16
    FAULTS = "drop=0.05,dup=0.02"

    @pytest.mark.parametrize(
        "spec_name",
        [spec.name for spec in registered_specs()],
    )
    def test_every_registered_counter_completes_unmodified(self, spec_name):
        from repro.registry import get_spec

        spec = get_spec(spec_name)
        violation = spec.supports_n(self.N)
        if violation is not None:
            pytest.skip(f"{spec_name}: {violation}")
        session = RunSession(
            spec_name,
            self.N,
            policy="random",
            seed=11,
            faults=self.FAULTS,
            reliable=True,
        )
        # combining-tree[bypass] included: its own end-to-end retries
        # double up with the transport's retransmissions, but a retry
        # never takes a second value, so the values stay dense.
        result = session.run_sequence()  # check_values raises on any error
        assert sorted(result.values()) == list(range(self.N))
        assert session.transport_stats()["gave_up"] == 0

    def test_lossy_runs_are_deterministic_per_seed(self):
        def run(seed):
            session = RunSession(
                "ww-tree", 27, policy="random", seed=seed,
                faults="drop=0.1", reliable=True,
            )
            session.run_sequence()
            return (
                session.transport_stats(),
                session.network.trace.loads(),
                session.fault_plan.counts,
            )

        assert run(3) == run(3)
        assert run(3) != run(4)

    def test_clean_transport_run_has_zero_retransmissions(self):
        session = RunSession(
            "ww-tree", 27, policy="random", seed=3, reliable=True
        )
        session.run_sequence()
        stats = session.transport_stats()
        assert stats["retransmissions"] == 0
        assert stats["duplicates_suppressed"] == 0


class TestCapabilityGate:
    def test_lossy_plan_on_bare_counter_fails_fast(self):
        with pytest.raises(CapabilityError, match="does not tolerate"):
            RunSession("central", 8, faults="drop=0.05")

    def test_partition_and_crash_also_count_as_lossy(self):
        with pytest.raises(CapabilityError):
            RunSession("central", 8, faults="crash=2@t10")
        with pytest.raises(CapabilityError):
            RunSession("central", 8, faults="partition=1..4|5..8")

    def test_non_lossy_plan_is_allowed_bare(self):
        session = RunSession(
            "central", 8, policy="random", seed=1, faults="reorder=0.5"
        )
        result = session.run_sequence()
        assert sorted(result.values()) == list(range(8))
        assert not session.capabilities.tolerates_message_loss

    def test_reliable_session_reports_loss_tolerance(self):
        session = RunSession("central", 8, reliable=True)
        assert session.capabilities.tolerates_message_loss
        assert "loss-tolerant" in session.capabilities.flags()
        # The spec's own record is untouched — tolerance is the
        # transport's property, not the protocol's.
        assert not session.ref.capabilities.tolerates_message_loss

    def test_prebuilt_plan_and_empty_spec_accepted(self):
        plan = parse_fault_spec("drop=0.2", seed=9)
        session = RunSession("central", 8, faults=plan, reliable=True)
        assert session.fault_plan is plan
        bare = RunSession("central", 8, faults="  ")
        assert bare.fault_plan is None
