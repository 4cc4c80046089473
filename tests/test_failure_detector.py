"""FailureDetector: heartbeat-driven eventually-perfect suspicion.

The detector learns about crashes only through silence on the wire —
these tests verify the suspicion lifecycle (suspect on silence, restore
on a late heartbeat), the bounded monitoring horizon (runs still
quiesce), determinism, and the first-class trace events.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.sim.failure_detector import HEARTBEAT_KIND, FailureDetector
from repro.sim.faults import CrashRule, FaultPlan
from repro.sim.network import Network
from repro.sim.processor import InertProcessor
from repro.sim.trace import TraceLevel

pytestmark = pytest.mark.recovery


def _network(plan=None, **kwargs):
    network = Network(fault_plan=plan, **kwargs)
    network.register_all([InertProcessor(pid) for pid in (1, 2, 3)])
    return network


class TestValidation:
    def test_requires_monitored_pids(self):
        with pytest.raises(ConfigurationError):
            FailureDetector(_network(), [])

    def test_period_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            FailureDetector(_network(), [1], period=0)

    def test_timeout_must_exceed_period(self):
        with pytest.raises(ConfigurationError):
            FailureDetector(_network(), [1], period=5.0, timeout=5.0)

    def test_horizon_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            FailureDetector(_network(), [1], horizon=0)

    def test_start_twice_raises(self):
        detector = FailureDetector(_network(), [1], horizon=10.0)
        detector.start()
        with pytest.raises(ConfigurationError):
            detector.start()


class TestLifecycle:
    def test_hub_registers_above_every_existing_processor(self):
        network = _network()
        detector = FailureDetector(network, [1, 2], horizon=10.0)
        assert detector.hub_pid is None
        detector.start()
        assert detector.hub_pid == 4
        assert network.has_processor(4)

    def test_no_crash_means_no_suspicion_and_the_run_quiesces(self):
        network = _network()
        detector = FailureDetector(
            network, [1, 2, 3], period=5.0, timeout=15.0, horizon=60.0
        )
        detector.start()
        network.run_until_quiescent()  # bounded horizon: terminates
        assert detector.suspected == frozenset()
        assert detector.events == []
        assert detector.suspicion_count() == 0
        assert network.now >= 60.0  # monitoring actually ran to the horizon

    def test_permanent_crash_is_suspected_and_stays_suspected(self):
        plan = FaultPlan([CrashRule(2, start=20.0)])
        network = _network(plan)
        detector = FailureDetector(
            network, [1, 2], period=5.0, timeout=15.0, horizon=100.0
        )
        seen = []
        detector.add_suspect_callback(lambda pid, time: seen.append((pid, time)))
        detector.start()
        network.run_until_quiescent()
        assert detector.is_suspected(2)
        assert not detector.is_suspected(1)
        assert seen and seen[0][0] == 2
        # Suspicion needs one timeout of silence past the last beat that
        # got through (~t20), plus the next tick to notice.
        assert seen[0][1] > 20.0 + detector.timeout - detector.period
        assert detector.suspicion_count() == 1

    def test_finite_crash_window_is_suspected_then_restored(self):
        plan = FaultPlan([CrashRule(2, start=20.0, end=60.0)])
        network = _network(plan)
        detector = FailureDetector(
            network, [1, 2], period=5.0, timeout=15.0, horizon=120.0
        )
        restored = []
        detector.add_restore_callback(lambda pid, time: restored.append((pid, time)))
        detector.start()
        network.run_until_quiescent()
        kinds = [event.kind for event in detector.events if event.sender == 2]
        assert kinds == ["suspect", "restore"]
        assert not detector.is_suspected(2)
        assert restored and restored[0][0] == 2
        assert restored[0][1] > 60.0  # only after the links healed

    def test_suspicions_are_first_class_trace_events(self):
        """The detector's ledger is a suspicion's one record: once there,
        and nowhere in the fault plan's ledger."""
        plan = FaultPlan([CrashRule(2, start=10.0)])
        network = _network(plan, trace_level=TraceLevel.FULL)
        detector = FailureDetector(
            network, [2], period=5.0, timeout=12.0, horizon=80.0
        )
        detector.start()
        network.run_until_quiescent()
        suspects = [
            record for record in detector.events if record.kind == "suspect"
        ]
        assert len(suspects) == 1
        assert suspects[0].sender == 2
        assert suspects[0].receiver == detector.hub_pid
        assert {record.kind for record in plan.events} == {"crash"}

    def test_detection_is_deterministic(self):
        def run():
            plan = FaultPlan([CrashRule(3, start=15.0, end=45.0)])
            network = _network(plan)
            detector = FailureDetector(
                network, [1, 2, 3], period=5.0, timeout=15.0, horizon=100.0
            )
            detector.start()
            network.run_until_quiescent()
            return [(e.time, e.kind, e.sender) for e in detector.events]

        assert run() == run()

    def test_heartbeats_ride_the_normal_wire(self):
        network = _network()
        detector = FailureDetector(network, [1], period=5.0, horizon=20.0)
        detector.start()
        network.run_until_quiescent()
        beats = [
            record
            for record in network.trace.records
            if record.kind == HEARTBEAT_KIND
        ]
        assert beats  # delivered like any protocol message
        assert all(record.receiver == detector.hub_pid for record in beats)
