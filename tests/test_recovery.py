"""Crash recovery: checkpoints, failover, and the recoverable counters.

Covers the RecoveryManager lifecycle (checkpoint store, recovery-point
scheduling, failover-latency measurement), the two crash-tolerant
counter variants — ``central[standby]`` and ``combining-tree[bypass]``
— under primary/host crashes, and the RunSession capability gate and
auto-assembly.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.analysis.linearizability import check_linearizable_counting
from repro.errors import CapabilityError, ConfigurationError
from repro.registry import RunSession, parse_spec
from repro.sim.faults import CrashRule, FaultPlan, FaultRecord, parse_fault_spec
from repro.sim.network import Network
from repro.sim.processor import InertProcessor
from repro.sim.recovery import Recoverable, RecoveryEvent, RecoveryManager

pytestmark = pytest.mark.recovery


class _StubCounter(Recoverable):
    """Minimal Recoverable for manager-level tests."""

    def __init__(self, pids=(1, 2)):
        self.pids = tuple(pids)
        self.suspected: list[int] = []
        self.restored: list[int] = []
        self.recovered: list[tuple[int, object]] = []

    def critical_pids(self):
        return self.pids

    def on_processor_suspected(self, pid, time):
        self.suspected.append(pid)

    def on_processor_restored(self, pid, time):
        self.restored.append(pid)

    def on_processor_recovered(self, pid, time, checkpoint):
        self.recovered.append((pid, checkpoint))


def _manager(plan, counter=None, **kwargs):
    network = Network(fault_plan=plan)
    network.register_all([InertProcessor(pid) for pid in (1, 2, 3)])
    counter = counter or _StubCounter()
    return network, counter, RecoveryManager(network, counter, plan, **kwargs)


class TestRecoveryManager:
    def test_rejects_non_recoverable_counters(self):
        plan = FaultPlan([CrashRule(1, start=5.0)])
        with pytest.raises(ConfigurationError):
            RecoveryManager(Network(fault_plan=plan), object(), plan)

    def test_derive_horizon_covers_crashes_and_recoveries(self):
        plan = parse_fault_spec("crash=1@t40-t80,recover=1@t90", seed=0)
        horizon = RecoveryManager.derive_horizon(plan, period=5.0, timeout=15.0)
        assert horizon == 90.0 + 15.0 + 10.0

    def test_checkpoints_are_deep_copied_both_ways(self):
        plan = FaultPlan([CrashRule(1, start=5.0)])
        _, _, manager = _manager(plan)
        state = {"values": [1, 2]}
        manager.save_checkpoint(1, state)
        state["values"].append(3)  # mutating the original must not leak in
        restored = manager.checkpoint_for(1)
        assert restored == {"values": [1, 2]}
        restored["values"].append(4)  # nor mutating the copy leak back
        assert manager.checkpoint_for(1) == {"values": [1, 2]}

    def test_checkpoint_for_unknown_pid_is_none(self):
        plan = FaultPlan([CrashRule(1, start=5.0)])
        _, _, manager = _manager(plan)
        assert manager.checkpoint_for(9) is None

    def test_recovery_point_redelivers_the_last_checkpoint(self):
        plan = parse_fault_spec("crash=2@t10,recover=2@t50", seed=0)
        network, counter, manager = _manager(plan)
        manager.start()
        manager.save_checkpoint(2, {"epoch": 7})
        network.run_until_quiescent()
        assert counter.recovered == [(2, {"epoch": 7})]
        assert manager.recovery_count() == 1
        kinds = [event.kind for event in manager.events]
        assert "recover" in kinds

    def test_failover_latency_is_measured_from_crash_start(self):
        plan = FaultPlan([CrashRule(2, start=20.0)])
        network, counter, manager = _manager(plan)
        manager.start()
        network.run_until_quiescent()
        assert counter.suspected == [2]
        # The counter would call note_failover from its suspect hook;
        # simulate the handoff at the current (post-run) time.
        manager.note_failover(2, 1)
        latency = manager.failover_latency()
        assert latency is not None and latency == network.now - 20.0
        assert manager.failover_count() == 1

    def test_start_twice_raises(self):
        plan = FaultPlan([CrashRule(1, start=5.0)])
        _, _, manager = _manager(plan)
        manager.start()
        with pytest.raises(ConfigurationError):
            manager.start()


class TestStandbyCentral:
    def test_needs_two_processors(self):
        with pytest.raises(ConfigurationError):
            parse_spec("central[standby]").build(Network(), 1)

    def test_clean_run_counts_exactly(self):
        session = RunSession("central[standby]", 8, policy="random", seed=1)
        ops = session.run_staggered(gap=3.0)
        assert sorted(op.value for op in ops) == list(range(8))
        assert check_linearizable_counting(ops).linearizable

    def test_primary_crash_fails_over_linearizably(self):
        session = RunSession(
            "central[standby]", 16, policy="random", seed=3,
            faults="crash=1@t18",
        )
        ops = session.run_staggered(gap=4.0)
        report = check_linearizable_counting(ops)
        assert report.linearizable
        manager = session.recovery
        assert manager is not None
        assert manager.failover_count() == 1
        assert manager.failover_latency() > 0
        counter = session.counter
        assert counter.current_primary == 2  # the standby took over

    def test_standby_crash_primary_goes_solo(self):
        session = RunSession(
            "central[standby]", 8, policy="random", seed=5,
            faults="crash=2@t15",
        )
        ops = session.run_staggered(gap=4.0)
        assert check_linearizable_counting(ops).linearizable
        counter = session.counter
        assert counter.current_primary == 1
        assert counter.current_standby is None

    def test_recovered_ex_primary_is_demoted_not_split_brained(self):
        # Primary 1 dies at t18, the standby promotes; 1's links heal at
        # t60 and its checkpoint is re-delivered at t70 — it must rejoin
        # as a client, never as a second primary.
        session = RunSession(
            "central[standby]", 16, policy="random", seed=3,
            faults="crash=1@t18-t60,recover=1@t70",
        )
        ops = session.run_staggered(gap=4.0)
        report = check_linearizable_counting(ops)
        assert report.linearizable  # uniqueness would fail on split-brain
        assert len(ops) == 16  # pid 1's own op completes after recovery
        counter = session.counter
        assert counter.current_primary == 2
        assert session.recovery.recovery_count() == 1

    def test_tunable_seats(self):
        session = RunSession(
            "central[standby]?primary_id=3&standby_id=4", 8,
            policy="random", seed=1, faults="crash=3@t15",
        )
        ops = session.run_staggered(gap=4.0)
        assert check_linearizable_counting(ops).linearizable
        assert session.counter.current_primary == 4


class TestBypassCombiningTree:
    def test_clean_sequential_run_counts_exactly(self):
        session = RunSession("combining-tree[bypass]", 8, policy="random", seed=1)
        result = session.run_sequence()
        assert sorted(result.values()) == list(range(8))

    def test_host_crash_burns_values_but_never_duplicates(self):
        session = RunSession(
            "combining-tree[bypass]", 16, policy="random", seed=3,
            faults="crash=3@t20",
        )
        ops = session.run_staggered(gap=4.0)
        values = [op.value for op in ops]
        assert len(set(values)) == len(values)  # at-most-once
        assert len(ops) == 15  # everyone but the dead client finishes
        counter = session.counter
        assert counter.burned_values >= 0
        assert check_linearizable_counting(ops).linearizable

    def test_root_host_crash_migrates_the_root_role(self):
        probe = RunSession("combining-tree[bypass]", 16).counter
        root_host = probe.root_host
        session = RunSession(
            "combining-tree[bypass]", 16, policy="random", seed=3,
            faults=f"crash={root_host}@t20",
        )
        ops = session.run_staggered(gap=4.0)
        values = [op.value for op in ops]
        assert len(set(values)) == len(values)
        assert len(ops) == 15
        assert session.recovery.failover_count() == 1
        assert session.counter.root_host != root_host

    def test_recovery_point_reintegrates_the_host(self):
        session = RunSession(
            "combining-tree[bypass]", 16, policy="random", seed=7,
            faults="crash=3@t20-t50,recover=3@t60",
        )
        ops = session.run_staggered(gap=4.0)
        values = [op.value for op in ops]
        assert len(ops) == 16  # the healed client's op completes too
        assert len(set(values)) == len(values)
        assert session.recovery.recovery_count() == 1


class TestSessionIntegration:
    def test_bare_central_refuses_permanent_crash_even_with_reliable(self):
        with pytest.raises(CapabilityError) as excinfo:
            RunSession(
                "central", 16, faults="crash=1@t18", reliable=True,
            )
        assert "tolerate crashes" in str(excinfo.value)

    def test_finite_crash_window_passes_with_reliable_transport(self):
        session = RunSession(
            "central", 16, policy="random", seed=3,
            faults="crash=2@t10-t40", reliable=True,
        )
        result = session.run_sequence()
        assert sorted(result.values()) == list(range(16))
        assert session.recovery is None  # central is not Recoverable

    def test_recovery_manager_is_auto_assembled(self):
        session = RunSession(
            "central[standby]", 8, faults="crash=1@t18",
        )
        assert session.recovery is not None
        assert session.failure_detector is not None
        assert session.failure_detector.monitored == (1, 2)
        assert session.capabilities.tolerates_crash

    def test_no_faults_means_no_recovery_manager(self):
        session = RunSession("central[standby]", 8)
        assert session.recovery is None
        assert session.failure_detector is None

    def test_capability_flags_include_crash_tolerant(self):
        spec = parse_spec("central[standby]").spec
        assert "crash-tolerant" in spec.capabilities.flags()
        bypass = parse_spec("combining-tree[bypass]").spec
        assert "crash-tolerant" in bypass.capabilities.flags()

    def test_recover_clause_requires_a_matching_crash(self):
        with pytest.raises(ConfigurationError):
            RunSession("central[standby]", 8, faults="recover=1@t50")

    @pytest.mark.parametrize(
        "spec", ("central[standby]", "combining-tree[bypass]")
    )
    def test_dead_initiator_may_go_unanswered_in_every_regime(self, spec):
        # one rule, read by the sequential and the staggered driver alike
        plan = parse_fault_spec("crash=3@t5")
        assert plan.unanswerable_pids == frozenset({3})
        sequential = RunSession(spec, 8, faults="crash=3@t5").run_sequence()
        assert [o.initiator for o in sequential.outcomes] == [
            1, 2, 4, 5, 6, 7, 8,
        ]
        values = sequential.values()
        assert all(a < b for a, b in zip(values, values[1:]))
        staggered = RunSession(spec, 8, faults="crash=3@t5").run_staggered()
        assert 3 not in {op.initiator for op in staggered}

    def test_unanswerable_rule_does_not_replace_the_capability_gate(self):
        with pytest.raises(CapabilityError, match="tolerate crashes"):
            RunSession("central", 8, faults="crash=3@t5")
        with pytest.raises(CapabilityError, match="tolerate crashes"):
            RunSession("combining-tree", 8, faults="crash=3@t5")

    def test_unanswerable_pids_unions_crashed_and_byzantine(self):
        plan = parse_fault_spec("crash=3@t5,crash=4@t5-t9,byz=1@silence")
        plan.bind_clients(8)
        assert plan.unanswerable_pids == (
            plan.permanent_crash_pids | plan.byzantine_pids
        )
        assert plan.permanent_crash_pids == frozenset({3})
        assert len(plan.byzantine_pids) == 1


def _tallied(calls, kind, method=None):
    """A callable that counts its calls under *kind* in *calls*, then
    forwards them to *method* if there is one."""

    def call(*args):
        calls[kind] += 1
        return method(*args) if method is not None else None

    return call


class TestOneRecordPerEvent:
    """Each run event is logged once, by the component that made it:
    wire faults by the plan, suspicions and restores by the detector,
    recoveries, failovers and checkpoints by the recovery manager."""

    WIRE = {"drop", "duplicate", "reorder", "partition", "crash"}

    def test_a_crash_run_logs_each_event_in_exactly_one_ledger(self):
        session = RunSession(
            "central[standby]", 8, policy="random", seed=3,
            faults="drop=0.05,crash=1@t20-t60,recover=1@t60",
            trace_level="FULL",
        )
        manager = session.recovery
        detector = manager.detector
        calls = Counter()
        detector.add_suspect_callback(_tallied(calls, "suspect"))
        detector.add_restore_callback(_tallied(calls, "restore"))
        manager.note_failover = _tallied(
            calls, "failover", manager.note_failover
        )
        manager.save_checkpoint = _tallied(
            calls, "checkpoint", manager.save_checkpoint
        )
        session.run_staggered()

        plan_kinds = [record.kind for record in session.fault_plan.events]
        detector_kinds = [record.kind for record in detector.events]
        manager_kinds = [event.kind for event in manager.events]
        assert set(plan_kinds) == {"drop", "crash"} <= self.WIRE
        assert len({(r.uid, r.kind) for r in session.fault_plan.events}) == (
            len(plan_kinds)
        )
        assert detector_kinds.count("suspect") == calls["suspect"] == 1
        assert detector_kinds.count("restore") == calls["restore"] == 1
        assert set(detector_kinds) == {"suspect", "restore"}
        assert manager_kinds.count("failover") == calls["failover"] == 1
        assert manager_kinds.count("checkpoint") == calls["checkpoint"] > 0
        assert manager_kinds.count("recover") == len(session.fault_plan.recoveries)
        assert set(manager_kinds) == {"recover", "failover", "checkpoint"}
        # The delivery trace keeps deliveries, nothing else.
        assert not [name for name in dir(session.network.trace) if "fault" in name]

    def test_failover_count_counts_failovers_a_false_suspicion_caused(self):
        # Heavy loss makes the detector suspect the primary long before
        # its crash window: every handoff here has no crash-start to be
        # timed from, and each still counts.
        session = RunSession(
            "central[standby]", 8, policy="random", seed=1,
            faults="drop=0.35,crash=5@t200-t210,recover=5@t210",
        )
        session.run_staggered()
        manager = session.recovery
        failovers = [e for e in manager.events if e.kind == "failover"]
        assert len(failovers) == 3
        assert manager.failover_count() == 3
        assert manager.failover_latency() is None

    def _crash_run(self):
        session = RunSession(
            "central[standby]", 8, policy="random", seed=3,
            faults="drop=0.05,crash=1@t20-t60,recover=1@t60",
            trace_level="FULL",
        )
        session.run_staggered()
        return session.recovery

    def test_the_crash_run_keeps_the_same_records(self):
        manager = self._crash_run()
        assert list(manager.detector.events) == [
            FaultRecord(40.0, "suspect", 1, 9, -1, -1, "silence > 15"),
            FaultRecord(66.10287548287968, "restore", 1, 9, -1, -1, ""),
        ]
        checkpoints = [
            (4.014574082206753, 1), (9.237240366663848, 1),
            (11.963863136116073, 1), (13.930856028223477, 1),
            (14.45595627991637, 1), (19.108298663156475, 1),
        ]
        assert list(manager.events) == [
            *(RecoveryEvent(time, "checkpoint", pid) for time, pid in checkpoints),
            RecoveryEvent(40.0, "failover", 1, "role moved to 2"),
            RecoveryEvent(43.8492332732114, "checkpoint", 2),
            RecoveryEvent(47.05039203321689, "checkpoint", 2),
            RecoveryEvent(60.0, "recover", 1, "from checkpoint"),
        ]

    def test_the_ledgers_cannot_be_changed_from_outside(self):
        manager = self._crash_run()
        detector = manager.detector
        counts = (
            manager.suspicion_count(), manager.failover_count(),
            manager.recovery_count(),
        )
        assert counts == (1, 1, 1)
        for ledger, record in (
            (detector.events, detector.events[0]),
            (manager.events, manager.events[-1]),
        ):
            size = len(ledger)
            with pytest.raises(AttributeError):
                ledger.append(record)
            with pytest.raises(TypeError):
                ledger[0] = record
            with pytest.raises(TypeError):
                del ledger[0]
            assert len(ledger) == size
        assert counts == (
            manager.suspicion_count(), manager.failover_count(),
            manager.recovery_count(),
        )
