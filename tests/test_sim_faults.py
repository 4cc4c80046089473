"""Fault-injection substrate: spec parsing, rule behavior, determinism.

The fault layer must be invisible when absent (the acceptance criterion
is a byte-identical clean send path), deterministic per seed when
present, and honest in its bookkeeping: every injected fault appears in
the plan's ledger, and — levels permitting — in the trace.
"""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigurationError, SimulationLimitError
from repro.sim.faults import (
    CrashRule,
    DropRule,
    DuplicateRule,
    FaultPlan,
    PartitionRule,
    ReorderRule,
    canonical_fault_spec,
    parse_fault_spec,
)
from repro.sim.messages import Message
from repro.sim.network import Network
from repro.sim.processor import InertProcessor, Processor
from repro.sim.trace import TraceLevel
from repro.errors import TraceCapabilityError

pytestmark = pytest.mark.faults


def _message(sender=1, receiver=2, op_index=0, uid=0):
    return Message(
        sender=sender, receiver=receiver, kind="m",
        op_index=op_index, uid=uid,
    )


class _Echo(Processor):
    """Replies to every ``ping`` with another ``ping`` (never quiesces)."""

    def on_message(self, message):
        self.send(message.sender, "ping", {})


def _blast(network: Network, messages: int = 200) -> None:
    """Send a deterministic burst between the registered processors."""
    count = network.processor_count
    for index in range(messages):
        network.send(
            (index % count) + 1, ((index + 1) % count) + 1, "m", {"i": index}
        )
    network.run_until_quiescent()


# ----------------------------------------------------------------------
# Spec strings
# ----------------------------------------------------------------------
class TestSpecParsing:
    def test_roundtrip_is_canonical(self):
        plan = parse_fault_spec("drop=0.05,dup=0.01,reorder=0.1")
        assert plan.spec == "drop=0.05,dup=0.01,reorder=0.1"
        assert canonical_fault_spec(plan.spec) == plan.spec

    def test_equivalent_spellings_share_a_canonical_form(self):
        a = canonical_fault_spec("dup=0.01,drop=0.05")
        b = canonical_fault_spec("drop=0.05,dup=0.01")
        assert a == b == "drop=0.05,dup=0.01"

    def test_crash_and_partition_windows(self):
        plan = parse_fault_spec("crash=3@t50-t80,partition=1..4|5..8@t10")
        assert plan.spec == "partition=1..4|5..8@t10,crash=3@t50-t80"
        crash = plan.rules[-1]
        assert isinstance(crash, CrashRule)
        assert (crash.pid, crash.start, crash.end) == (3, 50.0, 80.0)
        partition = plan.rules[0]
        assert isinstance(partition, PartitionRule)
        assert partition.group_a == frozenset({1, 2, 3, 4})
        assert partition.end == math.inf

    def test_explicit_id_lists(self):
        plan = parse_fault_spec("partition=1+5+9|2..3")
        rule = plan.rules[0]
        assert rule.group_a == frozenset({1, 5, 9})
        assert rule.group_b == frozenset({2, 3})

    def test_dup_copies_syntax(self):
        rule = parse_fault_spec("dup=0.2x3").rules[0]
        assert isinstance(rule, DuplicateRule)
        assert rule.copies == 3
        assert parse_fault_spec("dup=0.2x3").spec == "dup=0.2x3"

    def test_lossy_flag(self):
        assert parse_fault_spec("drop=0.01").lossy
        assert parse_fault_spec("crash=1@t0").lossy
        assert parse_fault_spec("partition=1|2").lossy
        assert not parse_fault_spec("dup=0.5,reorder=0.5").lossy
        assert not parse_fault_spec("drop=0").lossy

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "drop",
            "drop=",
            "drop=x",
            "drop=1.5",
            "drop=0.1,drop=0.2",
            "unknown=1",
            "crash=3",
            "crash=x@t5",
            "crash=3@t80-t50",
            "partition=1..4",
            "partition=1..4|3..8",
            "partition=|1",
            "dup=0.1x0",
            "dup=0.1xq",
            "reorder=0.1@0",
        ],
    )
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            parse_fault_spec(bad)

    def test_plan_rejects_non_rules(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(["drop"])  # type: ignore[list-item]


# ----------------------------------------------------------------------
# Rule behavior through a real network
# ----------------------------------------------------------------------
class TestInjection:
    def test_drop_loses_messages_but_never_blocks_quiescence(self):
        plan = parse_fault_spec("drop=0.3", seed=1)
        network = Network(fault_plan=plan)
        network.register_all([InertProcessor(pid) for pid in (1, 2)])
        _blast(network, 200)
        dropped = plan.counts["drop"]
        assert 0 < dropped < 200
        assert network.is_quiescent()
        assert network.in_flight == 0
        assert network.trace.total_messages == 200 - dropped

    def test_dropped_messages_add_no_load(self):
        plan = FaultPlan([DropRule(1.0)], seed=0)
        network = Network(fault_plan=plan)
        network.register_all([InertProcessor(pid) for pid in (1, 2)])
        _blast(network, 50)
        assert plan.counts == {"drop": 50}
        assert network.trace.loads() == {}
        assert network.trace.total_messages == 0

    def test_duplicates_deliver_extra_copies_sharing_the_uid(self):
        plan = FaultPlan([DuplicateRule(1.0, copies=2)], seed=3)
        network = Network(fault_plan=plan)
        network.register_all([InertProcessor(pid) for pid in (1, 2)])
        network.send(1, 2, "m", {})
        network.run_until_quiescent()
        records = network.trace.records
        assert len(records) == 3  # original + 2 copies
        assert len({record.uid for record in records}) == 1
        assert plan.counts == {"duplicate": 1}

    def test_partition_drops_only_the_cut_in_its_window(self):
        plan = FaultPlan([PartitionRule([1], [2], start=0.0, end=10.0)])
        network = Network(fault_plan=plan)
        network.register_all([InertProcessor(pid) for pid in (1, 2, 3)])
        network.send(1, 2, "m", {})   # crosses the cut: dropped
        network.send(1, 3, "m", {})   # endpoint outside both groups: passes
        network.send(2, 1, "m", {})   # crosses (symmetric): dropped
        network.run_until_quiescent()
        assert plan.counts == {"partition": 2}
        assert network.trace.total_messages == 1

    def test_crash_window_eats_sends_and_arrivals(self):
        plan = FaultPlan([CrashRule(2, start=5.0, end=100.0)])
        network = Network(fault_plan=plan)
        network.register_all([InertProcessor(pid) for pid in (1, 2)])
        network.send(1, 2, "m", {})  # sent at t=0, arrives t=1: delivered
        network.run_until_quiescent()
        network.inject(lambda: network.send(1, 2, "m", {}), delay=6.0)
        network.inject(lambda: network.send(2, 1, "m", {}), delay=7.0)
        network.run_until_quiescent()
        assert network.trace.total_messages == 1
        assert plan.counts == {"crash": 2}
        details = {record.detail for record in plan.events}
        assert details == {"receiver 2 down", "sender 2 down"}

    def test_reorder_boosts_delay(self):
        plan = FaultPlan([ReorderRule(1.0, max_boost=50.0)], seed=9)
        network = Network(fault_plan=plan)
        network.register_all([InertProcessor(pid) for pid in (1, 2)])
        network.send(1, 2, "m", {})
        network.run_until_quiescent()
        record = network.trace.records[0]
        assert record.deliver_time > 1.0  # unit delay plus a boost
        assert plan.counts == {"reorder": 1}


# ----------------------------------------------------------------------
# Determinism and the fork/reset lifecycle
# ----------------------------------------------------------------------
class TestDeterminism:
    SPEC = "drop=0.2,dup=0.1,reorder=0.2"

    def _run(self, plan):
        network = Network(fault_plan=plan)
        network.register_all([InertProcessor(pid) for pid in (1, 2, 3)])
        _blast(network, 300)
        return network.trace.loads(), plan.events

    def test_equal_seeds_give_equal_injections(self):
        loads_a, events_a = self._run(parse_fault_spec(self.SPEC, seed=7))
        loads_b, events_b = self._run(parse_fault_spec(self.SPEC, seed=7))
        assert loads_a == loads_b
        assert events_a == events_b

    def test_different_seeds_differ(self):
        _, events_a = self._run(parse_fault_spec(self.SPEC, seed=1))
        _, events_b = self._run(parse_fault_spec(self.SPEC, seed=2))
        assert events_a != events_b

    def test_equivalent_spellings_inject_identically(self):
        _, events_a = self._run(
            parse_fault_spec("reorder=0.2,dup=0.1,drop=0.2", seed=7)
        )
        _, events_b = self._run(parse_fault_spec(self.SPEC, seed=7))
        assert events_a == events_b

    def test_fork_is_independent_and_equivalently_seeded(self):
        parent = parse_fault_spec(self.SPEC, seed=5)
        _, parent_events = self._run(parent)
        fork = parent.fork()
        assert fork.spec == parent.spec
        assert fork.seed == parent.seed
        assert fork.events == []  # fresh ledger
        _, fork_events = self._run(fork)
        assert fork_events == parent_events  # replay from scratch
        assert parent.events == parent_events  # parent untouched by fork run

    def test_reset_replays_the_same_stream(self):
        plan = parse_fault_spec(self.SPEC, seed=5)
        _, first = self._run(plan)
        events_snapshot = list(first)
        plan.reset()
        assert plan.events == [] and plan.counts == {}
        network = Network(fault_plan=plan)
        network.register_all([InertProcessor(pid) for pid in (1, 2, 3)])
        _blast(network, 300)
        assert plan.events == events_snapshot


# ----------------------------------------------------------------------
# Zero overhead without a plan; the plan's ledger at every trace level
# ----------------------------------------------------------------------
class TestNetworkIntegration:
    def test_clean_network_keeps_the_class_level_send(self):
        network = Network()
        assert "send" not in network.__dict__
        assert type(network).send is Network.send

    def test_clean_runs_are_identical_with_the_fault_layer_present(self):
        def run(**kwargs):
            network = Network(**kwargs)
            network.register_all([InertProcessor(pid) for pid in (1, 2)])
            _blast(network, 100)
            return network.trace.records

        assert run() == run(fault_plan=None)

    def test_off_trace_keeps_only_the_plan_ledger(self):
        plan = parse_fault_spec("drop=0.5", seed=1)
        network = Network(trace_level=TraceLevel.OFF, fault_plan=plan)
        network.register_all([InertProcessor(pid) for pid in (1, 2)])
        _blast(network, 100)
        assert sum(plan.counts.values()) == len(plan.events) > 0
        with pytest.raises(TraceCapabilityError):
            network.trace.total_messages  # noqa: B018


# ----------------------------------------------------------------------
# SimulationLimitError enrichment
# ----------------------------------------------------------------------
class TestLimitError:
    def _livelock(self, **kwargs) -> SimulationLimitError:
        network = Network(event_limit=40, **kwargs)
        network.register_all([_Echo(1), _Echo(2)])
        network.send(1, 2, "ping", {})
        with pytest.raises(SimulationLimitError) as excinfo:
            network.run_until_quiescent()
        return excinfo.value

    def test_error_reports_events_in_flight_and_context(self):
        error = self._livelock()
        assert error.events_executed is not None
        assert error.events_executed > 40  # the over-budget event included
        assert error.in_flight is not None
        assert f"{error.events_executed} events executed" in str(error)
        assert "in flight" in str(error)

    def test_error_names_both_causes_with_the_budget(self):
        # A budget overrun is either a run longer than the budget or one
        # that never quiesces; the error cannot tell them apart.
        message = str(self._livelock())
        assert "longer than 40 events" in message
        assert "raise event_limit" in message
        assert "does not quiesce" in message

    def test_error_names_the_run_context(self):
        network = Network(event_limit=40)
        network.run_context = "ww-tree?interval_mode=wrap"
        network.register_all([_Echo(1), _Echo(2)])
        network.send(1, 2, "ping", {})
        with pytest.raises(SimulationLimitError) as excinfo:
            network.run_until_quiescent()
        assert excinfo.value.context == "ww-tree?interval_mode=wrap"
        assert "while running ww-tree?interval_mode=wrap" in str(excinfo.value)

    def test_error_names_the_fault_plan(self):
        error = self._livelock(fault_plan=parse_fault_spec("reorder=0.5"))
        assert "under fault plan 'reorder=0.5'" in str(error)
