"""Tiered tracing: FULL, LOADS and OFF agree where they overlap.

The trace level only changes what the simulator *remembers*, never what
it *does*: the same seed must drive the same execution at every level,
the load counters kept by ``LOADS`` must equal the ones derived from
``FULL`` records, and queries a level cannot answer must fail loudly
with :class:`~repro.errors.TraceCapabilityError` rather than return
wrong data.
"""

from __future__ import annotations

import pytest

from repro.counters import CentralCounter
from repro.core import TreeCounter
from repro.errors import TraceCapabilityError
from repro.registry import RunSession
from repro.sim.messages import NO_OP, Message
from repro.sim.network import Network
from repro.sim.policies import RandomDelay
from repro.sim.processor import Processor
from repro.sim.trace import Trace, TraceLevel
from repro.workloads import one_shot, run_sequence


class Echo(Processor):
    def on_message(self, message: Message) -> None:
        if message.kind == "ping":
            self.send(message.sender, "pong", {})


def _run_tree(level: TraceLevel, seed: int = 7, n: int = 81) -> Network:
    network = Network(policy=RandomDelay(seed=seed), trace_level=level)
    counter = TreeCounter(network, n)
    run_sequence(counter, one_shot(n))
    return network


class _LastReady:
    """Scheduler hook that runs the most recently scheduled ready item."""

    def __init__(self) -> None:
        self.calls = 0

    def choose(self, ready: list) -> int:
        self.calls += 1
        return len(ready) - 1


def _hooked_tree(level: TraceLevel) -> RunSession:
    session = RunSession("ww-tree", 27, trace_level=level)
    session.network.install_scheduler_hook(_LastReady())
    return session


def _ledgers(session: RunSession) -> tuple:
    """What the fault plan, the failure detector and the recovery
    manager logged: their own records, not the trace's."""
    plan, recovery = session.fault_plan, session.recovery
    return (
        plan and list(plan.events),
        recovery and (list(recovery.detector.events), list(recovery.events)),
    )


# Traffic on which the levels' shares of the one delivery loop differ
# or the send path branches: untracked (NO_OP) heartbeats, fault-plan
# copies and drops behind the retransmitting transport, and hook-chosen
# delivery order.
_SETUPS = {
    "standby-crash": lambda level: RunSession(
        "central[standby]", 8, faults="crash=3@t5", trace_level=level
    ),
    "lossy-reliable": lambda level: RunSession(
        "ww-tree", 81, policy="random", seed=5, faults="drop=0.1,dup=0.1",
        reliable=True, trace_level=level,
    ),
    "hooked": _hooked_tree,
}


class TestTraceLevelCoercion:
    def test_coerce_accepts_names_any_case(self):
        assert TraceLevel.coerce("loads") is TraceLevel.LOADS
        assert TraceLevel.coerce("FULL") is TraceLevel.FULL
        assert TraceLevel.coerce(TraceLevel.OFF) is TraceLevel.OFF

    def test_coerce_rejects_unknown(self):
        with pytest.raises(ValueError):
            TraceLevel.coerce("verbose")

    def test_network_accepts_string_level(self):
        network = Network(trace_level="loads")
        assert network.trace_level is TraceLevel.LOADS


class TestDeterminismAcrossLevels:
    def test_same_seed_same_run_under_loads(self):
        first = _run_tree(TraceLevel.LOADS)
        second = _run_tree(TraceLevel.LOADS)
        assert first.trace.loads() == second.trace.loads()
        assert first.trace.total_messages == second.trace.total_messages
        assert first.now == second.now

    def test_full_and_loads_counters_agree(self):
        full = _run_tree(TraceLevel.FULL).trace
        loads = _run_tree(TraceLevel.LOADS).trace
        assert loads.loads() == full.loads()
        assert loads.total_messages == full.total_messages
        assert loads.bottleneck() == full.bottleneck()
        assert loads.op_indices() == full.op_indices()
        for op in full.op_indices():
            assert loads.messages_for_op(op) == full.messages_for_op(op)
            assert loads.footprint(op) == full.footprint(op)

    def test_off_runs_the_same_execution(self):
        full = _run_tree(TraceLevel.FULL)
        off = _run_tree(TraceLevel.OFF)
        assert off.now == full.now
        assert off.events_executed == full.events_executed
        assert off.trace.level is TraceLevel.OFF

    @pytest.mark.parametrize("setup", sorted(_SETUPS))
    def test_levels_agree_on_untracked_faulty_and_hooked_traffic(self, setup):
        networks = {}
        ledgers = {}
        for level in TraceLevel:
            session = _SETUPS[setup](level)
            session.run_sequence()
            networks[level] = session.network
            ledgers[level] = _ledgers(session)
        full = networks[TraceLevel.FULL].trace
        loads = networks[TraceLevel.LOADS].trace
        # The FULL records, entered through the reference update, must
        # rebuild exactly the counters the LOADS run kept.
        replay = Trace(level=TraceLevel.LOADS)
        for record in full.records:
            replay.record(record)
        assert replay.loads() == loads.loads()
        assert replay.total_messages == loads.total_messages
        assert replay.op_indices() == loads.op_indices()
        for op in loads.op_indices():
            assert replay.messages_for_op(op) == loads.messages_for_op(op)
            assert replay.footprint(op) == loads.footprint(op)
        # The trace level changes what the trace keeps, never the
        # fault, suspicion and recovery ledgers.
        assert ledgers[TraceLevel.FULL] == ledgers[TraceLevel.LOADS]
        assert ledgers[TraceLevel.FULL] == ledgers[TraceLevel.OFF]
        off = networks[TraceLevel.OFF]
        assert off.events_executed == networks[TraceLevel.FULL].events_executed
        assert off.now == networks[TraceLevel.FULL].now
        if setup == "standby-crash":
            # failure-detector heartbeats: FULL indexes them, LOADS not
            assert full.messages_for_op(NO_OP) > 0
            assert loads.messages_for_op(NO_OP) == 0
        if setup == "hooked":
            assert all(net.scheduler_hook.calls > 0 for net in networks.values())


class TestCapabilityErrors:
    def test_loads_refuses_record_queries(self):
        trace = _run_tree(TraceLevel.LOADS, n=8).trace
        with pytest.raises(TraceCapabilityError):
            trace.records  # noqa: B018
        with pytest.raises(TraceCapabilityError):
            list(trace)
        with pytest.raises(TraceCapabilityError):
            trace.records_for_op(0)
        with pytest.raises(TraceCapabilityError):
            trace.load_snapshot(1)

    def test_off_refuses_load_queries(self):
        trace = _run_tree(TraceLevel.OFF, n=8).trace
        with pytest.raises(TraceCapabilityError):
            trace.loads()
        with pytest.raises(TraceCapabilityError):
            trace.bottleneck()
        with pytest.raises(TraceCapabilityError):
            trace.load(1)
        with pytest.raises(TraceCapabilityError):
            trace.total_messages  # noqa: B018

    def test_error_names_the_required_level(self):
        trace = Trace(level=TraceLevel.LOADS)
        with pytest.raises(TraceCapabilityError, match="FULL"):
            trace.records  # noqa: B018


class TestDegradedDriver:
    def test_driver_reports_sentinel_under_off(self):
        network = Network(trace_level=TraceLevel.OFF)
        counter = CentralCounter(network, 8)
        result = run_sequence(counter, one_shot(8))
        assert [outcome.value for outcome in result.outcomes] == list(range(8))
        assert all(outcome.messages == -1 for outcome in result.outcomes)

    def test_driver_keeps_counts_under_loads(self):
        network = Network(trace_level=TraceLevel.LOADS)
        counter = CentralCounter(network, 8)
        result = run_sequence(counter, one_shot(8))
        assert all(outcome.messages >= 0 for outcome in result.outcomes)
        assert result.bottleneck_load() == network.trace.bottleneck()[1]


class TestPayloadSharing:
    def test_full_copies_payloads(self):
        network = Network(trace_level=TraceLevel.FULL)
        network.register_all([Echo(1), Echo(2)])
        payload = {"x": 1}
        message = network.send(1, 2, "data", payload)
        payload["x"] = 2
        assert message.payload == {"x": 1}

    def test_loads_passes_payload_through(self):
        # The fast tiers skip the defensive copy — documented contract.
        network = Network(trace_level=TraceLevel.LOADS)
        network.register_all([Echo(1), Echo(2)])
        payload = {"x": 1}
        message = network.send(1, 2, "data", payload)
        assert message.payload is payload
