"""EventQueue.clear() and Network.reset(): substrate reuse contracts.

A long-lived harness may rebuild counters on one network across
consecutive runs.  `reset()` must return the substrate to a
from-scratch state — time, uids, in-flight accounting, trace counters,
policy stream and fault-plan ledger — so run N+1 is byte-identical to a
fresh network's run, including under an installed FaultPlan.
"""

from __future__ import annotations

import pytest

from repro.sim.events import EventQueue
from repro.sim.faults import parse_fault_spec
from repro.sim.messages import NO_OP
from repro.sim.network import Network
from repro.sim.policies import RandomDelay
from repro.sim.processor import InertProcessor
from repro.sim.trace import TraceLevel


class TestEventQueueClear:
    def test_clear_empties_and_rewinds_time(self):
        queue = EventQueue()
        fired = []
        queue.schedule(5.0, lambda: fired.append("a"))
        queue.schedule(9.0, lambda: fired.append("b"))
        queue.run_next()
        assert queue.now == 5.0
        queue.clear()
        assert len(queue) == 0
        assert queue.now == 0.0
        assert fired == ["a"]  # the abandoned event never fires

    def test_cleared_queue_is_indistinguishable_from_fresh(self):
        used = EventQueue()
        for time in (1.0, 2.0, 3.0):
            used.schedule(time, lambda: None)
        while used:
            used.run_next()
        used.clear()
        fresh = EventQueue()
        order_used, order_fresh = [], []
        for queue, order in ((used, order_used), (fresh, order_fresh)):
            queue.schedule(2.0, lambda o=order: o.append("late"))
            queue.schedule(2.0, lambda o=order: o.append("late2"))
            queue.schedule(1.0, lambda o=order: o.append("early"))
            while queue:
                queue.run_next()
        # Same firing order => the tie-break counter restarted too.
        assert order_used == order_fresh == ["early", "late", "late2"]
        assert used.now == fresh.now == 2.0


def _blast(network, messages=120):
    count = network.processor_count
    for index in range(messages):
        network.send(
            (index % count) + 1, ((index + 1) % count) + 1, "m", {"i": index}
        )
    network.run_until_quiescent()


def _substrate_state(network):
    return {
        "now": network.now,
        "in_flight": network.in_flight,
        "events_executed": network.events_executed,
        "active_op": network.active_op,
        "quiescent": network.is_quiescent(),
        "loads": network.trace.loads(),
        "total": network.trace.total_messages,
    }


class TestNetworkReset:
    def _fresh(self, **kwargs):
        network = Network(policy=RandomDelay(seed=6), **kwargs)
        network.register_all([InertProcessor(pid) for pid in (1, 2, 3)])
        return network

    def test_reset_restores_the_initial_substrate_state(self):
        network = self._fresh()
        _blast(network)
        assert network.now > 0 and network.events_executed > 0
        network.reset()
        assert _substrate_state(network) == {
            "now": 0.0,
            "in_flight": 0,
            "events_executed": 0,
            "active_op": NO_OP,
            "quiescent": True,
            "loads": {},
            "total": 0,
        }

    def test_reset_discards_pending_events(self):
        network = self._fresh()
        network.send(1, 2, "m", {})
        assert network.in_flight == 1  # not yet delivered
        network.reset()
        assert network.in_flight == 0
        assert network.run_until_quiescent() == 0  # nothing left to run

    def test_second_run_equals_a_fresh_networks_run(self):
        reused = self._fresh()
        _blast(reused)
        reused.reset()
        _blast(reused)
        fresh = self._fresh()
        _blast(fresh)
        assert reused.trace.records == fresh.trace.records
        assert reused.trace.loads() == fresh.trace.loads()

    def test_processors_stay_registered_across_reset(self):
        network = self._fresh()
        _blast(network)
        network.reset()
        assert network.processor_count == 3
        assert network.has_processor(2)

    def test_trace_object_is_replaced_and_loads_path_rebound(self):
        # LOADS delivery writes into the trace's columns; after reset
        # they must be the new trace's or the counters go stale.
        network = Network(
            policy=RandomDelay(seed=6), trace_level=TraceLevel.LOADS
        )
        network.register_all([InertProcessor(pid) for pid in (1, 2, 3)])
        _blast(network)
        old_trace = network.trace
        network.reset()
        assert network.trace is not old_trace
        _blast(network, 30)
        assert network.trace.total_messages == 30
        # Every delivery adds load at both endpoints (sent + received).
        assert sum(network.trace.loads().values()) == 60


class _CountingHook:
    """SchedulerHook that counts its choices and always picks FIFO."""

    def __init__(self):
        self.calls = 0

    def choose(self, ready):
        self.calls += 1
        return 0


class TestSchedulerHookClearing:
    def test_event_queue_clear_drops_the_installed_hook(self):
        queue = EventQueue()
        hook = _CountingHook()
        queue.install_hook(hook)
        assert queue.scheduler_hook is hook
        queue.schedule(1.0, lambda: None)
        queue.schedule(1.0, lambda: None)
        queue.run_many(10)
        assert hook.calls == 1  # one equal-time group consulted
        queue.clear()
        assert queue.scheduler_hook is None
        # Post-clear scheduling runs on the clean (unhooked) path.
        queue.schedule(1.0, lambda: None)
        queue.schedule(1.0, lambda: None)
        queue.run_many(10)
        assert hook.calls == 1

    def test_network_reset_drops_the_installed_hook(self):
        network = Network(policy=RandomDelay(seed=6))
        network.register_all([InertProcessor(pid) for pid in (1, 2, 3)])
        hook = _CountingHook()
        network.install_scheduler_hook(hook)
        assert network.scheduler_hook is hook
        _blast(network, 30)
        network.reset()
        assert network.scheduler_hook is None
        # Run N+1 must match a fresh network even though run N was
        # explored under a hook.
        _blast(network, 30)
        fresh = Network(policy=RandomDelay(seed=6))
        fresh.register_all([InertProcessor(pid) for pid in (1, 2, 3)])
        _blast(fresh, 30)
        assert network.trace.records == fresh.trace.records

    def test_installing_none_uninstalls(self):
        network = Network()
        hook = _CountingHook()
        network.install_scheduler_hook(hook)
        network.install_scheduler_hook(None)
        assert network.scheduler_hook is None


@pytest.mark.faults
class TestNetworkResetUnderFaults:
    SPEC = "drop=0.2,dup=0.1"

    def _fresh(self):
        network = Network(
            policy=RandomDelay(seed=6),
            fault_plan=parse_fault_spec(self.SPEC, seed=8),
        )
        network.register_all([InertProcessor(pid) for pid in (1, 2, 3)])
        return network

    def test_reset_clears_the_fault_ledger(self):
        network = self._fresh()
        _blast(network)
        assert sum(network.fault_plan.counts.values()) > 0
        network.reset()
        assert network.fault_plan.counts == {}
        assert network.fault_plan.events == []
        assert network.trace.total_messages == 0

    def test_faulty_second_run_replays_the_first_exactly(self):
        network = self._fresh()
        _blast(network)
        first = (
            network.trace.loads(),
            network.fault_plan.counts,
            list(network.fault_plan.events),
        )
        network.reset()
        _blast(network)
        second = (
            network.trace.loads(),
            network.fault_plan.counts,
            list(network.fault_plan.events),
        )
        assert first == second

    def test_reset_keeps_the_faulty_send_path_installed(self):
        network = self._fresh()
        _blast(network)
        network.reset()
        _blast(network)
        assert sum(network.fault_plan.counts.values()) > 0
