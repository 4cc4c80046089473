"""Integration tests for the paper's communication-tree counter."""

from __future__ import annotations

import pytest

from repro.core import (
    IntervalMode,
    TreeCounter,
    TreeGeometry,
    TreePolicy,
)
from repro.counters import StaticTreeCounter
from repro.errors import ConfigurationError
from repro.sim.network import Network
from repro.sim.policies import RandomDelay, SkewedDelay, UnitDelay
from repro.workloads import one_shot, round_robin, run_sequence, shuffled


def _run_tree(n, policy=None, delivery=None, geometry=None, order=None):
    network = Network(policy=delivery)
    counter = TreeCounter(network, n, geometry=geometry, policy=policy)
    result = run_sequence(counter, order if order is not None else one_shot(n))
    return counter, result


class TestCorrectness:
    @pytest.mark.parametrize("n", [1, 2, 8, 20, 81])
    def test_sequential_values(self, n):
        _, result = _run_tree(n)
        assert result.values() == list(range(n))

    def test_counter_value_after_run(self):
        counter, _ = _run_tree(8)
        assert counter.value == 8

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_correct_under_any_initiator_order(self, seed):
        _, result = _run_tree(81, order=shuffled(81, seed=seed))
        assert result.values() == list(range(81))

    @pytest.mark.parametrize(
        "delivery", [UnitDelay(), RandomDelay(seed=9), SkewedDelay()]
    )
    def test_correct_under_delivery_policies(self, delivery):
        _, result = _run_tree(81, delivery=delivery)
        assert result.values() == list(range(81))

    def test_non_client_cannot_inc(self):
        network = Network()
        counter = TreeCounter(network, 8)
        with pytest.raises(ConfigurationError):
            counter.begin_inc(9, 0)
        with pytest.raises(ConfigurationError):
            counter.begin_inc(0, 0)

    def test_n_not_of_paper_form_rounds_up(self):
        # 50 clients ride a k=3 tree (81 leaves); extra leaves stay idle.
        counter, result = _run_tree(50)
        assert counter.k == 3
        assert counter.geometry.leaf_count == 81
        assert result.values() == list(range(50))

    def test_oversized_n_for_explicit_geometry_rejected(self):
        network = Network()
        with pytest.raises(ConfigurationError):
            TreeCounter(network, 100, geometry=TreeGeometry.paper_shape(2))


class TestBottleneckScaling:
    def test_load_grows_like_k_not_n(self):
        loads = {}
        for k in (2, 3, 4):
            n = k ** (k + 1)
            _, result = _run_tree(n)
            loads[k] = result.bottleneck_load()
        # Linear-in-k window (measured constant ~18.5).
        for k, load in loads.items():
            assert 4 * k <= load <= 24 * k
        # n grew by a factor 128 from k=2 to k=4; a Θ(n) counter's load
        # would too.  Ours grows by ~2x.
        assert loads[4] < 4 * loads[2]

    def test_beats_central_counter_from_k3(self):
        n = 81
        _, result = _run_tree(n)
        central_bottleneck = 2 * (n - 1)
        assert result.bottleneck_load() < central_bottleneck

    def test_total_messages_linear_in_n_times_k(self):
        for k in (2, 3):
            n = k ** (k + 1)
            _, result = _run_tree(n)
            # Each inc climbs k+1 edges plus answer plus retirement
            # traffic: O(k) messages per op overall.
            assert result.total_messages <= 16 * n * k

    def test_load_nearly_invariant_under_delivery_policy(self):
        # The core climb/answer traffic is delay-independent; only the
        # retirement handshake (forwarding of stale-addressed messages)
        # varies with arrival order, and the paper allows it a constant
        # factor.  Totals and bottlenecks must stay within tight margins.
        results = [
            _run_tree(81, delivery=delivery)[1]
            for delivery in (UnitDelay(), RandomDelay(seed=3), SkewedDelay())
        ]
        totals = [r.total_messages for r in results]
        bottlenecks = [r.bottleneck_load() for r in results]
        assert max(totals) <= min(totals) * 1.10
        assert max(bottlenecks) <= min(bottlenecks) * 1.35


class TestRetirementMachinery:
    def test_retirements_happen(self):
        counter, _ = _run_tree(81)
        assert len(counter.retirements) > 0

    def test_root_retires_most_per_node(self):
        counter, _ = _run_tree(81)
        by_level = counter.registry.retirement_counts_by_level()
        per_node = {
            level: count / counter.geometry.nodes_on_level(level)
            for level, count in by_level.items()
        }
        assert per_node[0] == max(per_node.values())

    def test_retirement_count_decreases_with_level(self):
        counter, _ = _run_tree(1024)
        by_level = counter.registry.retirement_counts_by_level()
        per_node = {
            level: by_level[level] / counter.geometry.nodes_on_level(level)
            for level in by_level
        }
        values = [per_node[level] for level in sorted(per_node)]
        assert values == sorted(values, reverse=True)

    def test_static_tree_never_retires(self):
        network = Network()
        counter = StaticTreeCounter(network, 81)
        result = run_sequence(counter, one_shot(81))
        assert counter.retirements == []
        assert result.values() == list(range(81))

    def test_static_tree_root_is_theta_n_bottleneck(self):
        network = Network()
        counter = StaticTreeCounter(network, 81)
        result = run_sequence(counter, one_shot(81))
        # Root worker handles 2 messages per op: receive + answer.
        assert result.bottleneck_load() >= 2 * 81

    def test_retirement_removes_the_static_bottleneck(self):
        static_network = Network()
        static = StaticTreeCounter(static_network, 81)
        static_result = run_sequence(static, one_shot(81))
        _, retiring_result = _run_tree(81)
        assert retiring_result.bottleneck_load() < static_result.bottleneck_load() / 2

    def test_forwarding_overhead_is_small(self):
        counter, result = _run_tree(1024)
        # The "handshake" overhead the paper allows: a constant factor.
        assert counter.total_forwarded() <= result.total_messages * 0.05

    def test_wrap_mode_supports_repeated_workloads(self):
        network = Network()
        geometry = TreeGeometry.paper_shape(2)
        policy = TreePolicy(
            retire_threshold=8, interval_mode=IntervalMode.WRAP
        )
        counter = TreeCounter(network, 8, geometry=geometry, policy=policy)
        result = run_sequence(counter, round_robin(8, rounds=4))
        assert result.values() == list(range(32))


class TestWorkerIntrospection:
    def test_initial_roles_assigned(self):
        network = Network()
        counter = TreeCounter(network, 8)
        # Processor 1 initially works for the root AND node(1,0) — the
        # paper's id scheme allows exactly this double duty.
        assert counter.worker(1).held_nodes() == [0, 1]

    def test_roles_migrate_after_run(self):
        counter, _ = _run_tree(81)
        root_worker = counter.registry.root().worker
        assert 0 in counter.worker(root_worker).held_nodes()

    def test_deferred_messages_counted(self):
        counter, result = _run_tree(1024, delivery=RandomDelay(seed=5))
        # Four messages overtake their hand-off in this run; the counter
        # counts them, and all were replayed: nothing is left deferred.
        assert counter.total_deferred() == 4
        assert counter._pending == {}
        assert result.values() == list(range(1024))
