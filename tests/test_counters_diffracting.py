"""Unit tests for the diffracting tree counter."""

from __future__ import annotations

import pytest

from repro.counters import DiffractingTreeCounter
from repro.errors import ConfigurationError
from repro.sim.network import Network
from repro.sim.policies import RandomDelay
from repro.workloads import one_shot, run_concurrent, run_sequence, shuffled


class TestCorrectness:
    @pytest.mark.parametrize("n", [2, 8, 20, 64])
    def test_sequential_values(self, n):
        network = Network()
        counter = DiffractingTreeCounter(network, n)
        result = run_sequence(counter, one_shot(n))
        assert result.values() == list(range(n))

    def test_shuffled_order(self):
        network = Network()
        counter = DiffractingTreeCounter(network, 16)
        result = run_sequence(counter, shuffled(16, seed=8))
        assert result.values() == list(range(16))

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_depths(self, depth):
        network = Network()
        counter = DiffractingTreeCounter(network, 16, depth=depth)
        result = run_sequence(counter, one_shot(16))
        assert result.values() == list(range(16))
        assert counter.leaf_count == 2**depth

    def test_concurrent_unique_values(self):
        network = Network()
        counter = DiffractingTreeCounter(network, 32, depth=3)
        result = run_concurrent(counter, [one_shot(32)])
        assert sorted(result.values()) == list(range(32))

    def test_concurrent_under_random_delays(self):
        network = Network(policy=RandomDelay(seed=6, low=0.5, high=2.0))
        counter = DiffractingTreeCounter(network, 24, depth=2)
        result = run_concurrent(counter, [one_shot(24), one_shot(24)])
        assert sorted(result.values()) == list(range(48))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            DiffractingTreeCounter(Network(), 8, depth=-1)
        with pytest.raises(ConfigurationError):
            DiffractingTreeCounter(Network(), 8, prism_size=0)

    def test_seeded_slot_choice_reproducible(self):
        def run(seed):
            network = Network()
            counter = DiffractingTreeCounter(network, 16, seed=seed)
            run_sequence(counter, one_shot(16))
            return network.trace.loads()

        assert run(3) == run(3)


class TestExitNumbering:
    def test_exit_rank_is_bit_reversal(self):
        counter = DiffractingTreeCounter(Network(), 16, depth=3)
        # depth 3: leaf b2b1b0 -> rank b0b1b2.
        assert counter.exit_rank(0) == 0
        assert counter.exit_rank(1) == 4
        assert counter.exit_rank(2) == 2
        assert counter.exit_rank(3) == 6
        assert counter.exit_rank(4) == 1

    def test_exit_ranks_are_a_permutation(self):
        counter = DiffractingTreeCounter(Network(), 16, depth=4)
        ranks = [counter.exit_rank(leaf) for leaf in range(16)]
        assert sorted(ranks) == list(range(16))


class TestDiffractionBehaviour:
    def test_sequential_tokens_all_hit_the_root_toggle(self):
        network = Network()
        counter = DiffractingTreeCounter(network, 32, depth=2, seed=0)
        run_sequence(counter, one_shot(32))
        toggle_messages = [
            r for r in network.trace.records if r.kind == "dt-toggle"
        ]
        root_toggles = [r for r in toggle_messages if True]
        # Every token falls through every toggle on its path when alone.
        assert len([r for r in toggle_messages]) >= 32

    def test_concurrency_diffARCTS_and_unloads_the_root_toggle(self):
        n = 64
        seq_network = Network()
        seq = DiffractingTreeCounter(seq_network, n, depth=3, seed=1)
        seq_result = run_sequence(seq, one_shot(n))
        conc_network = Network()
        conc = DiffractingTreeCounter(conc_network, n, depth=3, seed=1)
        conc_result = run_concurrent(conc, [one_shot(n)])
        assert conc_result.bottleneck_load() < seq_result.bottleneck_load()

    def test_concurrent_runs_do_diffract(self):
        network = Network()
        counter = DiffractingTreeCounter(network, 64, depth=3, seed=2)
        run_concurrent(counter, [one_shot(64)])
        toggles = sum(1 for r in network.trace.records if r.kind == "dt-toggle")
        # With 64 concurrent tokens many pair up: far fewer toggle visits
        # than the sequential 64·(per-path toggles).
        assert toggles < 64 * 3

    def test_exit_counts_sum_to_operations(self):
        network = Network()
        counter = DiffractingTreeCounter(network, 32, depth=2)
        run_concurrent(counter, [one_shot(32)])
        assert sum(counter.exit_counts) == 32
