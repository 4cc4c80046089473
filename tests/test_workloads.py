"""Unit tests for workload sequences and the drivers."""

from __future__ import annotations

import pytest

from repro.counters import CentralCounter
from repro.errors import ConfigurationError, ProtocolError
from repro.registry import RunSession
from repro.sim.network import Network
from repro.workloads import (
    one_shot,
    reversed_one_shot,
    round_robin,
    run_concurrent,
    run_sequence,
    shuffled,
    single_hotspot,
    zipf_sequence,
)

from conftest import observed, values


class TestSequences:
    def test_one_shot_is_identity_permutation(self):
        assert one_shot(5) == [1, 2, 3, 4, 5]

    def test_reversed_one_shot(self):
        assert reversed_one_shot(4) == [4, 3, 2, 1]

    def test_shuffled_is_permutation(self):
        order = shuffled(20, seed=3)
        assert sorted(order) == list(range(1, 21))

    def test_shuffled_seeded(self):
        assert shuffled(20, seed=3) == shuffled(20, seed=3)
        assert shuffled(20, seed=3) != shuffled(20, seed=4)

    def test_round_robin_repeats_everyone(self):
        sequence = round_robin(3, rounds=2)
        assert sequence == [1, 2, 3, 1, 2, 3]

    def test_zipf_respects_range_and_length(self):
        sequence = zipf_sequence(10, length=100, seed=1)
        assert len(sequence) == 100
        assert all(1 <= pid <= 10 for pid in sequence)

    def test_zipf_is_skewed_toward_low_ids(self):
        sequence = zipf_sequence(50, length=2000, skew=1.5, seed=0)
        low = sum(1 for pid in sequence if pid <= 5)
        high = sum(1 for pid in sequence if pid > 45)
        assert low > high * 3

    def test_single_hotspot(self):
        assert single_hotspot(9, 4, hot=3) == [3, 3, 3, 3]

    @pytest.mark.parametrize(
        "call",
        [
            lambda: one_shot(0),
            lambda: round_robin(3, rounds=0),
            lambda: zipf_sequence(3, length=0),
            lambda: zipf_sequence(3, length=5, skew=0.0),
            lambda: single_hotspot(3, 2, hot=9),
        ],
    )
    def test_invalid_parameters_rejected(self, call):
        with pytest.raises(ConfigurationError):
            call()


class TestSequentialDriver:
    def test_values_are_sequential(self):
        result = run_sequence(CentralCounter(Network(), 10), one_shot(10))
        assert result.values() == list(range(10))

    def test_outcomes_record_initiators(self):
        result = run_sequence(CentralCounter(Network(), 5), reversed_one_shot(5))
        assert [o.initiator for o in result.outcomes] == [5, 4, 3, 2, 1]

    def test_per_op_message_counts_sum_to_total(self):
        result = run_sequence(CentralCounter(Network(), 8), one_shot(8))
        assert sum(o.messages for o in result.outcomes) == result.total_messages

    def test_average_messages_per_op(self):
        result = run_sequence(CentralCounter(Network(), 8), one_shot(8))
        # Server (pid 1) incs locally: 0 msgs; others: 2 msgs.
        assert result.average_messages_per_op() == pytest.approx(14 / 8)

    def test_bottleneck_is_central_server(self):
        result = run_sequence(CentralCounter(Network(), 8), one_shot(8))
        assert result.bottleneck_processor() == 1
        assert result.bottleneck_load() == 14

    def test_value_check_catches_broken_counter(self, network):
        class LyingCounter(CentralCounter):
            def take_value(self):
                value = super().take_value()
                return value + 1 if value >= 1 else value

        counter = LyingCounter(network, 4)
        with pytest.raises(ProtocolError, match="expected 1"):
            run_sequence(counter, one_shot(4))

    def test_value_check_can_be_disabled(self, network):
        class LyingCounter(CentralCounter):
            def take_value(self):
                return 41

        counter = LyingCounter(network, 3)
        result = run_sequence(counter, one_shot(3), check_values=False)
        assert result.values() == [41, 41, 41]

    def test_missing_result_detected(self, network):
        class SilentCounter(CentralCounter):
            def begin_inc(self, pid, op_index):
                pass  # never answers

        counter = SilentCounter(network, 3)
        with pytest.raises(ProtocolError, match="instead of 1"):
            run_sequence(counter, one_shot(3))

    def test_empty_sequence(self, network):
        counter = CentralCounter(network, 3)
        result = run_sequence(counter, [])
        assert result.operation_count == 0
        assert result.average_messages_per_op() == 0.0


class TestConcurrentDriver:
    def test_batch_values_form_permutation(self, network):
        counter = CentralCounter(network, 12)
        result = run_concurrent(counter, [one_shot(12)])
        assert sorted(result.values()) == list(range(12))

    def test_multiple_batches(self, network):
        counter = CentralCounter(network, 6)
        result = run_concurrent(counter, [[1, 2, 3], [4, 5, 6]])
        assert sorted(result.values()) == list(range(6))
        assert result.operation_count == 6

    def test_repeat_initiator_across_batches(self, network):
        counter = CentralCounter(network, 3)
        result = run_concurrent(counter, [[1, 2], [1, 3]])
        assert sorted(result.values()) == [0, 1, 2, 3]

    @pytest.mark.parametrize("runtime", ("sim", "asyncio"))
    @pytest.mark.parametrize(
        "spec", ("central", "combining-tree", "counting-network")
    )
    def test_initiator_repeated_inside_one_batch(self, spec, runtime):
        # the k-th op started at p reads the k-th result p received: a
        # matcher that reads one result twice reports a duplicate value
        # on a correct counter
        batch = [1, 2, 1, 2, 3]
        session = RunSession(spec, 4, runtime=runtime)
        result = session.run_concurrent([batch])
        assert sorted(result.values()) == list(range(5))
        assert [o.initiator for o in result.outcomes] == batch
        # the same run by hand, observed by the test: arrival order per pid
        reference = RunSession(spec, 4)
        received = observed(reference.counter)
        for op_index, pid in enumerate(batch):
            reference.counter.begin_inc(pid, op_index)
        reference.network.run_until_quiescent()
        for pid in (1, 2):
            own = [o.value for o in result.outcomes if o.initiator == pid]
            assert own == values(received, pid)

    def test_duplicate_check_catches_broken_counter(self, network):
        class StuckCounter(CentralCounter):
            def take_value(self):
                return 0  # hands out 0 forever

        counter = StuckCounter(network, 4)
        with pytest.raises(ProtocolError, match="permutation"):
            run_concurrent(counter, [one_shot(4)])


class TestBatched:
    def test_batches_partition_the_one_shot(self):
        from repro.workloads import batched

        batches = batched(10, 3)
        assert batches == [[1, 2, 3], [4, 5, 6], [7, 8, 9], [10]]
        flat = [pid for batch in batches for pid in batch]
        assert flat == list(range(1, 11))

    def test_batch_size_validation(self):
        from repro.workloads import batched

        with pytest.raises(ConfigurationError):
            batched(10, 0)

    def test_batched_drive_through_concurrent_runner(self, network):
        from repro.workloads import batched

        counter = CentralCounter(network, 12)
        result = run_concurrent(counter, batched(12, 4))
        assert sorted(result.values()) == list(range(12))

    def test_partial_concurrency_interpolates_bottleneck(self):
        # Combining tree: batch size 1 = sequential (Θ(n) root), full
        # batch = maximal combining; sizes in between sit in between.
        from repro.counters import CombiningTreeCounter
        from repro.workloads import batched

        n = 64
        loads = []
        for batch_size in (1, 8, 64):
            network = Network()
            counter = CombiningTreeCounter(network, n)
            result = run_concurrent(counter, batched(n, batch_size))
            loads.append(result.bottleneck_load())
        assert loads[0] > loads[1] > loads[2]
