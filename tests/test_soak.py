"""Soak tests: long mixed workloads across the whole stack.

Each soak interleaves counters, orders, policies and concurrency in one
continuous scenario and re-checks every invariant at the end.  They are
the closest thing the suite has to an integration 'day in the life'.
"""

from __future__ import annotations

import random

import pytest

from repro.core import IntervalMode, TreeCounter, TreeGeometry, TreePolicy
from repro.core.invariants import check_retirement_lemma, check_tenure_bound
from repro.counters import ArrowCounter, CentralCounter, CombiningTreeCounter
from repro.datatypes import (
    DELETE_MIN,
    FLIP,
    INSERT,
    DistributedFlipBit,
    DistributedPriorityQueue,
    run_ops,
)
from repro.lowerbound import check_hot_spot
from repro.registry import RunSession
from repro.sim.faults import parse_fault_spec
from repro.sim.network import Network
from repro.sim.policies import RandomDelay
from repro.sim.processor import Processor
from repro.sim.trace import TraceLevel
from repro.sim.transport import DATA_KIND, ReliableTransport
from repro.workloads import run_concurrent, run_sequence


class TestLongMixedRuns:
    def test_tree_counter_thousand_ops_wrapped(self):
        rng = random.Random(42)
        n = 81
        network = Network(policy=RandomDelay(seed=7))
        geometry = TreeGeometry.paper_shape(3)
        counter = TreeCounter(
            network,
            n,
            geometry=geometry,
            policy=TreePolicy(retire_threshold=12, interval_mode=IntervalMode.WRAP),
        )
        order = [rng.randrange(1, n + 1) for _ in range(1000)]
        result = run_sequence(counter, order)
        assert result.values() == list(range(1000))
        assert check_hot_spot(result).holds
        assert check_retirement_lemma(counter).holds
        assert check_tenure_bound(counter).holds
        # Load stays spread: nobody handles more than a few percent of
        # the traffic.
        peak = result.bottleneck_load()
        assert peak < 0.08 * 2 * result.total_messages

    def test_concurrent_batches_interleaved_with_sequential(self):
        network = Network(policy=RandomDelay(seed=3))
        counter = CombiningTreeCounter(network, 32)
        sequential = run_sequence(counter, list(range(1, 17)))
        assert sequential.values() == list(range(16))
        # Continue the same counter with concurrent batches; values keep
        # ascending from where the sequential phase stopped.
        batch_result = run_concurrent(
            counter, [list(range(1, 33))], check_values=False
        )
        values = [o.value for o in batch_result.outcomes]
        assert sorted(values) == list(range(16, 48))

    def test_priority_queue_long_session(self):
        import heapq

        rng = random.Random(9)
        n = 81
        network = Network()
        queue = DistributedPriorityQueue(
            network,
            n,
            policy=TreePolicy(retire_threshold=12, interval_mode=IntervalMode.WRAP),
        )
        reference: list[int] = []
        ops = []
        expected = []
        for _ in range(400):
            pid = rng.randrange(1, n + 1)
            if reference and rng.random() < 0.45:
                ops.append((pid, (DELETE_MIN,)))
                expected.append(heapq.heappop(reference))
            else:
                key = rng.randrange(10_000)
                ops.append((pid, (INSERT, key)))
                heapq.heappush(reference, key)
                expected.append(len(reference))
        result = run_ops(queue, ops)
        assert result.replies() == expected

    def test_flip_bit_parity_over_long_run(self):
        n = 27
        network = Network()
        bit = DistributedFlipBit(
            network,
            n,
            policy=TreePolicy(retire_threshold=12, interval_mode=IntervalMode.WRAP),
        )
        rng = random.Random(4)
        ops = [(rng.randrange(1, n + 1), FLIP) for _ in range(500)]
        result = run_ops(bit, ops)
        assert result.replies() == [i % 2 for i in range(500)]
        assert bit.state == 0

    def test_arrow_token_random_walk(self):
        rng = random.Random(11)
        n = 64
        network = Network(policy=RandomDelay(seed=5))
        counter = ArrowCounter(network, n)
        order = [rng.randrange(1, n + 1) for _ in range(800)]
        result = run_sequence(counter, order)
        assert result.values() == list(range(800))
        # The token ends with the last distinct requester.
        assert counter.owner == order[-1]
        assert counter.value == 800

    def test_central_counter_extreme_length(self):
        network = Network()
        counter = CentralCounter(network, 16)
        order = [(i % 16) + 1 for i in range(2000)]
        result = run_sequence(counter, order)
        assert result.values() == list(range(2000))
        # Server load: 3 messages per remote op is the exact ledger.
        remote_ops = sum(1 for pid in order if pid != counter.server_id)
        assert result.trace.load(counter.server_id) == 2 * remote_ops


class _Tally(Processor):
    """Counts how often each payload index was handed over."""

    def __init__(self, pid, size=0):
        super().__init__(pid)
        self.times = bytearray(size)

    def on_message(self, message):
        self.times[message.payload["i"]] += 1


@pytest.mark.faults
class TestReliableTransportHoldsNothingPerMessage:
    def test_one_channel_hundred_thousand_sends(self):
        total, burst = 100_000, 100
        network = Network(
            policy=RandomDelay(seed=5),
            fault_plan=parse_fault_spec("drop=0.05,dup=0.05", seed=5),
            trace_level=TraceLevel.OFF,
        )
        transport = ReliableTransport(network)
        receiver = _Tally(2, total)
        transport.register_all([_Tally(1), receiver])
        held_at = {}
        for start in range(0, total, burst):
            for index in range(start, start + burst):
                transport.send(1, 2, "m", {"i": index})
            transport.run_until_quiescent()
            if start + burst in (10_000, total):
                held_at[start + burst] = transport.held()
        assert receiver.times == bytes([1]) * total  # each exactly once
        stats = transport.stats()
        assert stats["delivered"] == stats["data_sent"] == total
        assert stats["retransmissions"] > 0 and stats["duplicates_suppressed"] > 0
        assert stats["gave_up"] == 0
        # Two ints for the channel and nothing else, however long it runs.
        assert held_at[10_000] == held_at[total] == {
            "channels": 1, "pending": 0, "out_of_order": 0,
        }
        assert transport._ahead == {}  # the sets are gone, not just empty

    def test_ww_tree_run_ends_holding_only_watermarks(self):
        def run(trace_level):
            session = RunSession(
                "ww-tree", 3125, policy="random", seed=0,
                faults="drop=0.05", reliable=True, trace_level=trace_level,
            )
            session.run_sequence()
            assert session.transport_stats()["gave_up"] == 0
            return session

        held = run("LOADS").transport.held()
        assert held["pending"] == held["out_of_order"] == 0
        # The same seeded run with records kept names the channels used.
        twin = run("FULL")
        assert twin.transport.held() == held
        data_channels = {
            (record.sender, record.receiver)
            for record in twin.network.trace.records
            if record.kind == DATA_KIND
        }
        assert 0 < held["channels"] <= len(data_channels)
