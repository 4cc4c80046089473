"""What a finished run keeps per operation is held in columns, not objects.

A sealed operation's footprint and message count live in the trace's
flat columns, every delivered result in the counter's result columns,
and every completed operation in :class:`~repro.workloads.driver.Outcomes`.
``TestAgainstTheRecordStream`` recomputes each view independently — the
per-operation ones from a ``FULL`` trace's records, the results through
the counter's ``on_result`` hook — and compares.  The direct classes pin
the edge cases the columns have to get right, and
``TestServingStaysFlat`` that an owner which releases as it goes holds
a fixed amount however many operations pass.
"""

from __future__ import annotations

import random
from collections import defaultdict

import pytest

from repro.api import DistributedCounter
from repro.registry import RunSession
from repro.shard import CounterShardMap
from repro.sim.messages import NO_OP, MessageRecord
from repro.sim.network import Network
from repro.sim.trace import Trace, TraceLevel
from repro.workloads.driver import OpOutcome, Outcomes

N = 625

LEGS = {
    "ww-tree-unit": ("ww-tree", {}),
    "ww-tree-random": ("ww-tree", {"policy": "random", "seed": 3}),
    "central": ("central", {"policy": "random", "seed": 4}),
    "quorum-maekawa": ("quorum[maekawa]", {}),
    "ww-tree-reliable": (
        "ww-tree",
        {"policy": "random", "seed": 5, "faults": "drop=0.05", "reliable": True},
    ),
}


class TestAgainstTheRecordStream:
    @pytest.mark.parametrize("leg", sorted(LEGS))
    def test_every_packed_view_equals_its_recomputation(self, leg):
        spec, options = LEGS[leg]
        session = RunSession(spec, N, trace_level="FULL", **options)
        network, counter = session.network, session.counter
        observed: dict[int, list[tuple[int, float]]] = defaultdict(list)
        counter.on_result = lambda pid, value: observed[pid].append(
            (value, network.now)
        )
        order = list(range(1, N + 1))
        random.Random(leg).shuffle(order)
        result = session.run_sequence(order)
        trace = result.trace

        by_op: dict[int, list[MessageRecord]] = defaultdict(list)
        for record in trace.records:
            by_op[record.op_index].append(record)
        tracked = sorted(op for op in by_op if op != NO_OP)
        assert trace.op_indices() == tracked
        # every op but the central server's own (answered locally) moved
        assert len(tracked) >= N - 1 and set(tracked) <= set(range(N))
        assert trace._footprints.keys() <= {NO_OP}  # every op was sealed
        for op in tracked:
            records = by_op[op]
            touched = {r.sender for r in records} | {r.receiver for r in records}
            assert trace.footprint(op) == frozenset(touched)
            assert trace.messages_for_op(op) == len(records)

        for pid in range(1, N + 1):
            assert counter.results_for(pid) == [v for v, _ in observed[pid]]
            assert counter.result_times_for(pid) == [t for _, t in observed[pid]]
        expected = [
            OpOutcome(op, pid, observed[pid][0][0], len(by_op[op]))
            for op, pid in enumerate(order)
        ]
        assert list(result.outcomes) == expected
        assert result.outcomes == expected
        assert [result.outcomes[op] for op in range(-3, 3)] == (
            expected[-3:] + expected[:3]
        )
        assert result.outcomes[5:9] == expected[5:9]
        assert result.values() == [o.value for o in expected]


def _record(sender, receiver, op_index):
    return MessageRecord(
        sender=sender, receiver=receiver, kind="m", op_index=op_index,
        uid=0, send_time=0.0, deliver_time=1.0,
    )


class TestSealedColumns:
    @pytest.mark.parametrize("level", [TraceLevel.LOADS, TraceLevel.FULL])
    def test_a_late_message_is_folded_in_without_touching_other_ops(self, level):
        trace = Trace(level)
        trace.record(_record(1, 2, 0))
        trace.record(_record(3, 4, 1))
        trace.seal_op(0)
        trace.seal_op(1)
        trace.record(_record(2, 9, 0))  # after its op was sealed
        trace.record(_record(1, 2, 0))  # ids already sealed: counted once
        assert trace.footprint(0) == frozenset({1, 2, 9})
        assert trace.messages_for_op(0) == 3
        trace.seal_op(0)
        assert trace._footprints == {}
        assert trace.footprint(0) == frozenset({1, 2, 9})
        assert trace.messages_for_op(0) == 3
        assert trace.footprint(1) == frozenset({3, 4})
        assert trace.messages_for_op(1) == 1
        assert trace.op_indices() == [0, 1]

    def test_ops_sealed_out_of_order_and_far_apart(self):
        trace = Trace(TraceLevel.LOADS)
        for op in (700, 3, 0):
            trace.record(_record(op + 1, op + 2, op))
            trace.seal_op(op)
        assert trace.op_indices() == [0, 3, 700]
        assert trace.footprint(700) == frozenset({701, 702})
        assert trace.footprint(5) == frozenset()
        assert trace.messages_for_op(5) == 0
        assert trace.messages_for_op(10_000) == 0

    def test_release_of_a_sealed_op_forgets_only_that_op(self):
        trace = Trace(TraceLevel.LOADS)
        for op in (0, 1):
            trace.record(_record(1, 2 + op, op))
            trace.seal_op(op)
        trace.record(_record(5, 6, 0))  # live part as well
        trace.release_op(0)
        assert trace.footprint(0) == frozenset()
        assert trace.messages_for_op(0) == 0
        assert trace.op_indices() == [1]
        assert trace.footprint(1) == frozenset({1, 3})
        assert trace.total_messages == 3  # loads and totals stay
        trace.release_op(9)  # never seen: nothing to do

    def test_untracked_traffic_is_never_sealed(self):
        trace = Trace(TraceLevel.FULL)
        trace.record(_record(1, 2, NO_OP))
        trace.seal_op(NO_OP)
        assert trace.footprint(NO_OP) == frozenset({1, 2})
        assert len(trace._sealed_width) == 0


class _Echo(DistributedCounter):
    """Answers every request at once with whatever it is told."""

    def begin_inc(self, pid, op_index):  # pragma: no cover - unused
        raise NotImplementedError


class TestResultColumns:
    def test_many_results_per_pid_interleaved_and_released(self):
        counter = _Echo(Network(), 4)
        for pid, value in [(2, 0), (3, 1), (2, 2), (1, 3), (2, 4)]:
            counter.deliver_result(pid, value)
        assert counter.results_for(2) == [0, 2, 4]
        assert counter.last_result_for(2) == 4
        assert counter.results_for(4) == []
        assert counter.results_for(99) == []
        assert sorted(counter.all_results()) == [0, 1, 2, 3, 4]
        counter.release_results(2)
        assert counter.results_for(2) == []
        assert counter.results_for(3) == [1]
        counter.release_results(3)
        counter.release_results(1)
        assert len(counter._result_times) == 0  # nothing held: reused
        counter.deliver_result(2, 5)
        assert counter.results_for(2) == [5]

    def test_values_that_are_not_ints_are_kept_as_they_are(self):
        counter = _Echo(Network(), 3)
        counter.deliver_result(1, 7)
        counter.deliver_result(2, True)
        counter.deliver_result(3, ("heap", [1, 2]))
        counter.deliver_result(1, 2**70)
        assert counter.results_for(1) == [7, 2**70]
        assert counter.results_for(2)[0] is True
        assert counter.last_result_for(3) == ("heap", [1, 2])

    def test_outcome_columns_keep_any_value(self):
        outcomes = Outcomes()
        outcomes.add(0, 4, 10, 3)
        outcomes.add(1, 2, None, -1)
        assert list(outcomes) == [OpOutcome(0, 4, 10, 3), OpOutcome(1, 2, None, -1)]
        assert outcomes[-1].value is None
        assert len(outcomes) == 2
        with pytest.raises(IndexError):
            outcomes[2]


class TestServingStaysFlat:
    def test_a_keyed_shard_holds_a_fixed_amount_of_per_op_state(self):
        """2 000 batches through one keyed shard: after warm-up neither
        the trace's per-op columns nor the counter's result columns grow.
        The tree's retirement log does grow (one event per retirement)
        and is deliberately not checked here."""
        shard_map = CounterShardMap(
            "ww-tree?interval_mode=wrap", 8, shards=1, batch_max=1,
            trace_level="LOADS",
        )
        (shard,) = shard_map.shards()
        trace = shard.session.network.trace
        counter = shard.session.counter

        def held():
            return {
                "op_counts": len(trace._op_counts),
                "live_footprints": len(trace._footprints),
                "sealed": [
                    len(column) for column in (
                        trace._sealed, trace._sealed_at, trace._sealed_width,
                    )
                ],
                "results": [
                    len(column) for column in (
                        counter._result_values, counter._result_times,
                        counter._result_prior, counter._result_latest,
                    )
                ],
                "results_held": any(counter._result_latest),
                "leaf_parents": len(counter.leaves.parents),
            }

        assert shard_map.apply([f"k{i % 7}" for i in range(200)])[-1] == 28
        warm = held()
        values = shard_map.apply([f"k{i % 7}" for i in range(1_800)])
        assert values[-1] == 286
        assert shard.batches == 2_000
        assert held() == warm
        assert not warm["results_held"] and warm["sealed"] == [0, 0, 0]
