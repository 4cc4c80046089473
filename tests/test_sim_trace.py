"""Unit tests for the trace: the load/footprint ledger."""

from __future__ import annotations

import pytest

from repro.lowerbound import check_hot_spot
from repro.registry import RunSession
from repro.sim.messages import NO_OP, MessageRecord
from repro.sim.trace import Trace, TraceLevel, merge_loads


def _record(sender, receiver, op_index=0, uid=0, kind="m"):
    return MessageRecord(
        sender=sender, receiver=receiver, kind=kind, op_index=op_index,
        uid=uid, send_time=0.0, deliver_time=1.0,
    )


class TestLoadAccounting:
    def test_one_message_loads_both_endpoints(self):
        trace = Trace()
        trace.record(_record(1, 2))
        assert trace.load(1) == 1
        assert trace.load(2) == 1
        assert trace.load(3) == 0

    def test_self_message_loads_twice(self):
        # m_p counts sends and receives; a self-message is both.
        trace = Trace()
        trace.record(_record(5, 5))
        assert trace.load(5) == 2

    def test_sent_and_received_split(self):
        trace = Trace()
        trace.record(_record(1, 2))
        trace.record(_record(3, 1))
        assert trace.sent_by(1) == 1
        assert trace.received_by(1) == 1
        assert trace.sent_by(2) == 0
        assert trace.received_by(2) == 1

    def test_total_load_is_twice_messages(self):
        trace = Trace()
        for uid in range(7):
            trace.record(_record(uid + 1, uid + 2, uid=uid))
        assert sum(trace.loads().values()) == 2 * trace.total_messages

    def test_bottleneck_empty_trace(self):
        assert Trace().bottleneck() == (0, 0)

    def test_bottleneck_ties_break_to_smallest_pid(self):
        trace = Trace()
        trace.record(_record(1, 2))
        trace.record(_record(3, 4))
        assert trace.bottleneck() == (1, 1)

    def test_bottleneck_finds_hot_processor(self):
        trace = Trace()
        for uid, sender in enumerate([2, 3, 4, 5]):
            trace.record(_record(sender, 9, uid=uid))
        assert trace.bottleneck() == (9, 4)


class TestPerOperationViews:
    def test_footprint_contains_both_endpoints(self):
        trace = Trace()
        trace.record(_record(1, 2, op_index=4))
        assert trace.footprint(4) == frozenset({1, 2})

    def test_footprint_of_unknown_op_is_empty(self):
        assert Trace().footprint(9) == frozenset()

    def test_records_partition_by_op(self):
        trace = Trace()
        trace.record(_record(1, 2, op_index=0, uid=0))
        trace.record(_record(2, 3, op_index=1, uid=1))
        trace.record(_record(3, 4, op_index=0, uid=2))
        assert trace.messages_for_op(0) == 2
        assert trace.messages_for_op(1) == 1
        assert [r.uid for r in trace.records_for_op(0)] == [0, 2]

    def test_op_indices_sorted_and_excludes_untracked(self):
        trace = Trace()
        trace.record(_record(1, 2, op_index=3))
        trace.record(_record(1, 2, op_index=NO_OP))
        trace.record(_record(1, 2, op_index=1))
        assert trace.op_indices() == [1, 3]

    def test_release_op_drops_the_columns_at_loads_only(self):
        loads, full = Trace(TraceLevel.LOADS), Trace(TraceLevel.FULL)
        for trace in (loads, full):
            trace.record(_record(1, 2, op_index=0))
            trace.record(_record(2, 3, op_index=1))
            trace.release_op(0)
            trace.release_op(7)  # never seen: nothing to release
            assert trace.total_messages == 2
            assert trace.loads() == {1: 1, 2: 2, 3: 1}
        assert loads.op_indices() == [1]
        assert loads.messages_for_op(0) == 0
        assert loads.footprint(0) == frozenset()
        # FULL keeps every operation: its records carry the fingerprint
        assert full.op_indices() == [0, 1]
        assert full.footprint(0) == frozenset({1, 2})

    def test_load_within_op(self):
        trace = Trace()
        trace.record(_record(1, 2, op_index=0))
        trace.record(_record(2, 3, op_index=0))
        trace.record(_record(1, 3, op_index=1))
        assert trace.load_within_op(0) == {1: 1, 2: 2, 3: 1}

    def test_load_snapshot_counts_only_earlier_ops(self):
        trace = Trace()
        trace.record(_record(1, 2, op_index=0))
        trace.record(_record(1, 2, op_index=1))
        trace.record(_record(1, 2, op_index=2))
        trace.record(_record(1, 2, op_index=NO_OP))
        snapshot = trace.load_snapshot(up_to_op=2)
        assert snapshot == {1: 2, 2: 2}

    def test_load_snapshot_zero_before_first_op(self):
        trace = Trace()
        trace.record(_record(1, 2, op_index=0))
        assert trace.load_snapshot(0) == {}


class TestSealedFootprints:
    """``seal_op`` changes how a finished footprint is held, not what
    ``footprint()`` answers."""

    @pytest.mark.parametrize("level", [TraceLevel.LOADS, TraceLevel.FULL])
    def test_footprint_is_equal_before_and_after_sealing(self, level):
        trace = Trace(level)
        trace.record(_record(1, 2, op_index=0))
        trace.record(_record(2, 3, op_index=0))
        trace.record(_record(4, 5, op_index=1))
        before = {op: trace.footprint(op) for op in (0, 1, 2)}
        trace.seal_op(0)
        trace.seal_op(2)  # no traffic: nothing to seal
        assert {op: trace.footprint(op) for op in (0, 1, 2)} == before
        assert isinstance(trace.footprint(0), frozenset)
        assert trace._footprints == {1: {4, 5}}
        assert [op for op, width in enumerate(trace._sealed_width) if width] == [0]
        assert trace.messages_for_op(0) == 2
        assert trace.op_indices() == [0, 1]

    @pytest.mark.parametrize("level", [TraceLevel.LOADS, TraceLevel.FULL])
    def test_a_late_message_for_a_sealed_op_is_still_counted(self, level):
        trace = Trace(level)
        trace.record(_record(1, 2, op_index=0))
        trace.seal_op(0)
        trace.record(_record(2, 7, op_index=0))  # e.g. a retransmission
        assert trace.footprint(0) == frozenset({1, 2, 7})
        trace.seal_op(0)  # sealing again folds the late part in
        assert trace.footprint(0) == frozenset({1, 2, 7})
        assert 0 not in trace._footprints
        assert trace.messages_for_op(0) == 2

    def test_release_op_drops_the_sealed_entry_too(self):
        trace = Trace(TraceLevel.LOADS)
        trace.record(_record(1, 2, op_index=0))
        trace.seal_op(0)
        trace.record(_record(2, 3, op_index=0))
        trace.release_op(0)
        assert trace.footprint(0) == frozenset()
        assert trace._footprints == {} and not any(trace._sealed_width)

    @pytest.mark.parametrize("spec", ["ww-tree", "central", "quorum[maekawa]"])
    def test_hot_spot_verdict_over_sealed_loads_equals_full(self, spec):
        n = 64
        loads = RunSession(spec, n, trace_level="LOADS").run_sequence()
        full = RunSession(spec, n, trace_level="FULL").run_sequence()
        assert loads.trace._footprints.keys() <= {NO_OP}
        assert check_hot_spot(loads) == check_hot_spot(full)
        assert check_hot_spot(loads).holds
        assert [loads.trace.footprint(op) for op in range(n)] == [
            full.trace.footprint(op) for op in range(n)
        ]


class TestMergeLoads:
    def test_merge_sums_across_traces(self):
        first = Trace()
        first.record(_record(1, 2))
        second = Trace()
        second.record(_record(2, 3))
        merged = merge_loads([first, second])
        assert merged == {1: 1, 2: 2, 3: 1}

    def test_merge_empty(self):
        assert merge_loads([]) == {}
