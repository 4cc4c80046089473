"""The trace's per-processor loads as two int columns indexed by pid.

``m_p`` is ``sent[p] + received[p]``.  The columns are sized once, at
the first count, to the network's id bound (the largest registered id,
lazy ranges included), grow on the rare paths (a later registration, a
sender past the end, :meth:`Trace.record` on its own), and widen from
32- to 64-bit before any count could pass ``2**31 - 1``.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter

import pytest

from repro.errors import TraceCapabilityError
from repro.registry import RunSession
from repro.sim.messages import Message, MessageRecord
from repro.sim.network import Network
from repro.sim.processor import InertProcessor, Processor
from repro.sim.trace import Trace, TraceLevel

INT_MAX = 2**31 - 1  # the largest count an array("i") slot holds

def _record(sender, receiver, op_index=0, uid=0):
    return MessageRecord(
        sender=sender, receiver=receiver, kind="m", op_index=op_index,
        uid=uid, send_time=0.0, deliver_time=1.0,
    )


def _pair(level=TraceLevel.LOADS) -> Network:
    network = Network(trace_level=level)
    network.register_all([InertProcessor(1), InertProcessor(2)])
    return network


def _one_shot(level: str, n: int = 625) -> Network:
    """A seeded ww-tree one-shot's network; n = 625 rounds up to 1 024
    leaves, and the tree's ids run past n."""
    session = RunSession("ww-tree", n, policy="random", seed=3, trace_level=level)
    session.run_sequence()
    return session.network


class TestIdsAboveN:
    def test_loads_match_the_records_past_n(self):
        loads, full = _one_shot("LOADS"), _one_shot("FULL")
        reference: Counter[int] = Counter()
        for record in full.trace.records:
            reference[record.sender] += 1
            reference[record.receiver] += 1
        trace = loads.trace
        assert trace.loads() == dict(reference)
        assert max(reference) > 625  # processors past n work inner nodes
        assert trace.bottleneck() == full.trace.bottleneck()
        for pid in (1, 625, 626, 1024, max(reference), loads.id_bound):
            assert trace.load(pid) == reference[pid]
            assert trace.sent_by(pid) + trace.received_by(pid) == reference[pid]

    def test_queries_past_the_end_read_zero(self):
        trace = _one_shot("LOADS").trace
        for pid in (-1, len(trace._sent), 10**9):
            assert trace.load(pid) == 0
            assert trace.sent_by(pid) == trace.received_by(pid) == 0


class TestSizing:
    def test_columns_take_four_bytes_per_id_up_to_the_bound(self):
        network = _one_shot("LOADS")
        bound = max(network.registered_ids())
        empty = sys.getsizeof(array("i"))
        trace = network.trace
        for column in (trace._sent, trace._received):
            assert sys.getsizeof(column) - empty <= 4 * (bound + 1)
        assert network.id_bound == bound

    def test_nothing_is_allocated_before_the_first_count(self):
        network = Network(trace_level=TraceLevel.LOADS)
        network.register_lazy(range(1, 10**9), InertProcessor)
        assert network.id_bound == 10**9 - 1  # from the range's end
        assert len(network.trace._sent) == len(network.trace._received) == 0

    def test_registration_after_the_first_count_grows_the_columns(self):
        network = _pair()
        network.send(1, 2, "m", {})
        network.run_until_quiescent()
        assert len(network.trace._sent) == 3
        network.register(InertProcessor(40))
        network.register_lazy(range(41, 60), InertProcessor)
        assert len(network.trace._sent) == len(network.trace._received) == 60
        network.send(59, 40, "m", {})
        network.run_until_quiescent()
        assert network.trace.loads() == {1: 1, 2: 1, 40: 1, 59: 1}

    def test_an_unregistered_sender_past_the_end_is_counted(self):
        network = _pair()
        network.send(5_000, 1, "m", {})
        network.send(1, 2, "m", {})
        network.run_until_quiescent()
        trace = network.trace
        assert trace.sent_by(5_000) == 1
        assert trace.loads() == {1: 2, 2: 1, 5_000: 1}

    def test_a_negative_sender_is_refused(self):
        network = _pair()
        with pytest.raises(ValueError, match="negative"):
            network.send(-1, 2, "m", {})
        assert network.is_quiescent()

    def test_off_never_sizes_the_columns(self):
        network = _pair(TraceLevel.OFF)
        network.send(1, 2, "m", {})
        network.run_until_quiescent()
        network.register(InertProcessor(7))
        assert len(network.trace._sent) == 0


class TestRecordOnItsOwn:
    def test_an_id_past_the_end_grows_the_columns(self):
        trace = Trace(TraceLevel.LOADS)
        trace.record(_record(1, 2))
        trace.record(_record(5_000, 3))
        assert trace.sent_by(5_000) == 1
        assert trace.received_by(3) == 1
        assert trace.loads() == {1: 1, 2: 1, 3: 1, 5_000: 1}
        assert len(trace._sent) == len(trace._received) > 5_000

    def test_a_negative_id_is_refused_and_counts_nothing(self):
        trace = Trace(TraceLevel.LOADS)
        trace.record(_record(1, 2))
        with pytest.raises(ValueError, match="negative"):
            trace.record(_record(3, -4))
        assert trace.total_messages == 1
        assert trace.loads() == {1: 1, 2: 1}


class TestReset:
    def test_reset_zeroes_the_columns(self):
        session = RunSession("ww-tree", 81, trace_level="LOADS")
        session.run_sequence()
        network = session.network
        first = network.trace.loads()
        network.reset()
        trace = network.trace
        assert trace.loads() == {}
        assert trace.bottleneck() == (0, 0)
        assert trace.load(1) == 0 and trace.sent_by(1) == 0
        assert not any(trace._sent) and not any(trace._received)
        assert first  # the run before the reset did count


class TestBottleneck:
    @pytest.mark.parametrize("level", [TraceLevel.LOADS, TraceLevel.FULL])
    def test_empty_trace(self, level):
        assert Trace(level).bottleneck() == (0, 0)

    def test_ties_break_toward_the_smallest_pid(self):
        trace = Trace(TraceLevel.LOADS)
        for uid, (sender, receiver) in enumerate([(9, 4), (4, 9), (7, 2), (2, 7)]):
            trace.record(_record(sender, receiver, uid=uid))
        assert trace.bottleneck() == (2, 2)

    def test_a_pid_zero_sender_can_be_the_bottleneck(self):
        trace = Trace(TraceLevel.LOADS)
        trace.record(_record(0, 3))
        trace.record(_record(0, 4))
        assert trace.bottleneck() == (0, 2)


class TestOff:
    def test_off_raises_on_every_load_query(self):
        network = _pair(TraceLevel.OFF)
        network.send(1, 2, "m", {})
        network.run_until_quiescent()
        trace = network.trace
        for query in (trace.loads, trace.bottleneck):
            with pytest.raises(TraceCapabilityError):
                query()
        for query in (trace.load, trace.sent_by, trace.received_by):
            with pytest.raises(TraceCapabilityError):
                query(1)


class _Burst(Processor):
    """Sends *count* messages to processor 2 when poked."""

    def __init__(self, pid, count):
        super().__init__(pid)
        self.count = count

    def on_message(self, message: Message) -> None:
        for _ in range(self.count):
            self.send(2, "m", {})


class TestWidening:
    def test_the_drain_widens_before_a_count_passes_int_max(self):
        network = Network(trace_level=TraceLevel.LOADS)
        network.register_all([_Burst(1, 5), InertProcessor(2)])
        network.send(2, 1, "poke", {})
        network.run(1)  # sizes the columns at the first count
        trace = network.trace
        assert trace._sent.typecode == "i"
        # Pretend 2**31 - 3 messages have gone by, all from processor 1.
        trace._total = INT_MAX - 2
        trace._sent[1] = INT_MAX - 2
        network.run_until_quiescent()  # the burst of 5 from processor 1
        assert trace._sent.typecode == trace._received.typecode == "q"
        assert trace.sent_by(1) == INT_MAX + 3
        assert trace.total_messages == INT_MAX + 3
        assert trace.bottleneck() == (1, INT_MAX + 4)  # + the poke it got

    def test_a_drain_that_cannot_pass_it_keeps_32_bit_columns(self):
        network = _pair()
        network.send(1, 2, "m", {})
        network.run_until_quiescent()
        network.trace._total = INT_MAX - 5_000
        network.send(1, 2, "m", {})
        network.run(10)
        assert network.trace._sent.typecode == "i"

    def test_record_widens_too(self):
        trace = Trace(TraceLevel.LOADS)
        trace.record(_record(1, 2))
        trace._total = INT_MAX
        trace._received[2] = INT_MAX
        trace.record(_record(1, 2))
        assert trace._received.typecode == "q"
        assert trace.received_by(2) == INT_MAX + 1
