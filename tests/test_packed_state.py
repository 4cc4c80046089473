"""What a finished run keeps per operation is held in columns, not objects.

A sealed operation's footprint and message count live in the trace's
flat columns and every completed operation in
:class:`~repro.workloads.driver.Outcomes`; a faulty run's logs too — the
fault plan's ledger, the tree's retirement log and the reliable
transport's per-channel tables.  ``TestAgainstTheRecordStream``
recomputes each view independently from a ``FULL`` trace's records and
compares; the ledger, log and channel classes do the same for theirs.
The direct classes pin the edge cases the columns have to get right,
and ``TestServingStaysFlat`` that an owner which releases as it goes — a
keyed shard, a plain service — holds a fixed amount however many
operations pass.
"""

from __future__ import annotations

import asyncio
import copy
import gc
import random
import tracemalloc
from array import array
from collections import Counter, defaultdict

import pytest

from repro.core.tree.roles import RetirementEvent
from repro.registry import RunSession
from repro.serve import CounterService
from repro.shard import CounterShardMap
from repro.sim.columns import Values
from repro.sim.faults import (
    CrashRule,
    DropRule,
    DuplicateRule,
    FaultPlan,
    FaultRecord,
    MixedRule,
    PartitionRule,
    ReorderRule,
    _Ledger,
)
from repro.sim.messages import NO_OP, MessageRecord
from repro.sim.network import Network
from repro.sim.policies import RandomDelay
from repro.sim.processor import InertProcessor, Processor
from repro.sim.trace import Trace, TraceLevel
from repro.sim.transport import DATA_KIND, ReliableTransport
from repro.workloads.driver import OpOutcome, Outcomes

from conftest import all_values, observed

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

        # every op's value is the one its initiator's process delivered:
        # sequential, so op i returns i
        expected = [
            OpOutcome(op, pid, op, len(by_op[op])) for op, pid in enumerate(order)
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


class TestResultColumns:
    def test_values_that_are_not_ints_are_kept_as_they_are(self):
        column = Values()
        for value in (7, -(2**63)):
            column.append(value)
        assert type(column._items) is array  # ints stay unboxed
        for value in (True, ("heap", [1, 2]), 2**70, 3):
            column.append(value)
        assert list(column) == [7, -(2**63), True, ("heap", [1, 2]), 2**70, 3]
        assert column[2] is True and len(column) == 6

    def test_outcome_columns_keep_any_value(self):
        outcomes = Outcomes()
        outcomes.add(0, 4, True, 3)
        outcomes.add(1, 2, None, -1)
        outcomes.add(2, 1, 2**70, 5)
        assert list(outcomes) == [
            OpOutcome(0, 4, True, 3), OpOutcome(1, 2, None, -1),
            OpOutcome(2, 1, 2**70, 5),
        ]
        assert outcomes[0].value is True and outcomes[1].value is None
        assert len(outcomes) == 3
        with pytest.raises(IndexError):
            outcomes[3]


def _held(session):
    """What a served session holds that could grow with its op count."""
    trace = session.network.trace
    leaves = getattr(session.counter, "leaves", None)  # a ww-tree's
    return {
        "op_counts": len(trace._op_counts),
        "live_footprints": len(trace._footprints),
        "sealed": [
            len(column)
            for column in (trace._sealed, trace._sealed_at, trace._sealed_width)
        ],
        "leaf_parents": 0 if leaves is None else len(leaves.parents),
    }


class TestServingStaysFlat:
    """An owner that releases as it goes holds a fixed amount however
    many operations pass: the trace's per-op columns do not grow, the
    counter keeps no results, and all that is still held afterwards —
    the tree's retirement log included — stays under 60 traced bytes an
    operation."""

    def test_a_keyed_shard_holds_a_fixed_amount_of_per_op_state(self):
        """2 000 batches through one keyed shard after 200 of warm-up."""
        shard_map = CounterShardMap(
            "ww-tree?interval_mode=wrap", 8, shards=1, batch_max=1,
            trace_level="LOADS",
        )
        (shard,) = shard_map.shards()
        counter = shard.session.counter
        assert shard_map.apply([f"k{i % 7}" for i in range(200)])[-1] == 28
        warm = _held(shard.session)
        retired = len(counter.retirements)
        gc.collect()
        tracemalloc.start()
        try:
            values = shard_map.apply([f"k{i % 7}" for i in range(2_000)])
            gc.collect()
            per_batch = tracemalloc.get_traced_memory()[0] / 2_000
        finally:
            tracemalloc.stop()
        assert values[-1] == 313
        assert shard.batches == 2_200
        assert _held(shard.session) == warm
        assert warm["sealed"] == [0, 0, 0] and not shard.delivered
        assert len(counter.retirements) - retired > 1_000  # the log did grow
        assert per_batch <= 60, f"{per_batch:.0f} traced bytes per batch"

    @staticmethod
    def _serve(spec):
        """2 000 in-process increments on a plain service after 200 of
        warm-up, one in flight at a time: the service, what its session
        held after the warm-up, and the traced bytes per request."""

        async def serve():
            service = CounterService(spec, 8, trace_level="LOADS")
            await service.start()
            try:
                for _ in range(200):
                    await service.inc()
                warm = _held(service.session)
                gc.collect()
                tracemalloc.start()
                try:
                    for _ in range(2_000):
                        await service.inc()
                    gc.collect()
                    per_request = tracemalloc.get_traced_memory()[0] / 2_000
                finally:
                    tracemalloc.stop()
                return service, warm, per_request
            finally:
                await service.stop()

        service, warm, per_request = asyncio.run(serve())
        assert service.served == 2_200 and service.inflight == 0
        assert _held(service.session) == warm
        assert warm["op_counts"] == warm["live_footprints"] == 0
        return per_request

    def test_a_plain_service_holds_a_fixed_amount_of_per_request_state(self):
        per_request = self._serve("ww-tree?interval_mode=wrap")
        assert per_request <= 60, f"{per_request:.0f} traced bytes per request"

    @pytest.mark.parametrize(
        "spec", ["central[standby]", "combining-tree[bypass]"]
    )
    def test_a_crash_tolerant_counter_forgets_each_answered_request(self, spec):
        # Its servers keep one window per origin, not one entry per
        # request ever served.
        per_request = self._serve(spec)
        assert per_request <= 40, f"{per_request:.0f} traced bytes per request"


# ----------------------------------------------------------------------
# A faulty run's logs: ledger, retirement log, channel tables
# ----------------------------------------------------------------------
def _blast_rounds(network, rounds, pids):
    """Every round, each pid sends one int payload to the next; the
    network drains between rounds, so send times climb."""
    for round_ in range(rounds):
        for at, pid in enumerate(pids):
            network.send(pid, pids[(at + 1) % len(pids)], "m", {"i": round_})
        network.run_until_quiescent()


class TestFaultLedger:
    FAMILIES = {
        "drop", "duplicate", "reorder", "partition", "crash",
        "corrupt", "equivocate", "silence",
    }

    def _plan(self):
        plan = FaultPlan(
            [
                DropRule(0.05),
                DuplicateRule(0.05),
                ReorderRule(0.05),
                PartitionRule([1, 2], [3, 4], start=10.0, end=30.0),
                CrashRule(5, start=40.0, end=70.0),
                MixedRule(2),
            ],
            seed=3,
        )
        plan.bind_clients(8)
        return plan

    def _run(self, plan):
        network = Network(fault_plan=plan, trace_level=TraceLevel.FULL)
        network.register_all([InertProcessor(pid) for pid in range(1, 9)])
        _blast_rounds(network, 120, list(range(1, 9)))
        return network.trace

    def test_every_family_round_trips_against_the_full_trace(self):
        """Test-built records of every family come back out of the
        columns as they went in; on a real run, the FULL trace never
        delivers a uid the ledger says was lost and delivers a uid it
        says was duplicated at least twice."""
        built = [
            FaultRecord(
                time=0.5 * at, kind=kind, sender=at + 1, receiver=at + 2,
                op_index=at - 1, uid=(1 << 40) + at, detail=f"{kind} #{at}",
            )
            for at, kind in enumerate(sorted(self.FAMILIES) * 3)
        ]
        ledger = _Ledger()
        for record in built:
            ledger.add(*record)
        assert list(ledger) == built and ledger == built
        assert len(ledger) == len(built)
        assert [ledger[at] for at in (0, 5, -1)] == [
            built[0], built[5], built[-1]
        ]
        assert ledger[3:20:4] == built[3:20:4]
        assert all(type(record) is FaultRecord for record in ledger)
        assert str(ledger[-1]) == str(built[-1])

        plan = self._plan()
        trace = self._run(plan)
        events = plan.events
        assert {record.kind for record in events} == self.FAMILIES
        assert len(set(record.detail for record in events)) > 20
        assert plan.counts == dict(Counter(record.kind for record in events))
        deliveries = Counter(record.uid for record in trace.records)
        lost = {
            record.uid
            for record in events
            if record.kind in {"drop", "partition", "crash", "silence"}
        }
        copied = {
            record.uid for record in events if record.kind == "duplicate"
        } - lost
        assert lost and copied
        assert not any(deliveries[uid] for uid in lost)
        assert all(deliveries[uid] >= 2 for uid in copied)

    def test_reset_and_fork_start_an_empty_ledger(self):
        plan = self._plan()
        self._run(plan)
        first = list(plan.events)
        fork = plan.fork()
        assert len(fork.events) == 0 and fork.counts == {}
        plan.reset()
        assert len(plan.events) == 0 and plan.events == [] and plan.counts == {}
        self._run(plan)
        assert plan.events == first  # not first twice over
        self._run(fork)
        assert fork.events == first

    def test_the_ledger_cannot_be_changed_from_outside(self):
        plan = self._plan()
        self._run(plan)
        events = plan.events
        size = len(events)
        for mutate in (
            lambda: events.append(events[0]),
            lambda: events.clear(),
            lambda: events.extend([]),
            lambda: events.__setitem__(0, events[1]),
            lambda: events.__delitem__(0),
        ):
            with pytest.raises((AttributeError, TypeError)):
                mutate()
        assert len(plan.events) == size
        assert sum(plan.counts.values()) == size


class TestRetirementLog:
    def _session(self):
        """A session whose registry notes each retirement as the role
        stands when it is committed, before the log is written."""
        session = RunSession("ww-tree", 625, policy="random", seed=2,
                             trace_level="FULL")
        registry = session.counter.registry
        returned = []
        commit = registry.commit_retirement

        def recording(role, new_worker, op_index, time):
            returned.append(RetirementEvent(
                op_index, role.node, role.worker, new_worker, role.age, time
            ))
            event = commit(role, new_worker, op_index=op_index, time=time)
            assert event == returned[-1]
            return event

        registry.commit_retirement = recording
        return session, returned

    def test_the_log_equals_each_retirement_as_committed(self):
        session, returned = self._session()
        order = list(range(1, 626))
        random.Random(2).shuffle(order)
        session.run_sequence(order)
        counter = session.counter
        log = counter.retirements
        assert len(returned) > 100
        level_of = counter.geometry.level_of
        assert {level_of(event.node) for event in returned} == {0, 1, 2, 3}
        assert list(log) == returned and log == returned
        assert counter.registry.retirements is log
        assert [log[at] for at in (0, 7, -1)] == [
            returned[0], returned[7], returned[-1]
        ]
        assert log[10:20] == returned[10:20]
        assert counter.registry.retirement_counts_by_level() == {
            level: sum(level_of(e.node) == level for e in returned)
            for level in counter.registry.geometry.inner_levels()
        }

    def test_the_log_cannot_be_changed_from_outside(self):
        session, _ = self._session()
        session.run_sequence()
        log = session.counter.retirements
        size = len(log)
        for mutate in (
            lambda: log.append(log[0]),
            lambda: log.clear(),
            lambda: log.__setitem__(0, log[1]),
            lambda: log.__delitem__(0),
        ):
            with pytest.raises((AttributeError, TypeError)):
                mutate()
        assert len(session.counter.registry.retirements) == size


class _Log(Processor):
    def __init__(self, pid):
        super().__init__(pid)
        self.delivered = []

    def on_message(self, message):
        self.delivered.append((message.sender, dict(message.payload)))


def _channel_tables(endpoint):
    """An endpoint's two flat tables (peers, a sentinel slot, then an
    int per peer), read back as peer → int dicts."""
    out, outs = endpoint._out, endpoint._outs
    into, ins = endpoint._in, endpoint._ins
    assert len(out) == 2 * outs + 1 and len(into) == 2 * ins + 1
    return (
        dict(zip(out[:outs], out[outs + 1:])),
        dict(zip(into[:ins], into[ins + 1:])),
    )


def _assert_settled(transport, records):
    """With nothing given up, each channel that carried data (named by a
    ``FULL`` trace's *records*) holds one int each way, and they agree:
    the next seq out equals the watermark in.  They sum to the envelopes
    sent, each delivered once."""
    sent, marks = {}, {}
    for pid, endpoint in transport._endpoints.items():
        out, into = _channel_tables(endpoint)
        sent.update(((pid, peer), seq) for peer, seq in out.items())
        marks.update(((peer, pid), mark) for peer, mark in into.items())
    carried = {(r.sender, r.receiver) for r in records if r.kind == DATA_KIND}
    assert sent == marks and sent.keys() == carried
    stats = transport.stats()
    assert sum(sent.values()) == stats["data_sent"] == stats["delivered"]
    assert transport.held() == {
        "channels": len(carried), "pending": 0, "out_of_order": 0,
    }


class TestChannelTables:
    def _hub(self, peers, plan=None):
        network = Network(
            policy=RandomDelay(seed=4), fault_plan=plan,
            trace_level=TraceLevel.FULL,
        )
        transport = ReliableTransport(network)
        transport.register_all([_Log(pid) for pid in range(1, peers + 2)])
        return network, transport

    def test_a_hub_with_forty_five_peers_over_a_lossy_wire(self):
        # Per-peer counts span the peer ids, so a seq or watermark
        # equals some other peer's id in both of the hub's tables.
        plan = FaultPlan([DropRule(0.1), DuplicateRule(0.1)], seed=6)
        network, transport = self._hub(45, plan)
        hub = transport.processor(1)
        sends = [pid for pid in range(2, 47) for _ in range(pid % 17)]
        random.Random(6).shuffle(sends)
        for pid in sends:
            transport.send(1, pid, "m", {"to": pid})
            transport.send(pid, 1, "m", {"from": pid})
        transport.run_until_quiescent()
        expected = {pid: pid % 17 for pid in range(2, 47) if pid % 17}
        sent, marks = _channel_tables(transport._endpoints[1])
        assert sent == marks == expected
        assert len(expected) >= 40
        assert Counter(s for s, _ in hub.delivered) == expected
        assert transport.stats()["duplicates_suppressed"] > 0
        _assert_settled(transport, network.trace.records)

    def test_a_first_arrival_above_the_watermark_stores_no_watermark(self):
        network, transport = self._hub(2)
        for seq in (2, 1):
            network.send(3, 1, DATA_KIND, {"seq": seq, "kind": "m", "data": {}})
            network.run_until_quiescent()
        assert transport.held() == {"channels": 0, "pending": 0, "out_of_order": 2}
        assert _channel_tables(transport._endpoints[1]) == ({}, {})
        network.send(3, 1, DATA_KIND, {"seq": 0, "kind": "m", "data": {}})
        network.run_until_quiescent()
        assert transport.held() == {"channels": 1, "pending": 0, "out_of_order": 0}
        assert _channel_tables(transport._endpoints[1]) == ({}, {3: 3})
        assert len(transport.processor(1).delivered) == 3

    def test_a_silent_give_up_leaves_its_hole_and_no_watermark(self):
        plan = FaultPlan([CrashRule(2, start=0.0, end=12.0)], seed=1)
        network = Network(fault_plan=plan, trace_level=TraceLevel.FULL)
        transport = ReliableTransport(network, rto=5.0, max_retries=1)
        transport.register_all([_Log(1), _Log(2)])
        transport.send(1, 2, "m", {"i": 0})
        transport.run_until_quiescent()
        assert transport.stats()["gave_up"] == 1
        for index in range(1, 41):
            transport.send(1, 2, "m", {"i": index})
            transport.send(2, 1, "m", {"i": index})
        transport.run_until_quiescent()
        assert _channel_tables(transport._endpoints[1]) == ({2: 41}, {2: 40})
        assert _channel_tables(transport._endpoints[2]) == ({1: 40}, {})
        assert transport.held() == {"channels": 1, "pending": 0, "out_of_order": 40}
        delivered = transport.processor(2).delivered
        assert [payload["i"] for _, payload in delivered] == list(range(1, 41))

    def test_a_faulty_reliable_session_copied_mid_run_finishes_identically(self):
        n = 625
        session = RunSession(
            "ww-tree", n, policy="random", seed=8, faults="drop=0.05,dup=0.05",
            reliable=True, trace_level="FULL",
        )
        order = list(range(1, n + 1))
        random.Random(8).shuffle(order)
        received = observed(session.counter)
        for op_index, pid in enumerate(order):
            session.counter.begin_inc(pid, op_index)
        session.network.run(6_000)
        assert not session.network.is_quiescent()
        clone, clone_received = copy.deepcopy((session, received))
        for each, record in ((session, received), (clone, clone_received)):
            each.network.run_until_quiescent()
            assert all_values(record) == list(range(n))
            _assert_settled(each.transport, each.network.trace.records)
        assert clone.network.trace.fingerprint() == session.network.trace.fingerprint()
        assert list(clone.fault_plan.events) == list(session.fault_plan.events)
        assert clone.counter.retirements == session.counter.retirements
        assert clone.transport.held() == session.transport.held()
        assert clone.transport.stats() == session.transport.stats()
