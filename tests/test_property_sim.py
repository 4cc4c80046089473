"""Property-based tests for the simulator substrate."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.events import EventQueue
from repro.sim.messages import MessageRecord
from repro.sim.network import Network
from repro.sim.policies import RandomDelay
from repro.sim.processor import InertProcessor, Processor
from repro.sim.trace import Trace
from repro.sim.transport import DATA_KIND, ReliableTransport

edges = st.lists(
    st.tuples(st.integers(1, 20), st.integers(1, 20)),
    min_size=0,
    max_size=60,
)


class TestTraceConservation:
    @given(edges=edges)
    def test_load_conservation(self, edges):
        """Σ_p m_p = 2 · messages, always (§3's accounting identity)."""
        trace = Trace()
        for uid, (sender, receiver) in enumerate(edges):
            trace.record(
                MessageRecord(
                    sender=sender, receiver=receiver, kind="m",
                    op_index=uid % 3, uid=uid, send_time=0.0, deliver_time=1.0,
                )
            )
        assert sum(trace.loads().values()) == 2 * len(edges)

    @given(edges=edges)
    def test_sent_plus_received_equals_load(self, edges):
        trace = Trace()
        for uid, (sender, receiver) in enumerate(edges):
            trace.record(
                MessageRecord(
                    sender=sender, receiver=receiver, kind="m",
                    op_index=0, uid=uid, send_time=0.0, deliver_time=1.0,
                )
            )
        for pid in range(1, 21):
            assert trace.load(pid) == trace.sent_by(pid) + trace.received_by(pid)

    @given(edges=edges)
    def test_bottleneck_is_max_load(self, edges):
        trace = Trace()
        for uid, (sender, receiver) in enumerate(edges):
            trace.record(
                MessageRecord(
                    sender=sender, receiver=receiver, kind="m",
                    op_index=0, uid=uid, send_time=0.0, deliver_time=1.0,
                )
            )
        pid, load = trace.bottleneck()
        assert load == max(trace.loads().values(), default=0)
        if edges:
            assert trace.load(pid) == load

    @given(edges=edges, boundary=st.integers(0, 3))
    def test_snapshot_plus_tail_equals_total(self, edges, boundary):
        """Loads before op i plus loads from op >= i equal total loads."""
        trace = Trace()
        for uid, (sender, receiver) in enumerate(edges):
            trace.record(
                MessageRecord(
                    sender=sender, receiver=receiver, kind="m",
                    op_index=uid % 3, uid=uid, send_time=0.0, deliver_time=1.0,
                )
            )
        before = trace.load_snapshot(boundary)
        tail: dict[int, int] = {}
        for op in range(boundary, 3):
            for pid, load in trace.load_within_op(op).items():
                tail[pid] = tail.get(pid, 0) + load
        combined = dict(before)
        for pid, load in tail.items():
            combined[pid] = combined.get(pid, 0) + load
        assert combined == trace.loads()


class TestEventQueueProperties:
    @given(delays=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=50))
    def test_pop_order_is_nondecreasing_in_time(self, delays):
        queue = EventQueue()
        for delay in delays:
            queue.schedule(delay, lambda: None)
        popped = []
        while queue:
            popped.append(queue.pop().time)
        assert popped == sorted(popped)

    @given(delays=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=30))
    def test_now_never_goes_backwards(self, delays):
        queue = EventQueue()
        for delay in delays:
            queue.schedule(delay, lambda: None)
        previous = queue.now
        while queue:
            queue.pop()
            assert queue.now >= previous
            previous = queue.now


class TestNetworkProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        sends=st.lists(
            st.tuples(st.integers(1, 8), st.integers(1, 8)),
            min_size=0,
            max_size=40,
        ),
        seed=st.integers(0, 1000),
    )
    def test_every_sent_message_is_delivered_once(self, sends, seed):
        network = Network(policy=RandomDelay(seed=seed))
        network.register_all([InertProcessor(pid) for pid in range(1, 9)])
        for sender, receiver in sends:
            network.send(sender, receiver, "m", {})
        network.run_until_quiescent()
        assert network.trace.total_messages == len(sends)
        assert network.in_flight == 0

    @settings(max_examples=25, deadline=None)
    @given(
        sends=st.lists(
            st.tuples(st.integers(1, 8), st.integers(1, 8)),
            min_size=0,
            max_size=40,
        ),
        seed=st.integers(0, 1000),
    )
    def test_loads_independent_of_delays(self, sends, seed):
        """For a fixed send multiset, loads never depend on delivery."""

        def loads_with(policy):
            network = Network(policy=policy)
            network.register_all([InertProcessor(pid) for pid in range(1, 9)])
            for sender, receiver in sends:
                network.send(sender, receiver, "m", {})
            network.run_until_quiescent()
            return network.trace.loads()

        assert loads_with(RandomDelay(seed=seed)) == loads_with(
            RandomDelay(seed=seed + 1)
        )


class _Log(Processor):
    def __init__(self, pid):
        super().__init__(pid)
        self.delivered = []

    def on_message(self, message):
        self.delivered.append((message.sender, message.payload["seq"]))


class TestTransportReceiveWindow:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), m=st.integers(0, 12), source_count=st.integers(1, 4))
    def test_watermark_receiver_equals_the_set_model(self, data, m, source_count):
        """Any arrival order, any repeats, any interleaving of sources:
        the first copy of each seq is delivered, in arrival order, and
        every other copy is counted — exactly what one ``set`` per
        channel of everything ever seen would do."""
        sources = range(2, 2 + source_count)
        every = [(source, seq) for source in sources for seq in range(m + 1)]
        arrivals = data.draw(st.lists(st.sampled_from(every), max_size=60))
        # ...and then every seq 0..m from every source at least once.
        arrivals += data.draw(st.permutations(every))

        network = Network()
        transport = ReliableTransport(network)
        log = _Log(1)
        transport.register(log)
        network.register_all([InertProcessor(pid) for pid in sources])
        for source, seq in arrivals:
            network.send(
                source, 1, DATA_KIND, {"seq": seq, "kind": "m", "data": {"seq": seq}}
            )
            network.run_until_quiescent()

        seen = {source: set() for source in sources}
        expected, duplicates = [], 0
        for source, seq in arrivals:
            if seq in seen[source]:
                duplicates += 1
            else:
                seen[source].add(seq)
                expected.append((source, seq))
        assert log.delivered == expected
        stats = transport.stats()
        assert stats["duplicates_suppressed"] == duplicates
        assert stats["delivered"] == len(every)
        assert stats["acks_sent"] == len(arrivals)
        assert transport._ahead == {}  # no set outlives its gap
        assert transport.held() == {
            "channels": source_count, "pending": 0, "out_of_order": 0,
        }
