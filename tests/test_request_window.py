"""The request window behind both crash-tolerant counters.

A client names each request ``(origin, seq)`` and sends with it its
lowest open seq, the *floor*.  The standby pair's primary and replica
and every bypass-tree host keep one window per origin: a retry at or
above the floor is answered with the value it got first, a retry below
it gets nothing, and no retry reserves a second value.
"""

from __future__ import annotations

import pytest

from repro.counters.combining_tree import KIND_CLIENT_GRANT, KIND_REQUEST
from repro.counters.recoverable import (
    KIND_SC_COMMIT,
    KIND_SC_INC,
    KIND_SC_RESULT,
    RETRY_CAP,
)
from repro.registry import RunSession
from repro.workloads import round_robin
from repro.workloads.driver import run_staggered_timed

pytestmark = pytest.mark.recovery


def _spy(network, pid):
    """Record ``(kind, payload)`` of every message *pid* receives."""
    seen = []
    node = network.processor(pid)
    deliver = node.on_message

    def on_message(message):
        seen.append((message.kind, message.payload))
        deliver(message)

    node.on_message = on_message
    return seen


def _two_ops_of_pid_3(spec):
    """Pid 3 increments twice (seq 0, then seq 1): every server's window
    for origin 3 has floor 1 and holds the value of seq 1 only."""
    session = RunSession(spec, 4)
    assert session.run_sequence([1, 3, 3]).values() == [0, 1, 2]
    return session, _spy(session.network, 3)


class TestStandbyWindow:
    def test_a_retry_at_the_floor_is_answered_with_its_first_value(self):
        session, seen = _two_ops_of_pid_3("central[standby]")
        primary = session.network.processor(1)
        session.network.send(3, 1, KIND_SC_INC, {"rid": (3, 1, 1)})
        session.network.run_until_quiescent()
        assert seen == [(KIND_SC_RESULT, {"rid": (3, 1, 1), "value": 2})]
        assert primary._next_value == 3

    def test_a_retry_below_the_floor_gets_no_value(self):
        session, seen = _two_ops_of_pid_3("central[standby]")
        primary = session.network.processor(1)
        session.network.send(3, 1, KIND_SC_INC, {"rid": (3, 0, 0)})
        session.network.run_until_quiescent()
        assert seen == []
        assert primary._next_value == 3

    def test_the_replica_answers_a_commit_at_the_floor_with_its_first_value(self):
        session, seen = _two_ops_of_pid_3("central[standby]")
        replica = session.network.processor(2)
        commit = {"rid": (3, 1, 1), "value": 7, "epoch": 1}
        session.network.send(1, 2, KIND_SC_COMMIT, commit)
        session.network.run_until_quiescent()
        assert seen == [(KIND_SC_RESULT, {"rid": (3, 1, 1), "value": 2})]
        assert replica._mirror_next == 3

    def test_the_replica_drops_a_commit_below_the_floor(self):
        session, seen = _two_ops_of_pid_3("central[standby]")
        replica = session.network.processor(2)
        commit = {"rid": (3, 0, 0), "value": 7, "epoch": 1}
        session.network.send(1, 2, KIND_SC_COMMIT, commit)
        session.network.run_until_quiescent()
        assert seen == []
        assert replica._mirror_next == 3


class TestBypassEntryWindow:
    """Pid 3 enters the n = 4 binary tree at node 1, hosted on pid 2."""

    @staticmethod
    def _retry(session, seq, floor):
        request = {
            "node": 1, "from_kind": "client", "from_id": 3, "count": 1,
            "batch": seq, "floor": floor,
        }
        session.network.send(3, 2, KIND_REQUEST, request)
        session.network.run_until_quiescent()

    def test_a_retry_at_the_floor_is_answered_with_its_first_value(self):
        session, seen = _two_ops_of_pid_3("combining-tree[bypass]")
        self._retry(session, seq=1, floor=1)
        assert seen == [(KIND_CLIENT_GRANT, {"value": 2, "seq": 1})]
        assert session.counter.value == 3
        assert session.counter.burned_values == 0

    def test_a_retry_below_the_floor_gets_no_value(self):
        session, seen = _two_ops_of_pid_3("combining-tree[bypass]")
        self._retry(session, seq=0, floor=0)
        assert seen == []
        assert session.counter.value == 3


class TestBypassRetries:
    @pytest.mark.parametrize("n", [32, 64])
    def test_spurious_retries_under_random_delays_burn_no_value(self, n):
        # The default retry (90) fires while deep trees are still
        # answering: a retry of a live request must not take a value.
        for seed in range(30):
            session = RunSession(
                "combining-tree[bypass]", n, policy="random", seed=seed
            )
            session.run_sequence()  # raises on any skipped value
            assert session.counter.burned_values == 0

    @pytest.mark.parametrize("n, layers", [(2, 1), (8, 3), (32, 5), (64, 6)])
    def test_a_bypass_client_tries_25_times_per_tree_layer(self, n, layers):
        assert RunSession("combining-tree[bypass]", n).counter.retry_cap == (
            RETRY_CAP * layers
        )
        assert RunSession("central[standby]", n).counter.retry_cap == RETRY_CAP

    def test_a_deep_tree_under_heavy_loss_answers_every_op(self):
        # A try at n = 32 climbs five layers and its answer comes back
        # down them, each hop dropping a fifth of its messages: with 25
        # tries in all, seeds 16, 35 and 37 left an op without a result.
        for seed in range(40):
            session = RunSession(
                "combining-tree[bypass]", 32, policy="random", seed=seed,
                faults="drop=0.2,dup=0.1",
            )
            ops = session.run_staggered(gap=4.0)  # raises on an unanswered op
            assert sorted(op.value for op in ops) == list(range(32))

    def test_two_open_ops_on_one_pid_each_keep_their_own_retry_chain(self):
        session = RunSession(
            "combining-tree[bypass]?retry=6", 8, policy="random", seed=0
        )
        network = session.network
        sends, closes, accepted = [], {}, []
        for pid in range(1, 9):
            host = network.processor(pid)

            def spy(host=host, resend=host._resend, accept=host._accept):
                def on_resend(seq):
                    sends.append((host.pid, seq, network.now))
                    resend(seq)

                def on_accept(seq, value):
                    if seq in host._open:
                        closes[(host.pid, seq)] = network.now
                        accepted.append((host.pid, seq, value))
                    accept(seq, value)

                host._resend, host._accept = on_resend, on_accept

            spy()
        ops = run_staggered_timed(session.counter, round_robin(8, 2), gap=0.5)
        assert sorted(op.value for op in ops) == list(range(16))
        # Each pid's two values came through seqs 0 and 1, once each.
        assert sorted((pid, seq) for pid, seq, _ in accepted) == [
            (pid, seq) for pid in range(1, 9) for seq in (0, 1)
        ]
        assert len(sends) > 16  # the small retry did fire
        for pid, seq, at in sends:
            assert at <= closes[(pid, seq)], f"pid {pid} retried closed seq {seq}"
