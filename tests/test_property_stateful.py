"""Stateful property tests: hypothesis drives ADTs against models.

A :class:`RuleBasedStateMachine` interleaves operations and processors
arbitrarily, comparing the distributed structure against an in-memory
model after every step — the strongest conformance check in the suite.
"""

from __future__ import annotations

import heapq

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.core import IntervalMode, TreeGeometry, TreePolicy
from repro.counters.recoverable import (
    BypassCombiningTreeCounter,
    StandbyCentralCounter,
)
from repro.datatypes import (
    DELETE_MIN,
    FLIP,
    INSERT,
    PEEK,
    DistributedFlipBit,
    DistributedPriorityQueue,
)
from repro.sim.network import Network

from conftest import all_values, observed

_N = 8  # k = 2 tree: small enough for fast stateful runs
_POLICY = TreePolicy(retire_threshold=8, interval_mode=IntervalMode.WRAP)


class PriorityQueueMachine(RuleBasedStateMachine):
    """Distributed priority queue vs heapq, arbitrary interleaving."""

    @initialize()
    def setup(self):
        self.network = Network()
        self.queue = DistributedPriorityQueue(
            self.network,
            _N,
            geometry=TreeGeometry.paper_shape(2),
            policy=_POLICY,
        )
        self.received = observed(self.queue)
        self.model: list[int] = []
        self.op_index = 0

    def _execute(self, pid, request):
        self.queue.begin_op(pid, self.op_index, request)
        self.network.run_until_quiescent()
        self.op_index += 1
        return self.received.take()[pid][-1][0]

    @rule(pid=st.integers(1, _N), key=st.integers(0, 999))
    def insert(self, pid, key):
        reply = self._execute(pid, (INSERT, key))
        heapq.heappush(self.model, key)
        assert reply == len(self.model)

    @rule(pid=st.integers(1, _N))
    def delete_min(self, pid):
        reply = self._execute(pid, (DELETE_MIN,))
        expected = heapq.heappop(self.model) if self.model else None
        assert reply == expected

    @rule(pid=st.integers(1, _N))
    def peek(self, pid):
        reply = self._execute(pid, (PEEK,))
        expected = self.model[0] if self.model else None
        assert reply == expected

    @invariant()
    def sizes_agree(self):
        if hasattr(self, "queue"):
            assert len(self.queue) == len(self.model)

    @invariant()
    def network_quiescent_between_ops(self):
        if hasattr(self, "network"):
            assert self.network.is_quiescent()


class FlipBitMachine(RuleBasedStateMachine):
    """Distributed flip bit vs a plain int, arbitrary interleaving."""

    @initialize()
    def setup(self):
        self.network = Network()
        self.bit = DistributedFlipBit(
            self.network,
            _N,
            geometry=TreeGeometry.paper_shape(2),
            policy=_POLICY,
        )
        self.received = observed(self.bit)
        self.model = 0
        self.op_index = 0

    def _execute(self, pid, request):
        self.bit.begin_op(pid, self.op_index, request)
        self.network.run_until_quiescent()
        self.op_index += 1
        return self.received.take()[pid][-1][0]

    @rule(pid=st.integers(1, _N))
    def flip(self, pid):
        reply = self._execute(pid, FLIP)
        assert reply == self.model
        self.model ^= 1

    @rule(pid=st.integers(1, _N))
    def read(self, pid):
        reply = self._execute(pid, "read")
        assert reply == self.model

    @invariant()
    def state_matches_model(self):
        if hasattr(self, "bit"):
            assert self.bit.state == self.model


class StandbyCentralMachine(RuleBasedStateMachine):
    """``central[standby]`` under arbitrary suspicion/recovery storms.

    The failure-detector hooks (`on_processor_suspected` /
    `on_processor_restored` / `on_processor_recovered`) are driven
    directly between increments — the *false suspicion* regime, where
    the accused seat is actually alive and well.  Epoch fencing must
    keep a deposed-but-alive primary from split-braining, so the
    counter still hands out every value exactly once.
    """

    @initialize()
    def setup(self):
        self.network = Network()
        self.counter = StandbyCentralCounter(self.network, _N)
        self.received = observed(self.counter)
        self.expected = 0
        self.op_index = 0

    def _seats(self):
        return (self.counter.primary_id, self.counter.standby_id)

    @rule(pid=st.integers(1, _N))
    def inc(self, pid):
        self.counter.begin_inc(pid, self.op_index)
        self.op_index += 1
        self.expected += 1
        self.network.run_until_quiescent()

    @rule(seat=st.sampled_from([0, 1]))
    def suspect_seat(self, seat):
        self.counter.on_processor_suspected(
            self._seats()[seat], self.network.now
        )
        self.network.run_until_quiescent()

    @rule(seat=st.sampled_from([0, 1]))
    def restore_seat(self, seat):
        self.counter.on_processor_restored(
            self._seats()[seat], self.network.now
        )
        self.network.run_until_quiescent()

    @rule(seat=st.sampled_from([0, 1]), with_checkpoint=st.booleans())
    def recover_seat(self, seat, with_checkpoint):
        checkpoint = {"next_value": 0, "epoch": 1} if with_checkpoint else None
        self.counter.on_processor_recovered(
            self._seats()[seat], self.network.now, checkpoint
        )
        self.network.run_until_quiescent()

    @invariant()
    def every_inc_answered_exactly_once(self):
        if not hasattr(self, "counter"):
            return
        values = all_values(self.received)
        assert len(values) == self.expected
        assert sorted(values) == list(range(self.expected))

    @invariant()
    def some_seat_holds_the_primary_role(self):
        if hasattr(self, "counter"):
            assert self.counter.current_primary in self._seats()


class BypassTreeMachine(RuleBasedStateMachine):
    """``combining-tree[bypass]`` under arbitrary routing-table storms.

    Hosts are suspected/restored/recovered between increments while
    staying physically alive, so requests detour through live ancestors
    (or straight to the migrating root holder).  At-most-once is the
    contract: no value may ever be delivered twice, and with no real
    crashes every issued increment must still complete.
    """

    @initialize()
    def setup(self):
        self.network = Network()
        self.counter = BypassCombiningTreeCounter(self.network, _N)
        self.received = observed(self.counter)
        self.hosts = self.counter.critical_pids()
        self.expected = 0
        self.op_index = 0

    @rule(pid=st.integers(1, _N))
    def inc(self, pid):
        self.counter.begin_inc(pid, self.op_index)
        self.op_index += 1
        self.expected += 1
        self.network.run_until_quiescent()

    @rule(index=st.integers(0, _N - 1))
    def suspect_host(self, index):
        self.counter.on_processor_suspected(
            self.hosts[index % len(self.hosts)], self.network.now
        )
        self.network.run_until_quiescent()

    @rule(index=st.integers(0, _N - 1))
    def restore_host(self, index):
        self.counter.on_processor_restored(
            self.hosts[index % len(self.hosts)], self.network.now
        )
        self.network.run_until_quiescent()

    @rule(index=st.integers(0, _N - 1))
    def recover_host(self, index):
        self.counter.on_processor_recovered(
            self.hosts[index % len(self.hosts)], self.network.now, None
        )
        self.network.run_until_quiescent()

    @invariant()
    def at_most_once_and_nothing_lost(self):
        if not hasattr(self, "counter"):
            return
        values = all_values(self.received)
        assert len(set(values)) == len(values)  # never delivered twice
        assert len(values) == self.expected  # hosts are alive: no losses
        assert self.counter.burned_values >= 0

    @invariant()
    def root_holder_is_a_known_processor(self):
        # Root migration picks any live *client* seat, not just the
        # initial node hosts.
        if hasattr(self, "counter"):
            assert self.counter.root_host in self.counter.client_ids()


TestPriorityQueueStateful = PriorityQueueMachine.TestCase
TestPriorityQueueStateful.settings = settings(
    max_examples=20, stateful_step_count=30, deadline=None
)

TestFlipBitStateful = FlipBitMachine.TestCase
TestFlipBitStateful.settings = settings(
    max_examples=20, stateful_step_count=30, deadline=None
)

TestStandbyCentralStateful = StandbyCentralMachine.TestCase
TestStandbyCentralStateful.settings = settings(
    max_examples=20, stateful_step_count=30, deadline=None
)

TestBypassTreeStateful = BypassTreeMachine.TestCase
TestBypassTreeStateful.settings = settings(
    max_examples=20, stateful_step_count=30, deadline=None
)
