"""A deep copy of a run taken mid-drain is an independent run.

Lookahead strategies score a choice by deep-copying ``(network,
counter)`` and draining the copy.  That is sound only if every pending
event belongs to the copy: an injected action must be a bound method or
a :func:`functools.partial` over one, because a closure still calls
into the original.  The same holds for the counter's observer: the
driver's record of returned values is the only one (the counter keeps
none), and a copy must deliver into its own copy of it.  Every
registered spec runs a staggered batch, and a copy taken at each odd
event count must leave the original alone while it drains, and finish
exactly as the original does: same values in each one's own driver
record, same ``FULL`` fingerprint, same recovery ledgers.  An open-loop
run, whose arrivals and re-arms are injected too, copied mid-run
finishes the same way.
"""

from __future__ import annotations

import copy

import pytest

from repro.explore import GuidedStrategy
from repro.explore.controller import ScheduleController
from repro.registry import RunSession, registered_specs
from repro.sim.messages import _EMPTY_PAYLOAD, Message
from repro.workloads.driver import _batch_steps, run_open_loop
from repro.workloads.sequences import one_shot

from conftest import values

# n = 8 where the spec allows it.  Maekawa quorums need a perfect
# square; phase-king traffic grows ~n^3 (4 608 events at n = 8, a copy
# to drain after every other one), so those two run at 9 and 4.
_N = {"quorum[maekawa]": 9, "byz-counter": 4}

# Crash-tolerant specs lose processors 2 and 5 while the batch is in
# flight and get them back: detector, failover, checkpoint and (in the
# bypass tree, for 5) re-armed combining-window events all pend.
_CRASH = "crash=2@t5-t40,crash=5@t5-t40,recover=2@t40,recover=5@t40"


def _final(network, counter, recovery, received, n):
    return (
        [values(received, pid) for pid in range(1, n + 1)],
        network.trace.fingerprint(),
        recovery and (list(recovery.detector.events), list(recovery.events)),
    )


@pytest.mark.parametrize("spec", registered_specs(), ids=lambda spec: spec.name)
def test_a_copy_taken_at_any_odd_event_finishes_as_the_original(spec):
    n = _N.get(spec.name, 8)
    capabilities = spec.capabilities
    session = RunSession(
        spec.name, n, policy="random", seed=1,
        faults=_CRASH if capabilities.tolerates_crash else None,
    )
    # Sequential-only protocols get starts far enough apart not to overlap.
    gap = 1.0 if capabilities.supports_concurrent else 100.0
    steps = _batch_steps(session.counter, [one_shot(n)], gap)
    next(steps)  # inject starts
    received = steps.gi_frame.f_locals["received"]  # the driver's record
    network = session.network
    live = (network, session.counter, session.recovery, received)
    finals = []
    ran = network.run(1)
    while not network.is_quiescent():
        before = network.in_flight, network.next_event_time(), _final(*live, n)
        twin = copy.deepcopy(live)
        twin[0].run_until_quiescent()
        after = network.in_flight, network.next_event_time(), _final(*live, n)
        assert after == before, f"a copy made after {ran} events moved the original"
        finals.append((ran, _final(*twin, n)))
        ran += network.run(2)
    reference = _final(*live, n)
    assert sum(map(len, reference[0])) == n
    assert len(finals) >= 10
    diverged = [at for at, final in finals if final != reference]
    assert not diverged, f"copies taken after events {diverged[:5]} diverged"


class _CopyMidRun:
    """A runtime that copies the run after *events* events, drains the
    copy, then the original."""

    def __init__(self, network, counter, events):
        self.network, self.counter, self.events = network, counter, events

    def until_quiescent(self):
        self.network.run(self.events)
        assert not self.network.is_quiescent()
        self.twin = copy.deepcopy((self.network, self.counter))
        self.twin[0].run_until_quiescent()
        self.network.run_until_quiescent()


def test_an_open_loop_run_copied_mid_run_finishes_as_the_original():
    session = RunSession("combining-tree", 8, policy="random", seed=1)
    runtime = _CopyMidRun(session.network, session.counter, 60)
    arrivals = [0.5 * i for i in range(24)]
    result = run_open_loop(session.counter, arrivals, runtime=runtime)
    twin_network, twin_counter = runtime.twin
    # the copy's observer is still its own client pool's
    assert twin_counter.on_result.__self__.outcomes == result.outcomes
    assert twin_network.trace.fingerprint() == session.network.trace.fingerprint()


@pytest.mark.parametrize("spec", ["central", "quorum[majority]"])
def test_a_copy_at_loads_level_shares_the_empty_payload_in_flight(spec):
    # Below FULL the network passes payloads through uncopied, so the
    # shared empty payload itself rides in the queue the copy clones.
    session = RunSession(spec, 8, policy="random", seed=1, trace_level="LOADS")
    steps = _batch_steps(session.counter, [one_shot(8)], 100.0)
    next(steps)
    received = steps.gi_frame.f_locals["received"]
    network = session.network
    while not any(
        type(item) is Message and item.payload is _EMPTY_PAYLOAD
        for bucket in network._queue._buckets.values()
        for item in bucket
    ):
        assert network.run(1), "the run sent no empty payload"
    twin_network, _, twin_received = copy.deepcopy(
        (network, session.counter, received)
    )
    twin_network.run_until_quiescent()
    network.run_until_quiescent()
    for pid in range(1, 9):
        assert values(twin_received, pid) == values(received, pid)
        assert twin_network.trace.load(pid) == network.trace.load(pid)


def _guided_run():
    controller = ScheduleController(GuidedStrategy(seed=3))
    session = RunSession("combining-tree[bypass]", 8, policy=controller)
    controller.attach(session.network)
    steps = _batch_steps(session.counter, [one_shot(8)], 1.0)
    next(steps)
    return controller, session.network


def test_a_copied_guided_episode_steers_on_its_own_loads_and_generator():
    # Each guided decision reads its own network's load columns and its
    # own strategy's generator.  A decision path that kept either from
    # before the copy — a bound ``random``, or a closure over the
    # columns, both of which deepcopy shares — would steer the twin on
    # the original's loads, or make the two draw from one generator:
    # whichever side drains second would then diverge from the uncopied
    # run.
    reference, network = _guided_run()
    network.run_until_quiescent()
    for events in (5, 40):
        for copy_first in (True, False):
            controller, network = _guided_run()
            network.run(events)
            twin = copy.deepcopy(network)
            for side in (twin, network) if copy_first else (network, twin):
                side.run_until_quiescent()
            assert controller.recorded == reference.recorded
            assert twin.policy.recorded == reference.recorded
            assert twin.trace.fingerprint() == network.trace.fingerprint()
