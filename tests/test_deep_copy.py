"""A deep copy of a run taken mid-drain is an independent run.

Lookahead strategies score a choice by deep-copying ``(network,
counter)`` and draining the copy.  That is sound only if every pending
event belongs to the copy: an injected action must be a bound method or
a :func:`functools.partial` over one, because a closure still calls
into the original.  Every registered spec runs a staggered batch, and a
copy taken at each odd event count must leave the original alone while
it drains, and finish exactly as the original does: same values, same
``FULL`` fingerprint, same recovery ledgers.

:func:`~repro.workloads.driver.run_open_loop` is left out on purpose:
its arrival and re-arm actions are closures over the driver's own queue
of waiting requests (its docstring says so).
"""

from __future__ import annotations

import copy

import pytest

from repro.registry import RunSession, registered_specs
from repro.workloads.driver import _batch_steps
from repro.workloads.sequences import one_shot

# n = 8 where the spec allows it.  Maekawa quorums need a perfect
# square; phase-king traffic grows ~n^3 (4 608 events at n = 8, a copy
# to drain after every other one), so those two run at 9 and 4.
_N = {"quorum[maekawa]": 9, "byz-counter": 4}

# Crash-tolerant specs lose processors 2 and 5 while the batch is in
# flight and get them back: detector, failover, checkpoint and (in the
# bypass tree, for 5) re-armed combining-window events all pend.
_CRASH = "crash=2@t5-t40,crash=5@t5-t40,recover=2@t40,recover=5@t40"


def _final(network, counter, recovery, n):
    return (
        [counter.results_for(pid) for pid in range(1, n + 1)],
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
    next(_batch_steps(session.counter, [one_shot(n)], gap))  # inject starts
    network = session.network
    live = (network, session.counter, session.recovery)
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
