"""Shared fixtures: counter factories and small helpers.

``ALL_FACTORIES`` is the registry the cross-counter tests parametrize
over; each entry builds a fresh counter on a fresh network for a given
``n``.  Keeping it here means a new counter implementation gets the whole
conformance suite by adding one line.
"""

from __future__ import annotations

import pytest

from repro.api import DistributedCounter
from repro.core import TreeCounter
from repro.counters import (
    ArrowCounter,
    BitonicCountingNetwork,
    CentralCounter,
    CombiningTreeCounter,
    DiffractingTreeCounter,
    StaticTreeCounter,
)
from repro.quorum import MaekawaGrid, QuorumCounter
from repro.sim.network import Network
from repro.workloads.driver import Received


def make_quorum_counter(network: Network, n: int) -> DistributedCounter:
    """Maekawa-grid quorum counter (needs a square n)."""
    return QuorumCounter(network, n, MaekawaGrid(n))


ALL_FACTORIES = {
    "arrow": ArrowCounter,
    "central": CentralCounter,
    "static-tree": StaticTreeCounter,
    "ww-tree": TreeCounter,
    "combining-tree": CombiningTreeCounter,
    "counting-network": BitonicCountingNetwork,
    "diffracting-tree": DiffractingTreeCounter,
}
"""Counters usable at any n (the quorum counter needs square n and is
tested separately)."""


@pytest.fixture(params=sorted(ALL_FACTORIES))
def any_counter_factory(request):
    """Parametrized fixture yielding every counter factory."""
    return ALL_FACTORIES[request.param]


@pytest.fixture
def network() -> Network:
    """A fresh unit-delay network."""
    return Network()


def observed(counter: DistributedCounter) -> Received:
    """Install a fresh :class:`Received` as *counter*'s observer and
    return it: the test's own record of the values the counter returns
    (the counter keeps none)."""
    received = Received(counter.network)
    counter.on_result = received.add
    return received


def values(received: Received, pid: int) -> list:
    """The values *received* holds for *pid*, oldest first."""
    return [value for value, _ in received.by_pid.get(pid, ())]


def all_values(received: Received) -> list:
    """Every value *received* holds, across initiators, sorted."""
    return sorted(
        value for results in received.by_pid.values() for value, _ in results
    )
