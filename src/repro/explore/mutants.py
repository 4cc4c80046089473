"""Seeded-bug counters: known-broken protocols the explorer must catch.

A schedule explorer that never fails is indistinguishable from one that
never looks.  This module keeps a small registry of *mutants* — counters
with one deliberate, schedule-dependent bug each — used to validate the
whole pipeline end to end: exploration finds a failing schedule, the
oracle suite names the broken invariant, shrinking reduces the schedule,
and the saved repro replays to the same failure.

Mutants deliberately live in their *own* registry, resolved only by the
explorer and the ``repro explore`` CLI: they must never appear in
``repro counters``, sweeps, or the registry completeness check — nobody
should be able to benchmark a counter that is wrong on purpose.

Shipped mutants:

* ``mutant[stale-central]`` — a central counter whose server answers
  from a *stale* value whenever a request arrives while a previous
  reply is still in flight (a read-increment race, as if the server
  read the counter before its last write landed).  Sequentially
  correct — every exploration baseline passes — but any schedule that
  overlaps two requests at the server yields a duplicate value, caught
  by the ``no-lost-increment`` (and ``linearizability``) oracles.
* ``mutant[cached-central]`` — a central counter whose clients cache
  the value they last saw and answer later incs locally from the cache.
  Correct for one inc per client; any workload revisiting a client
  (``rounds >= 2``) returns values with no message footprint — caught
  by the ``hot-spot`` oracle on sequential episodes.
* ``mutant[trusting-byz]`` — a Byzantine counter whose initiators trust
  the *first* result message instead of waiting for the ``f + 1``
  matching vouchers that guarantee an honest witness.  Correct without
  liars (every exploration baseline passes, and so does any clean
  fault-free run); under a ``byz=f@corrupt``-style plan, a schedule
  that lands a compromised replica's corrupted result first hands the
  client an invented value or an invented instance — caught by the
  ``validity``/``agreement`` oracles, or by the driver's strict
  result-count check (the ``runtime`` oracle) when the invention is a
  whole extra delivery.  This is the one mutant explored *with* a
  fault plan: the bug is in how the protocol weighs liars, so it needs
  liars to weigh.
"""

from __future__ import annotations

from typing import Callable

from repro.api import DistributedCounter
from repro.counters.byzantine import ByzantineCounter
from repro.counters.central import KIND_VALUE, CentralCounter, _CentralClient
from repro.errors import ConfigurationError
from repro.sim.messages import Message, ProcessorId
from repro.sim.network import Network


class _StaleReadClient(_CentralClient):
    """Server-side mutant: replies race the increment (see module doc)."""

    def on_message(self, message: Message) -> None:
        counter = self._counter
        if (
            message.kind == KIND_VALUE
            and self.pid != counter.server_id  # genuine client receiving
        ):
            counter.note_reply_landed()
            super().on_message(message)
            return
        if message.kind != KIND_VALUE and self.pid == counter.server_id:
            # An inc request at the server.  THE BUG: while any earlier
            # reply is still in flight the server answers with the value
            # *before* that reply's increment — a stale read — and skips
            # its own increment, so two clients learn the same value.
            if counter.replies_in_flight > 0:
                stale = counter.value - 1
                counter.note_reply_sent()
                self.send(message.sender, KIND_VALUE, {"value": stale})
                return
            counter.note_reply_sent()
        super().on_message(message)


class StaleReadCentralCounter(CentralCounter):
    """``mutant[stale-central]``: duplicate values under request overlap."""

    name = "mutant[stale-central]"

    def __init__(self, network: Network, n: int, server_id: ProcessorId = 1) -> None:
        self._replies_in_flight = 0
        super().__init__(network, n, server_id)
        # Rewire the processors to the buggy client class: registration
        # happened in the base constructor, so replace in place.
        for pid, client in list(self._clients.items()):
            mutant = _StaleReadClient(pid, self)
            self._clients[pid] = mutant
            network.replace(mutant)

    @property
    def replies_in_flight(self) -> int:
        """Replies sent but not yet received (the race window)."""
        return self._replies_in_flight

    def note_reply_sent(self) -> None:
        self._replies_in_flight += 1

    def note_reply_landed(self) -> None:
        self._replies_in_flight -= 1


class _CachedReadClient(_CentralClient):
    """Client-side mutant: answers repeat incs from a local cache."""

    def __init__(self, pid: ProcessorId, counter: CentralCounter) -> None:
        super().__init__(pid, counter)
        self._cached: int | None = None

    def request_inc(self) -> None:
        if self._cached is not None and self.pid != self._counter.server_id:
            # THE BUG: trust the cached value instead of the server.
            self._cached += 1
            self._counter.deliver_result(self.pid, self._cached)
            return
        super().request_inc()

    def on_message(self, message: Message) -> None:
        if message.kind == KIND_VALUE and self.pid != self._counter.server_id:
            self._cached = message.payload["value"]
        super().on_message(message)


class CachedReadCentralCounter(CentralCounter):
    """``mutant[cached-central]``: message-free stale answers on revisit."""

    name = "mutant[cached-central]"

    def __init__(self, network: Network, n: int, server_id: ProcessorId = 1) -> None:
        super().__init__(network, n, server_id)
        for pid in list(self._clients):
            mutant = _CachedReadClient(pid, self)
            self._clients[pid] = mutant
            network.replace(mutant)


class TrustingByzCounter(ByzantineCounter):
    """``mutant[trusting-byz]``: first result wins (see module docstring)."""

    name = "mutant[trusting-byz]"

    def __init__(self, network: Network, n: int, f: int = 0) -> None:
        super().__init__(network, n, f)
        # THE BUG: accept the very first result message instead of
        # waiting for f + 1 distinct vouchers, so one lying replica
        # whose (corrupted) result is scheduled first decides the
        # client's value with no honest witness.
        self.result_quorum = 1


MUTANT_FACTORIES: dict[str, Callable[[Network, int], DistributedCounter]] = {
    StaleReadCentralCounter.name: StaleReadCentralCounter,
    CachedReadCentralCounter.name: CachedReadCentralCounter,
    TrustingByzCounter.name: TrustingByzCounter,
}
"""The mutant mini-registry (explorer/CLI only; see module docstring)."""


def is_mutant_spec(text: str) -> bool:
    """True iff *text* names a mutant rather than a registry counter."""
    return text.strip() in MUTANT_FACTORIES


def build_mutant(text: str, network: Network, n: int) -> DistributedCounter:
    """Build the named mutant on *network*."""
    name = text.strip()
    try:
        factory = MUTANT_FACTORIES[name]
    except KeyError:
        known = ", ".join(sorted(MUTANT_FACTORIES))
        raise ConfigurationError(
            f"unknown mutant {name!r}; known mutants: {known}"
        ) from None
    return factory(network, n)
