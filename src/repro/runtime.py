"""The runtime seam: one protocol object, pluggable schedulers.

Every counter in this repo is a set of processor programs wired into a
:class:`~repro.sim.network.Network`; *how* the network's pending events
get executed is a separate concern.  This module makes that concern a
first-class seam — a :class:`Runtime` is the thing that drains the event
queue, and there are three interchangeable implementations:

* ``"sim"`` — :class:`SimulatedRuntime`: the discrete-event scheduler
  every measurement runs on;
* ``"asyncio"`` — :class:`AsyncioRuntime`: the same protocol objects
  executed cooperatively inside a real :mod:`asyncio` event loop, so a
  counter can serve live traffic (see :mod:`repro.serve`) or embed in an
  async application.  With ``time_scale > 0`` simulated gaps become real
  sleeps, turning simulated time into approximate wall-clock time.
* ``"sync"`` — :class:`SynchronousRuntime`: lockstep *rounds*, the model
  synchronous Byzantine counting protocols assume.  Each round executes
  every event sharing the earliest pending timestamp (collect → the
  fault plan's adversary rewrites on the send path → deliver → compute);
  messages sent during a round land in later rounds.

The seam is deliberately tiny — *step*, *drain*, *until-quiescent*, a
time source and the trace hookup — which is how the synchronous mode
stayed one class, not a refactor.  Message accounting is identical under every runtime:
it is the same :class:`~repro.sim.trace.Trace` on the same network,
which the test suite asserts fingerprint-identical for every registered
counter spec.

Select a runtime by name through :class:`~repro.registry.RunSession`::

    session = RunSession("ww-tree", n=81, runtime="asyncio")
    result = session.run_sequence()          # drives an asyncio loop
    await session.runtime.drain()            # or drain inside your own loop
"""

from __future__ import annotations

import asyncio
from repro.errors import ConfigurationError, SimulationError
from repro.sim.network import Network
from repro.sim.trace import Trace

__all__ = [
    "RUNTIME_NAMES",
    "AsyncioRuntime",
    "Runtime",
    "SimulatedRuntime",
    "SynchronousRuntime",
    "make_runtime",
]

RUNTIME_NAMES = ("sim", "sync", "asyncio")
"""Runtimes resolvable by :func:`make_runtime` (and ``RunSession``)."""


class Runtime:
    """What a scheduler provides to run a wired counter — and the base
    the three runtimes extend.

    A runtime owns no protocol state — it only decides *when and under
    whose control* the network's pending events execute.  The contract:

    * :attr:`name` — the registry name (``"sim"``, ``"asyncio"``, ...);
    * :attr:`is_async` — whether :meth:`drain` actually suspends (the
      drivers use this to route a workload through ``asyncio.run``);
    * :attr:`network` / :attr:`trace` — the substrate and its ledger;
    * :attr:`now` — the time source (simulated time; wall-clock mapping
      is the asyncio runtime's ``time_scale`` concern);
    * :meth:`step` — execute the single earliest event;
    * :meth:`until_quiescent` — blocking drain to quiescence;
    * :meth:`drain` — awaitable drain to quiescence (the only method a
      cooperative scheduler implements differently).

    The defaults here are the discrete-event scheduler's: drain the
    queue straight through
    :meth:`~repro.sim.network.Network.run_until_quiescent`.
    """

    name: str
    is_async = False

    def __init__(self, network: Network) -> None:
        self._network = network

    @property
    def network(self) -> Network:
        """The substrate this runtime drains."""
        return self._network

    @property
    def trace(self) -> Trace:
        """The network's execution trace (same object, any runtime)."""
        return self._network.trace

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._network.now

    def step(self) -> bool:
        """Execute the earliest pending event; ``False`` when quiescent."""
        return self._network.step()

    def until_quiescent(self) -> int:
        """Run events until none remain; return how many ran."""
        return self._network.run_until_quiescent()

    async def drain(self) -> int:
        """Awaitable form of :meth:`until_quiescent` (never suspends)."""
        return self.until_quiescent()


class SimulatedRuntime(Runtime):
    """The discrete-event scheduler: drain the queue, advance sim time.

    Exactly the base's defaults — a thin, allocation-free veneer over
    :meth:`~repro.sim.network.Network.run_until_quiescent`, so traces
    are byte-identical to driving the network directly.
    """

    name = "sim"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SimulatedRuntime()"


class SynchronousRuntime(Runtime):
    """Lockstep rounds: the synchronous model of Byzantine counting.

    Lenzen–Rybicki-style protocols assume computation proceeds in
    *rounds*: every processor receives the round's messages, computes,
    and sends — simultaneously.  This runtime recovers that model from
    the event queue: one :meth:`round` executes **every** event sharing
    the earliest pending timestamp (including zero-delay events the
    handlers schedule into the live round), then stops.  Messages sent
    during a round carry positive delays, so they land in later rounds
    — under the default unit-delay policy each round is exactly one
    synchronous step.  The adversary acts where it always does, on the
    send path: an installed fault plan rewrites, withholds or forges
    payloads *between* rounds, which is precisely the "collect →
    adversary → deliver → compute" structure of the synchronous model.

    Determinism is inherited wholesale: the queue's ``(time, seq)``
    order within a round is the same order ``"sim"`` uses, so a full
    drain is trace-identical to the event-driven runtimes — rounds are
    a *view* (with a counter), not a reordering.  :attr:`now` is the
    timestamp of the last round.
    """

    name = "sync"

    def __init__(self, network: Network) -> None:
        super().__init__(network)
        self._rounds = 0

    @property
    def rounds(self) -> int:
        """Completed lockstep rounds since construction."""
        return self._rounds

    def round(self) -> int:
        """Run one lockstep round; return how many events it executed.

        A round is every pending event at the earliest timestamp,
        including same-time events scheduled while the round runs.
        Returns 0 (and counts no round) when the network is quiescent.
        """
        network = self._network
        next_time = network.next_event_time
        start = next_time()
        if start is None:
            return 0
        executed = 0
        step = network.step
        while next_time() == start:
            step()
            executed += 1
        self._rounds += 1
        return executed

    def until_quiescent(self) -> int:
        """Drain round by round until no events remain; return events run."""
        total = 0
        while True:
            executed = self.round()
            if not executed:
                return total
            total += executed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SynchronousRuntime(rounds={self._rounds})"


class AsyncioRuntime(Runtime):
    """Drive the same protocol objects cooperatively under asyncio.

    Between events the runtime yields to the loop, so other tasks — a
    TCP server, a load generator, your application — interleave with
    the simulation.  Wall-clock time is ``now * time_scale``.

    Args:
        network: the network whose events to run.
        time_scale: seconds of real sleep per unit of simulated time
            between consecutive events (0 = run flat out, only yielding
            control to the loop).
        yield_every: how many back-to-back events to execute before
            yielding to the loop even when no sleep is due.
    """

    name = "asyncio"
    is_async = True

    def __init__(
        self,
        network: Network,
        time_scale: float = 0.0,
        yield_every: int = 64,
    ) -> None:
        if time_scale < 0:
            raise ValueError(f"time_scale must be >= 0, got {time_scale}")
        if yield_every < 1:
            raise ValueError(f"yield_every must be >= 1, got {yield_every}")
        super().__init__(network)
        self._time_scale = time_scale
        self._yield_every = yield_every

    @property
    def time_scale(self) -> float:
        """Real seconds slept per unit of simulated time."""
        return self._time_scale

    @property
    def yield_every(self) -> int:
        """Events executed back-to-back before an unforced loop yield."""
        return self._yield_every

    async def drain(self) -> int:
        """Run events until quiescence, cooperatively; return how many ran.

        Events injected by other tasks *while draining* (e.g. a server
        accepting a request mid-drain) are picked up in the same pass —
        the loop only ends when the queue is genuinely empty.
        """
        network = self._network
        run = network.run
        scale = self._time_scale
        yield_every = self._yield_every
        sleep = asyncio.sleep
        # A real sleep can fall due after any event, so a scaled drain
        # pulls one event per call; flat out, it pulls everything up to
        # the next yield point (a full burst always ends on one) in a
        # single bounded drain.
        burst = 1 if scale > 0.0 else yield_every
        executed = 0
        while True:
            before = network.now
            ran = run(burst)
            executed += ran
            if ran < burst:
                break  # the queue emptied
            gap = network.now - before
            if scale > 0.0 and gap > 0.0:
                await sleep(gap * scale)
            elif executed % yield_every == 0:
                await sleep(0)
        return executed

    def until_quiescent(self) -> int:
        """Blocking drain: spin up a private event loop and run it.

        Only usable outside a running loop; from async code, ``await
        drain()`` instead.
        """
        try:
            asyncio.get_running_loop()
        except RuntimeError:
            return asyncio.run(self.drain())
        raise SimulationError(
            "AsyncioRuntime.until_quiescent() cannot block inside a "
            "running event loop; await drain() instead"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AsyncioRuntime(time_scale={self._time_scale}, "
            f"yield_every={self._yield_every})"
        )


def make_runtime(
    name: str,
    network: Network,
    *,
    time_scale: float = 0.0,
    yield_every: int = 64,
) -> Runtime:
    """Build the runtime registered under *name* for *network*.

    The asyncio options are ignored by the simulated runtimes.
    """
    if name == "sim":
        return SimulatedRuntime(network)
    if name == "sync":
        return SynchronousRuntime(network)
    if name == "asyncio":
        return AsyncioRuntime(
            network, time_scale=time_scale, yield_every=yield_every
        )
    raise ConfigurationError(
        f"unknown runtime {name!r}; expected one of {RUNTIME_NAMES}"
    )
