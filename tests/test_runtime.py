"""Tests for the runtime seam: one protocol, pluggable schedulers.

The contract under test: a :class:`~repro.runtime.Runtime` decides *how*
the network's pending events execute, never *what* they do — so every
registered counter spec must produce fingerprint-identical traces under
the discrete-event scheduler and the asyncio scheduler.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.registry import RunSession, registered_names
from repro.runtime import (
    RUNTIME_NAMES,
    AsyncioRuntime,
    Runtime,
    SimulatedRuntime,
    make_runtime,
)
from repro.sim.network import Network
from repro.sim.processor import InertProcessor
from repro.workloads import (
    run_concurrent,
    run_concurrent_async,
    run_sequence,
    run_sequence_async,
    shuffled,
)

ALL_SPECS = registered_names()


def _n_for(spec: str) -> int:
    # quorum[maekawa] needs a perfect square.
    return 9 if spec == "quorum[maekawa]" else 8


def _loaded_network(messages: int = 10) -> Network:
    network = Network()
    network.register_all([InertProcessor(pid) for pid in range(1, 5)])
    for index in range(messages):
        network.send((index % 4) + 1, ((index + 1) % 4) + 1, "m", {})
    return network


class TestFactory:
    @pytest.mark.parametrize("name", RUNTIME_NAMES)
    def test_every_registered_name_resolves(self, name):
        runtime = make_runtime(name, Network())
        assert isinstance(runtime, Runtime)

    def test_sim_names_map_to_simulated(self):
        assert isinstance(make_runtime("sim", Network()), SimulatedRuntime)

    def test_asyncio_name_maps_to_asyncio(self):
        runtime = make_runtime(
            "asyncio", Network(), time_scale=0.5, yield_every=7
        )
        assert isinstance(runtime, AsyncioRuntime)
        assert runtime.time_scale == 0.5
        assert runtime.yield_every == 7

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown runtime"):
            make_runtime("threads", Network())


class TestSimulatedRuntime:
    def test_until_quiescent_matches_network(self):
        runtime = SimulatedRuntime(_loaded_network())
        executed = runtime.until_quiescent()
        assert executed == 10
        assert runtime.network.events_executed == 10

    def test_step_executes_one_event(self):
        runtime = SimulatedRuntime(_loaded_network(3))
        assert runtime.step() is True
        assert runtime.network.events_executed == 1
        runtime.until_quiescent()
        assert runtime.step() is False

    def test_drain_is_awaitable_veneer(self):
        runtime = SimulatedRuntime(_loaded_network())
        assert asyncio.run(runtime.drain()) == 10

    def test_exposes_substrate(self):
        network = _loaded_network()
        runtime = SimulatedRuntime(network)
        assert runtime.network is network
        assert runtime.trace is network.trace
        assert runtime.now == network.now
        assert not runtime.is_async


class TestAsyncioRuntime:
    def test_drain_executes_everything(self):
        runtime = AsyncioRuntime(_loaded_network())
        assert asyncio.run(runtime.drain()) == 10
        assert runtime.network.events_executed == 10

    def test_until_quiescent_blocks_outside_a_loop(self):
        runtime = AsyncioRuntime(_loaded_network())
        assert runtime.until_quiescent() == 10

    def test_until_quiescent_refuses_inside_a_loop(self):
        runtime = AsyncioRuntime(_loaded_network())

        async def go():
            runtime.until_quiescent()

        with pytest.raises(SimulationError, match="await drain"):
            asyncio.run(go())

    def test_step_works_without_a_loop(self):
        runtime = AsyncioRuntime(_loaded_network(2))
        assert runtime.step() is True
        assert runtime.network.events_executed == 1

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="time_scale"):
            AsyncioRuntime(Network(), time_scale=-0.1)
        with pytest.raises(ValueError, match="yield_every"):
            AsyncioRuntime(Network(), yield_every=0)

    def test_time_scale_sleeps_simulated_gaps(self, monkeypatch):
        """Every simulated-time gap becomes one scaled real sleep."""
        sleeps: list[float] = []
        real_sleep = asyncio.sleep

        async def recording_sleep(delay):
            sleeps.append(delay)
            await real_sleep(0)

        monkeypatch.setattr(
            "repro.runtime.asyncio.sleep", recording_sleep
        )
        network = Network()
        network.register_all([InertProcessor(pid) for pid in (1, 2)])
        network.send(1, 2, "a", {})  # delivered at t=1
        network.inject(lambda: None, delay=3.0)  # local action at t=3
        runtime = AsyncioRuntime(network, time_scale=0.5)
        assert asyncio.run(runtime.drain()) == 2
        # gap 0->1 scaled by 0.5, then gap 1->3 scaled by 0.5
        assert sleeps == [0.5, 1.0]

    def test_zero_scale_yields_every_n_events(self, monkeypatch):
        """With no time scale the loop still yields every yield_every."""
        yields = 0
        real_sleep = asyncio.sleep

        async def counting_sleep(delay):
            nonlocal yields
            assert delay == 0
            yields += 1
            await real_sleep(0)

        monkeypatch.setattr(
            "repro.runtime.asyncio.sleep", counting_sleep
        )
        runtime = AsyncioRuntime(_loaded_network(10), yield_every=3)
        assert asyncio.run(runtime.drain()) == 10
        assert yields == 10 // 3

    def test_drain_picks_up_midstream_injections(self):
        """Work injected while draining runs in the same pass."""
        network = Network()
        network.register_all([InertProcessor(pid) for pid in (1, 2)])

        def inject_more():
            network.send(1, 2, "late", {})

        network.inject(inject_more)
        runtime = AsyncioRuntime(network)
        # the injected action plus the message it sends
        assert asyncio.run(runtime.drain()) == 2


class TestRunSessionSelection:
    def test_default_runtime_is_sim(self):
        session = RunSession("central", 4)
        assert isinstance(session.runtime, SimulatedRuntime)

    def test_there_is_no_core_to_select(self):
        assert "sim-compat" not in RUNTIME_NAMES
        with pytest.raises(ConfigurationError, match="unknown runtime"):
            RunSession("central", 4, runtime="sim-compat")
        with pytest.raises(TypeError):
            RunSession("central", 4, core="compat")

    def test_unknown_runtime_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown runtime"):
            RunSession("central", 4, runtime="turbo")

    def test_asyncio_runtime_selected(self):
        session = RunSession("central", 4, runtime="asyncio", time_scale=0.0)
        assert isinstance(session.runtime, AsyncioRuntime)
        assert session.runtime.network is session.network


class TestEverySpecTraceIdenticalAcrossRuntimes:
    """The acceptance bar: same protocol, same accounting, any scheduler."""

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_one_shot_sync_vs_asyncio(self, spec):
        n = _n_for(spec)
        sim = RunSession(spec, n, trace_level="FULL")
        sim_result = sim.run_sequence()
        aio = RunSession(spec, n, trace_level="FULL", runtime="asyncio")
        aio_result = aio.run_sequence()
        assert (
            sim.network.trace.fingerprint()
            == aio.network.trace.fingerprint()
        )
        assert sim.network.trace.records == aio.network.trace.records
        assert sim.network.trace.loads() == aio.network.trace.loads()
        assert sim_result.values() == aio_result.values()
        assert sim.network.now == aio.network.now

    @pytest.mark.parametrize(
        "spec", ("central", "combining-tree", "counting-network")
    )
    def test_concurrent_sync_vs_asyncio(self, spec):
        sim = RunSession(spec, 8, trace_level="FULL")
        sim_result = sim.run_concurrent()
        aio = RunSession(spec, 8, trace_level="FULL", runtime="asyncio")
        aio_result = aio.run_concurrent()
        assert (
            sim.network.trace.fingerprint()
            == aio.network.trace.fingerprint()
        )
        assert sorted(sim_result.values()) == sorted(aio_result.values())

    @pytest.mark.parametrize(
        "spec", ("central", "combining-tree", "counting-network", "ww-tree")
    )
    def test_async_entry_points_inside_a_running_loop(self, spec):
        # one body, two pumps: awaiting the *_async entry points from a
        # live loop runs the same steps the blocking ones do
        sequential = spec == "ww-tree"
        order = shuffled(8, seed=3) if sequential else [1, 2, 1, 2, 3, 8]

        def blocking():
            session = RunSession(spec, 8, trace_level="FULL")
            if sequential:
                return session, run_sequence(session.counter, order)
            return session, run_concurrent(session.counter, [order])

        async def awaited():
            session = RunSession(spec, 8, trace_level="FULL")
            if sequential:
                return session, await run_sequence_async(session.counter, order)
            return session, await run_concurrent_async(session.counter, order)

        sim, sim_result = blocking()
        aio, aio_result = asyncio.run(awaited())
        assert (
            sim.network.trace.fingerprint()
            == aio.network.trace.fingerprint()
        )
        assert sim_result.values() == aio_result.values()
        assert sim_result.outcomes == aio_result.outcomes

    def test_random_policy_sync_vs_asyncio(self):
        sim = RunSession("ww-tree", 27, policy="random", seed=11)
        sim.run_sequence()
        aio = RunSession(
            "ww-tree", 27, policy="random", seed=11, runtime="asyncio"
        )
        aio.run_sequence()
        assert (
            sim.network.trace.fingerprint()
            == aio.network.trace.fingerprint()
        )
