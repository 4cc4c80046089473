"""Tests for the asyncio drivers (``run_*_async``) and runtime."""

from __future__ import annotations

import asyncio

import pytest

from repro.core import TreeCounter
from repro.counters import CentralCounter, CombiningTreeCounter
from repro.errors import ProtocolError
from repro.runtime import AsyncioRuntime
from repro.sim.network import Network
from repro.workloads import (
    one_shot,
    run_concurrent_async,
    run_sequence,
    run_sequence_async,
)


class TestAsyncSequential:
    def test_values_match_sync_semantics(self):
        async def go():
            network = Network()
            counter = CentralCounter(network, 12)
            return await run_sequence_async(counter, one_shot(12))

        result = asyncio.run(go())
        assert result.values() == list(range(12))

    def test_trace_identical_to_sync_runner(self):
        sync_network = Network()
        sync_counter = TreeCounter(sync_network, 27)
        sync_result = run_sequence(sync_counter, one_shot(27))

        async def go():
            network = Network()
            counter = TreeCounter(network, 27)
            return await run_sequence_async(counter, one_shot(27))

        async_result = asyncio.run(go())
        assert async_result.trace.loads() == sync_result.trace.loads()
        assert async_result.total_messages == sync_result.total_messages

    def test_time_scale_sleeps_but_preserves_results(self):
        async def go():
            network = Network()
            counter = CentralCounter(network, 4)
            return await run_sequence_async(
                counter, one_shot(4), time_scale=0.001
            )

        result = asyncio.run(go())
        assert result.values() == [0, 1, 2, 3]

    def test_other_tasks_interleave(self):
        ticks = []

        async def ticker():
            for _ in range(20):
                ticks.append(1)
                await asyncio.sleep(0)

        async def go():
            network = Network()
            counter = TreeCounter(network, 81)
            task = asyncio.ensure_future(ticker())
            result = await run_sequence_async(counter, one_shot(81))
            await task
            return result

        result = asyncio.run(go())
        assert result.values() == list(range(81))
        assert len(ticks) == 20

    def test_broken_counter_detected(self):
        class Silent(CentralCounter):
            def begin_inc(self, pid, op_index):
                pass

        async def go():
            network = Network()
            counter = Silent(network, 3)
            await run_sequence_async(counter, one_shot(3))

        with pytest.raises(ProtocolError):
            asyncio.run(go())


class TestAsyncConcurrent:
    def test_concurrent_batch(self):
        async def go():
            network = Network()
            counter = CombiningTreeCounter(network, 16)
            return await run_concurrent_async(counter, one_shot(16))

        result = asyncio.run(go())
        assert sorted(o.value for o in result.outcomes) == list(range(16))


class TestRunnerValidation:
    def test_bad_parameters(self):
        network = Network()
        with pytest.raises(ValueError):
            AsyncioRuntime(network, time_scale=-1.0)
        with pytest.raises(ValueError):
            AsyncioRuntime(network, yield_every=0)

    def test_runner_on_empty_network(self):
        assert asyncio.run(AsyncioRuntime(Network()).drain()) == 0
