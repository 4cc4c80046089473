"""Tests for the chaos proxy: spec grammar, determinism, fault behavior.

Each fault rule is exercised at probability 1.0 against a real
:class:`CounterService` upstream so the observable client effect (reset,
stall, truncation, blackhole) is deterministic; the end-to-end test
drives a retrying load through a mixed plan and asserts the exactly-once
arithmetic the resilience layer promises.
"""

from __future__ import annotations

import asyncio
import socket
import time

import pytest

from repro.errors import ConfigurationError
from repro.serve import (
    ChaosPlan,
    ChaosProxy,
    CounterService,
    ResilienceConfig,
    RetryPolicy,
    canonical_chaos_spec,
    parse_chaos_spec,
    run_load,
)

pytestmark = pytest.mark.resilience


class TestChaosSpecGrammar:
    def test_full_spec_round_trips_canonically(self):
        spec = "delay=0.002@0.2,stall=0.05@0.1,trunc=4@0.08,reset@0.15,blackhole@0.03"
        assert canonical_chaos_spec(spec) == spec

    def test_fields_reordered_to_canonical_order(self):
        assert (
            canonical_chaos_spec("reset@0.5,delay=0.01@0.2")
            == "delay=0.01@0.2,reset@0.5"
        )

    def test_parse_builds_typed_rules(self):
        plan = parse_chaos_spec("trunc=8@0.5,stall=0.1@1", seed=3)
        assert plan.trunc.keep_bytes == 8
        assert plan.trunc.probability == 0.5
        assert plan.stall.seconds == 0.1
        assert plan.reset is None
        assert plan.seed == 3

    @pytest.mark.parametrize(
        "spec,match",
        [
            ("", "empty chaos spec"),
            ("reset", "malformed"),
            ("reset@", "malformed"),
            ("explode@0.5", "unknown chaos field"),
            ("reset@0.5,reset@0.2", "duplicate"),
            ("reset@nope", "bad probability"),
            ("reset@1.5", "probability"),
            ("reset@-0.1", "probability"),
            ("delay@0.5", "needs a value"),
            ("delay=@0.5", "needs a value"),
            ("delay=abc@0.5", "bad value"),
            ("delay=0@0.5", "positive value"),
            ("stall=-1@0.5", "positive value"),
            ("trunc=2.5@0.5", "positive integer"),
            ("trunc=0@0.5", "positive"),
            ("reset=3@0.5", "takes no value"),
        ],
    )
    def test_malformed_specs_rejected(self, spec, match):
        with pytest.raises(ConfigurationError, match=match):
            parse_chaos_spec(spec)

    def test_repr_shows_canonical_and_seed(self):
        plan = parse_chaos_spec("reset@0.5", seed=9)
        assert repr(plan) == "ChaosPlan('reset@0.5', seed=9)"


class TestChaosDeterminism:
    def test_same_seed_same_fates(self):
        a = parse_chaos_spec("reset@0.5,blackhole@0.3,stall=0.1@0.4", seed=11)
        b = parse_chaos_spec("reset@0.5,blackhole@0.3,stall=0.1@0.4", seed=11)
        fates_a = [a.fate(i) for i in range(64)]
        fates_b = [b.fate(i) for i in range(64)]
        assert fates_a == fates_b

    def test_different_seeds_differ(self):
        a = parse_chaos_spec("reset@0.5", seed=1)
        b = parse_chaos_spec("reset@0.5", seed=2)
        assert [a.fate(i).reset for i in range(64)] != [
            b.fate(i).reset for i in range(64)
        ]

    def test_chunk_rng_keyed_by_connection_and_direction(self):
        plan = parse_chaos_spec("delay=0.01@0.5", seed=5)
        same = plan.chunk_rng(0, "c2s").random()
        assert plan.chunk_rng(0, "c2s").random() == same
        assert plan.chunk_rng(0, "s2c").random() != same
        assert plan.chunk_rng(1, "c2s").random() != same

    def test_probabilities_respected_over_many_connections(self):
        plan = parse_chaos_spec("reset@0.25", seed=7)
        resets = sum(plan.fate(i).reset for i in range(400))
        assert 60 <= resets <= 140  # 100 expected


async def _serve(spec="central", n=4, **kwargs):
    service = CounterService(spec, n, port=0, **kwargs)
    await service.start()
    return service


async def _proxied(service, plan):
    proxy = ChaosProxy("127.0.0.1", service.port, plan=plan)
    await proxy.start()
    return proxy


async def _inc_via(proxy, timeout=2.0):
    reader, writer = await asyncio.open_connection("127.0.0.1", proxy.port)
    try:
        writer.write(b"INC\n")
        await writer.drain()
        return await asyncio.wait_for(reader.readline(), timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


class TestChaosProxyBehavior:
    def test_no_plan_forwards_cleanly(self):
        async def go():
            service = await _serve()
            proxy = await _proxied(service, None)
            try:
                answer = await _inc_via(proxy)
            finally:
                await proxy.stop()
                await service.stop()
            return answer, proxy.stats

        answer, stats = asyncio.run(go())
        assert answer == b"OK 0\n"
        assert stats["connections"] == 1
        assert stats["resets"] == 0

    def test_reset_aborts_the_connection(self):
        async def go():
            service = await _serve()
            proxy = await _proxied(service, parse_chaos_spec("reset@1"))
            try:
                try:
                    answer = await _inc_via(proxy)
                except (ConnectionResetError, BrokenPipeError):
                    answer = b""
                return answer, dict(proxy.stats), service.served
            finally:
                await proxy.stop()
                await service.stop()

        answer, stats, served = asyncio.run(go())
        assert answer == b""  # reset or EOF, never a real answer
        assert stats["resets"] == 1
        assert served == 0  # aborted before the INC reached the server

    def test_blackhole_swallows_the_request(self):
        async def go():
            service = await _serve()
            proxy = await _proxied(service, parse_chaos_spec("blackhole@1"))
            try:
                with pytest.raises(asyncio.TimeoutError):
                    await _inc_via(proxy, timeout=0.2)
                return dict(proxy.stats), service.served
            finally:
                await proxy.stop()
                await service.stop()

        stats, served = asyncio.run(go())
        assert stats["blackholed"] == 1
        assert served == 0

    def test_stall_delays_the_first_chunk(self):
        async def go():
            service = await _serve()
            proxy = await _proxied(
                service, parse_chaos_spec("stall=0.2@1")
            )
            try:
                start = time.monotonic()
                answer = await _inc_via(proxy)
                elapsed = time.monotonic() - start
            finally:
                await proxy.stop()
                await service.stop()
            return answer, elapsed, dict(proxy.stats)

        answer, elapsed, stats = asyncio.run(go())
        assert answer == b"OK 0\n"
        assert elapsed >= 0.2
        assert stats["stalls"] == 1

    def test_truncation_cuts_the_answer_after_the_commit(self):
        async def go():
            service = await _serve()
            proxy = await _proxied(service, parse_chaos_spec("trunc=2@1"))
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", proxy.port
                )
                writer.write(b"INC\n")
                await writer.drain()
                data = await asyncio.wait_for(reader.read(), 2.0)
                writer.close()
                # give the server's commit a beat to land
                await asyncio.sleep(0.05)
                return data, dict(proxy.stats), service.served
            finally:
                await proxy.stop()
                await service.stop()

        data, stats, served = asyncio.run(go())
        assert data == b"OK"  # "OK 0\n" cut to 2 bytes, then abort
        assert stats["truncations"] == 1
        assert served == 1  # the increment itself committed

    def test_delay_still_delivers(self):
        async def go():
            service = await _serve()
            proxy = await _proxied(
                service, parse_chaos_spec("delay=0.05@1")
            )
            try:
                start = time.monotonic()
                answer = await _inc_via(proxy)
                elapsed = time.monotonic() - start
            finally:
                await proxy.stop()
                await service.stop()
            return answer, elapsed, dict(proxy.stats)

        answer, elapsed, stats = asyncio.run(go())
        assert answer == b"OK 0\n"
        assert elapsed >= 0.1  # request chunk + answer chunk
        assert stats["delays"] >= 2

    def test_dead_upstream_aborts_the_client(self):
        async def go():
            # a bound socket that never listens: dialing it is refused,
            # and while it stays open the OS cannot hand its port to
            # the proxy's own port-0 listener
            with socket.socket() as dead:
                dead.bind(("127.0.0.1", 0))
                proxy = ChaosProxy("127.0.0.1", dead.getsockname()[1])
                await proxy.start()
                try:
                    try:
                        answer = await _inc_via(proxy, timeout=1.0)
                    except (ConnectionResetError, BrokenPipeError):
                        answer = b""
                    return answer, dict(proxy.stats)
                finally:
                    await proxy.stop()

        answer, stats = asyncio.run(go())
        assert answer == b""
        assert stats["upstream_failures"] == 1

    def test_port_zero_binds_a_real_port(self):
        async def go():
            proxy = ChaosProxy("127.0.0.1", 1)
            await proxy.start()
            port, address = proxy.port, proxy.address
            await proxy.stop()
            return port, address

        port, address = asyncio.run(go())
        assert port > 0
        assert address == f"127.0.0.1:{port}"


class TestExactlyOnceUnderChaos:
    def test_retrying_load_through_mixed_chaos_counts_exactly(self):
        """The E26 invariant in miniature: no lost or doubled increments."""

        async def go():
            service = await _serve(
                "central",
                4,
                resilience=ResilienceConfig(max_backlog=64),
            )
            proxy = await _proxied(
                service,
                parse_chaos_spec(
                    "delay=0.002@0.2,trunc=4@0.15,reset@0.25", seed=13
                ),
            )
            try:
                result = await run_load(
                    "127.0.0.1",
                    proxy.port,
                    ops=80,
                    rate=400.0,
                    seed=2,
                    retry=RetryPolicy(
                        attempts=8, base_delay=0.005, max_delay=0.05
                    ),
                    deadline=0.5,
                    rid_prefix="mini",
                )
                await asyncio.sleep(0.1)  # let stray commits land
                stats = service.stats()
                probe = await service.inc()
            finally:
                await proxy.stop()
                await service.stop()
            return result, stats, probe, dict(proxy.stats)

        result, stats, probe, proxy_stats = asyncio.run(go())
        # every committed op has a unique value, and the counter's
        # final value equals the unique committed request ids exactly
        assert result.completed == 80
        assert result.errors == 0
        assert len(set(result.values)) == len(result.values)
        assert probe == stats["served"] == stats["rid_committed"] == 80
        # the chaos actually happened and retries actually carried it
        assert proxy_stats["resets"] + proxy_stats["truncations"] > 0
        assert result.retries > 0
