"""Tests for the live serving layer: CounterService + the load generator.

Everything runs in-process on loopback sockets with ``time_scale=0`` so
the suite stays fast; wall-clock saturation needs ``time_scale > 0``
(E26, or ``repro serve --time-scale`` + ``repro loadgen --rates``).
"""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import CapabilityError
from repro.registry import parse_spec, registered_names
from repro.serve import CounterService, LoadResult, run_load, run_rate_sweep

SERVABLE = tuple(
    name
    for name in registered_names()
    if parse_spec(name).capabilities.supports_concurrent
)
SEQUENTIAL_ONLY = tuple(
    name for name in registered_names() if name not in SERVABLE
)


def _spec_for(name: str) -> str:
    # Strict ww-tree enforces one-shot id discipline; a service handles
    # repeated operations, so it is served in wrap mode.
    return "ww-tree?interval_mode=wrap" if name == "ww-tree" else name


async def _request(service: CounterService, line: str) -> str:
    reader, writer = await asyncio.open_connection(
        service.host, service.port
    )
    try:
        writer.write(f"{line}\n".encode("ascii"))
        await writer.drain()
        return (await reader.readline()).decode("ascii").strip()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


class TestEveryServableSpecServes:
    """The acceptance bar: every concurrent-capable spec, served."""

    @pytest.mark.parametrize("name", SERVABLE)
    def test_served_increments_count_correctly(self, name):
        n = 8

        async def go():
            service = CounterService(_spec_for(name), n, port=0)
            await service.start()
            try:
                values = await asyncio.gather(
                    *(service.inc() for _ in range(n))
                )
            finally:
                await service.stop()
            return service, values

        service, values = asyncio.run(go())
        assert sorted(values) == list(range(n))
        assert service.served == n
        assert service.inflight == 0
        assert service.stats()["served"] == n

    @pytest.mark.parametrize("name", SEQUENTIAL_ONLY)
    def test_sequential_only_specs_refused(self, name):
        with pytest.raises(CapabilityError, match="cannot serve"):
            CounterService(name, 8)


class TestProtocol:
    def _with_service(self, coro_fn, spec="central", n=4):
        async def go():
            service = CounterService(spec, n, port=0)
            await service.start()
            try:
                return await coro_fn(service)
            finally:
                await service.stop()

        return asyncio.run(go())

    def test_inc_returns_ordered_values_per_connection(self):
        async def drive(service):
            reader, writer = await asyncio.open_connection(
                service.host, service.port
            )
            answers = []
            for _ in range(5):
                writer.write(b"INC\n")
                await writer.drain()
                answers.append((await reader.readline()).decode().strip())
            writer.close()
            await writer.wait_closed()
            return answers

        answers = self._with_service(drive)
        assert answers == [f"OK {v}" for v in range(5)]

    def test_ping_pong(self):
        assert self._with_service(lambda s: _request(s, "PING")) == "PONG"

    def test_stats_reports_spec_and_counts(self):
        async def drive(service):
            # two incs: the first leases central's co-located server
            # client (self-delivery, zero messages), the second is remote
            await service.inc()
            await service.inc()
            return await _request(service, "STATS")

        line = self._with_service(drive)
        assert line.startswith("STATS ")
        fields = dict(
            pair.split("=", 1) for pair in line[len("STATS "):].split()
        )
        assert fields["spec"] == "central"
        assert fields["n"] == "4"
        assert fields["served"] == "2"
        assert fields["inflight"] == "0"
        assert int(fields["messages"]) > 0

    def test_unknown_command_answers_err(self):
        answer = self._with_service(lambda s: _request(s, "DECREMENT"))
        assert answer.startswith("ERR unknown command")

    def test_lowercase_commands_accepted(self):
        assert self._with_service(lambda s: _request(s, "ping")) == "PONG"

    def test_shutdown_answers_bye_and_stops(self):
        async def go():
            service = CounterService("central", 4, port=0)
            await service.start()
            answer = await _request(service, "SHUTDOWN")
            await asyncio.wait_for(service.wait_closed(), timeout=5)
            return answer

        assert asyncio.run(go()) == "BYE"

    def test_port_zero_binds_a_real_port(self):
        async def go():
            service = CounterService("central", 4, port=0)
            await service.start()
            port = service.port
            address = service.address
            await service.stop()
            return port, address

        port, address = asyncio.run(go())
        assert port > 0
        assert address == f"127.0.0.1:{port}"


class TestProtocolEdgeCases:
    def test_binary_junk_answers_err_and_keeps_the_connection(self):
        async def go():
            service = CounterService("central", 4, port=0)
            await service.start()
            try:
                reader, writer = await asyncio.open_connection(
                    service.host, service.port
                )
                writer.write(b"\x00\xff\xfe\x80 junk\n")
                await writer.drain()
                junk_answer = (await reader.readline()).decode(
                    "ascii", "replace"
                )
                writer.write(b"PING\n")
                await writer.drain()
                ping_answer = (await reader.readline()).decode("ascii")
                writer.close()
                await writer.wait_closed()
                return junk_answer, ping_answer
            finally:
                await service.stop()

        junk_answer, ping_answer = asyncio.run(go())
        assert junk_answer.startswith("ERR unknown command")
        assert ping_answer == "PONG\n"

    def test_pipelined_commands_in_one_chunk_answer_in_order(self):
        async def go():
            service = CounterService("central", 4, port=0)
            await service.start()
            try:
                reader, writer = await asyncio.open_connection(
                    service.host, service.port
                )
                writer.write(b"INC\nPING\nINC\nSTATS\n")
                await writer.drain()
                answers = [
                    (await reader.readline()).decode("ascii").strip()
                    for _ in range(4)
                ]
                writer.close()
                await writer.wait_closed()
                return answers
            finally:
                await service.stop()

        answers = asyncio.run(go())
        assert answers[0] == "OK 0"
        assert answers[1] == "PONG"
        assert answers[2] == "OK 1"
        assert answers[3].startswith("STATS ")

    def test_disconnect_mid_inc_returns_the_leased_processor(self):
        async def go():
            service = CounterService(
                "static-tree", 1, port=0, time_scale=0.05
            )
            await service.start()
            try:
                _, writer = await asyncio.open_connection(
                    service.host, service.port
                )
                writer.write(b"INC\n")
                await writer.drain()
                writer.close()  # walk away mid-operation
                # the op still commits, and the single lease is free
                # again for the next client: an in-process inc works
                await asyncio.sleep(0.01)
                value = await asyncio.wait_for(service.inc(), timeout=5.0)
                return value, service.served, service.inflight
            finally:
                await service.stop()

        value, served, inflight = asyncio.run(go())
        assert value == 1  # the abandoned op committed first
        assert served == 2
        assert inflight == 0

    def test_final_line_without_newline_is_answered_at_eof(self):
        async def go():
            service = CounterService("central", 4, port=0)
            await service.start()
            try:
                reader, writer = await asyncio.open_connection(
                    service.host, service.port
                )
                writer.write(b"INC\nPING")  # no newline after PING
                writer.write_eof()
                answers = await asyncio.wait_for(reader.read(), timeout=5)
                writer.close()
                await writer.wait_closed()
                return answers
            finally:
                await service.stop()

        # both lines answered, in order, then the server closes
        assert asyncio.run(go()) == b"OK 0\nPONG\n"

    def test_inc_split_across_two_writes_gets_one_answer(self):
        async def go():
            service = CounterService("central", 4, port=0)
            await service.start()
            try:
                reader, writer = await asyncio.open_connection(
                    service.host, service.port
                )
                writer.write(b"IN")
                await writer.drain()
                await asyncio.sleep(0.02)  # the halves arrive apart
                writer.write(b"C\nPING\n")
                await writer.drain()
                answers = [
                    (await reader.readline()).decode("ascii").strip()
                    for _ in range(2)
                ]
                writer.close()
                await writer.wait_closed()
                return answers, service.served
            finally:
                await service.stop()

        answers, served = asyncio.run(go())
        assert answers == ["OK 0", "PONG"]
        assert served == 1

    def test_no_line_starts_while_the_transport_pauses_writing(self):
        # Write backpressure: between the transport's pause_writing and
        # resume_writing a connection answers nothing new; on resume it
        # answers what arrived meanwhile, in order.
        async def go():
            service = CounterService("central", 4, port=0)
            await service.start()
            try:
                reader, writer = await asyncio.open_connection(
                    service.host, service.port
                )
                writer.write(b"PING\n")
                first = await reader.readline()
                (connection,) = service._connections
                connection.pause_writing()
                writer.write(b"INC\nPING\n")
                await writer.drain()
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(reader.readline(), timeout=0.05)
                served_while_paused = service.served
                connection.resume_writing()
                rest = [await reader.readline() for _ in range(2)]
                writer.close()
                await writer.wait_closed()
                return first, served_while_paused, rest
            finally:
                await service.stop()

        first, served_while_paused, rest = asyncio.run(go())
        assert first == b"PONG\n"
        assert served_while_paused == 0
        assert rest == [b"OK 0\n", b"PONG\n"]

    @pytest.mark.parametrize("deadline", ["nan", "NaN", "inf", "-inf"])
    def test_non_finite_deadline_is_bad_request(self, deadline):
        async def go():
            service = CounterService("central", 4, port=0)
            await service.start()
            try:
                answer = await _request(service, f"INC r1 {deadline}")
                return answer, service.stats()
            finally:
                await service.stop()

        answer, stats = asyncio.run(go())
        assert answer == "ERR BAD_REQUEST usage: INC [rid] [deadline_ms>0]"
        assert stats["served"] == 0
        assert stats["expired"] == 0

    def test_stats_field_order_is_the_wire_contract(self):
        async def go():
            service = CounterService("central", 4, port=0)
            await service.start()
            try:
                return await _request(service, "STATS")
            finally:
                await service.stop()

        line = asyncio.run(go())
        keys = [pair.split("=", 1)[0] for pair in line.split()[1:]]
        assert keys == [
            "spec",
            "n",
            "served",
            "inflight",
            "backlog",
            "shed",
            "expired",
            "deduped",
            "rid_committed",
            "messages",
        ]


    @pytest.mark.parametrize("level", ["FULL", "LOADS", "OFF"])
    def test_stats_answers_at_every_trace_level(self, level):
        async def go():
            service = CounterService("central", 4, port=0, trace_level=level)
            await service.start()
            try:
                await service.inc()
                await service.inc()
                return await _request(service, "STATS")
            finally:
                await service.stop()

        fields = dict(pair.split("=", 1) for pair in asyncio.run(go()).split()[1:])
        assert list(fields)[-2:] == ["rid_committed", "messages"]
        assert fields["served"] == "2"
        # OFF counts no messages, and says so instead of dropping the line.
        assert fields["messages"] == ("na" if level == "OFF" else "2")


class TestLoadGenerator:
    def test_run_load_counts_every_increment(self):
        async def go():
            service = CounterService(
                "ww-tree?interval_mode=wrap", 27, port=0
            )
            await service.start()
            try:
                result = await run_load(
                    service.host, service.port, ops=60, rate=500.0
                )
            finally:
                await service.stop()
            return service, result

        service, result = asyncio.run(go())
        assert result.sent == 60
        assert result.completed == 60
        assert result.errors == 0
        assert result.final_value == 60
        assert service.served == 60
        assert result.throughput > 0.0
        assert 0.0 <= result.p50 <= result.p99

    def test_bursty_process(self):
        async def go():
            service = CounterService("central", 8, port=0)
            await service.start()
            try:
                return await run_load(
                    service.host,
                    service.port,
                    ops=30,
                    rate=300.0,
                    process="bursty",
                )
            finally:
                await service.stop()

        result = asyncio.run(go())
        assert result.completed == 30
        assert result.process == "bursty"

    def test_rate_sweep_runs_each_rate(self):
        async def go():
            service = CounterService("central", 8, port=0)
            await service.start()
            try:
                return await run_rate_sweep(
                    service.host,
                    service.port,
                    ops=20,
                    rates=(100.0, 200.0),
                )
            finally:
                await service.stop()

        sweep = asyncio.run(go())
        assert sweep.rates == [100.0, 200.0]
        assert all(run.completed == 20 for run in sweep.runs)
        # final value keeps growing across the sweep on one service
        assert sweep.runs[0].final_value == 20
        assert sweep.runs[1].final_value == 40

    def test_rate_sweep_requires_ascending_rates(self):
        async def go():
            await run_rate_sweep("127.0.0.1", 1, ops=1, rates=(2.0, 1.0))

        with pytest.raises(ValueError, match="ascending"):
            asyncio.run(go())


class TestLoadgenWireText:
    """Both public load functions drive one private coroutine; what each
    puts on the wire is pinned here against a server that only records."""

    @staticmethod
    def _record(drive):
        async def go():
            lines: list[str] = []

            async def answer(reader, writer):
                while line := await reader.readline():
                    lines.append(line.decode("ascii").rstrip("\n"))
                    writer.write(f"OK {len(lines) - 1}\n".encode("ascii"))
                    await writer.drain()
                writer.close()

            server = await asyncio.start_server(answer, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                result = await drive("127.0.0.1", port)
            finally:
                server.close()
                await server.wait_closed()
            return lines, result

        return asyncio.run(go())

    def test_unkeyed_requests(self):
        from repro.serve import RetryPolicy

        lines, result = self._record(
            lambda host, port: run_load(
                host, port, ops=12, rate=2000.0, seed=0,
                retry=RetryPolicy(attempts=2), deadline=0.5,
            )
        )
        assert sorted(lines) == sorted(f"INC lg0-{i} 500" for i in range(12))
        assert type(result) is LoadResult
        assert (result.completed, result.errors) == (12, 0)

    def test_unkeyed_requests_without_retry_carry_no_rid(self):
        lines, _ = self._record(
            lambda host, port: run_load(host, port, ops=3, rate=2000.0)
        )
        assert lines == ["INC"] * 3

    def test_keyed_requests(self):
        from repro.serve import KeyedLoadResult, RetryPolicy, run_keyed_load
        from repro.workloads.sequences import zipf_keys

        lines, result = self._record(
            lambda host, port: run_keyed_load(
                host, port, ops=12, rate=2000.0, seed=0, keys=8, zipf=1.1,
                retry=RetryPolicy(attempts=2), deadline=0.5,
            )
        )
        keys = zipf_keys(8, 12, skew=1.1, seed=0 ^ 0x6B65, prefix="k")
        assert sorted(lines) == sorted(
            f"INC {key} klg0-{i} 500" for i, key in enumerate(keys)
        )
        assert type(result) is KeyedLoadResult
        assert result.key_population == 8
        assert sorted(result.key_values) == sorted(set(keys))
        assert sum(map(len, result.key_values.values())) == 12


class TestLoadResultMath:
    def _result(self, latencies):
        return LoadResult(
            offered_rate=10.0,
            process="poisson",
            sent=len(latencies),
            completed=len(latencies),
            errors=0,
            duration=2.0,
            final_value=len(latencies),
            latencies=list(latencies),
        )

    def test_percentiles_nearest_rank(self):
        result = self._result([0.1, 0.2, 0.3, 0.4, 0.5])
        assert result.p50 == 0.3
        assert result.percentile(0.0) == 0.1
        assert result.percentile(1.0) == 0.5

    def test_empty_latencies_are_zero(self):
        result = self._result([])
        assert result.mean_latency == 0.0
        assert result.p99 == 0.0

    def test_percentile_bounds_checked(self):
        with pytest.raises(ValueError):
            self._result([0.1]).percentile(1.5)

    def test_throughput_and_summary(self):
        result = self._result([0.01, 0.02])
        assert result.throughput == pytest.approx(1.0)
        line = result.summary()
        assert "rate=10/s" in line
        assert "ok=2" in line
        assert "p99=" in line
