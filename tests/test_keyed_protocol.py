"""Wire-level edge cases of the keyed protocol (``repro.serve.keyed``).

Exercises the grammar corners a fuzzer finds first: missing/empty keys,
keys with spaces (which the space-delimited grammar necessarily reads
as extra arguments), keys at and over the 128-char bound, lines over
the reader's ``line_limit``, ``STATS`` on never-incremented keys, bad
deadlines, malformed admin commands — and the one semantic corner that
spans subsystems: request-id dedup surviving a shard split between the
original request and its retry.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.serve import KeyedCounterService
from repro.serve.resilience import ResilienceConfig

pytestmark = pytest.mark.shard


async def _request(service: KeyedCounterService, line: str) -> str:
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


def _serve_and_ask(*lines: str, **service_kwargs) -> list[str]:
    """Run a fresh keyed service, send each line, return the replies."""

    async def go() -> list[str]:
        service = KeyedCounterService(
            "central", 4, port=0, shards=2, **service_kwargs
        )
        await service.start()
        try:
            return [await _request(service, line) for line in lines]
        finally:
            await service.stop()

    return asyncio.run(go())


class TestKeyGrammar:
    def test_inc_without_key_is_bad_request(self):
        (reply,) = _serve_and_ask("INC")
        assert reply == (
            "ERR BAD_REQUEST usage: INC <key> [rid] [deadline_ms>0]"
        )

    def test_key_with_spaces_reads_as_extra_args(self):
        # "my key with spaces" is four tokens: one too many for
        # INC <key> [rid] [deadline_ms] -> argument-count rejection.
        (reply,) = _serve_and_ask("INC my key with spaces")
        assert reply.startswith("ERR BAD_REQUEST usage: INC")

    def test_key_with_spaces_as_rid_deadline_is_bad_deadline(self):
        # Three tokens parse as key/rid/deadline; a non-numeric or
        # non-positive deadline is rejected, not silently misread.
        (a, b) = _serve_and_ask("INC my key spaces", "INC k r 0")
        assert a.startswith("ERR BAD_REQUEST usage: INC")
        assert b.startswith("ERR BAD_REQUEST usage: INC")

    def test_illegal_characters_are_bad_key(self):
        replies = _serve_and_ask("INC bad!key", "INC k%2F", "STATS ...x,")
        for reply in replies:
            assert reply.startswith("ERR BAD_KEY"), reply
        assert "1-128 characters" in replies[0]

    def test_key_length_boundary(self):
        legal = "k" * 128
        over = "k" * 129
        ok, bad, stats = _serve_and_ask(
            f"INC {legal}", f"INC {over}", f"STATS {legal}"
        )
        assert ok == "OK 0"
        assert bad.startswith("ERR BAD_KEY")
        assert f"key={legal} value=1" in stats

    def test_oversized_line_hits_the_reader_limit(self):
        # A 128-char key is legal by KEY_PATTERN but the framed line
        # exceeds a tight line_limit: the reader bound answers with
        # LINE_TOO_LONG and drops the connection (framing is lost past
        # an unterminated line); the service itself stays healthy and
        # a fresh connection serves normally.
        async def go() -> tuple[str, str, str]:
            service = KeyedCounterService(
                "central",
                4,
                port=0,
                shards=2,
                resilience=ResilienceConfig(line_limit=64),
            )
            await service.start()
            try:
                reader, writer = await asyncio.open_connection(
                    service.host, service.port
                )
                try:
                    writer.write(f"INC {'k' * 128}\n".encode())
                    await writer.drain()
                    first = (await reader.readline()).decode().strip()
                    closed = (await reader.readline()).decode()
                finally:
                    writer.close()
                    try:
                        await writer.wait_closed()
                    except (ConnectionResetError, BrokenPipeError):
                        pass
                second = await _request(service, "INC ok")
                return first, closed, second
            finally:
                await service.stop()

        first, closed, second = asyncio.run(go())
        assert first == (
            "ERR LINE_TOO_LONG protocol lines are capped at 64 bytes"
        )
        assert closed == ""  # EOF: the poisoned connection was dropped
        assert second == "OK 0"


    @pytest.mark.parametrize("deadline", ["nan", "NaN", "inf", "-inf"])
    def test_non_finite_deadline_is_bad_request(self, deadline):
        inc, stats = _serve_and_ask(f"INC k1 r1 {deadline}", "STATS")
        assert inc == (
            "ERR BAD_REQUEST usage: INC <key> [rid] [deadline_ms>0]"
        )
        fields = dict(pair.split("=", 1) for pair in stats.split()[1:])
        assert fields["served"] == "0"
        assert fields["expired"] == "0"


async def _exchange(
    service: KeyedCounterService, payload: bytes, answers: int
) -> list[str]:
    """Send *payload* on one connection and read *answers* lines."""
    reader, writer = await asyncio.open_connection(
        service.host, service.port
    )
    try:
        writer.write(payload)
        await writer.drain()
        return [
            (await asyncio.wait_for(reader.readline(), timeout=5))
            .decode("ascii")
            .strip()
            for _ in range(answers)
        ]
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


def _with_keyed_service(drive, spec="central", **service_kwargs):
    async def go():
        service = KeyedCounterService(
            spec, 4, port=0, shards=2, **service_kwargs
        )
        await service.start()
        try:
            return await drive(service)
        finally:
            await service.stop()

    return asyncio.run(go())


class TestWireFraming:
    def test_pipelined_lines_answer_in_order(self):
        answers = _with_keyed_service(
            lambda service: _exchange(
                service, b"INC a\nINC a\nPING\nINC b\nSTATS a\n", 5
            )
        )
        assert answers[:4] == ["OK 0", "OK 1", "PONG", "OK 0"]
        assert answers[4].startswith("STATS key=a value=2 ")

    def test_final_line_without_newline_is_answered_at_eof(self):
        async def drive(service):
            reader, writer = await asyncio.open_connection(
                service.host, service.port
            )
            writer.write(b"INC a\nINC a")  # no newline after the second
            writer.write_eof()
            answers = await asyncio.wait_for(reader.read(), timeout=5)
            writer.close()
            await writer.wait_closed()
            return answers

        assert _with_keyed_service(drive) == b"OK 0\nOK 1\n"

    def test_inc_split_across_two_writes_gets_one_answer(self):
        async def drive(service):
            reader, writer = await asyncio.open_connection(
                service.host, service.port
            )
            writer.write(b"INC sp")
            await writer.drain()
            await asyncio.sleep(0.02)  # the halves arrive apart
            writer.write(b"lit r1\nPING\n")
            await writer.drain()
            answers = [
                (await reader.readline()).decode("ascii").strip()
                for _ in range(2)
            ]
            writer.close()
            await writer.wait_closed()
            return answers, service.served

        answers, served = _with_keyed_service(drive)
        assert answers == ["OK 0", "PONG"]
        assert served == 1

    def test_input_beyond_the_line_limit_waits_behind_a_slow_answer(self):
        # One slow INC holds the connection while 40 pipelined lines
        # (far more than the 64-byte buffer bound) queue behind it:
        # reading pauses and resumes, and every line is answered in
        # order.
        payload = b"INC slow\n" + b"PING\n" * 40
        answers = _with_keyed_service(
            lambda service: _exchange(service, payload, 41),
            "static-tree",
            time_scale=0.02,
            resilience=ResilienceConfig(line_limit=64),
        )
        assert answers == ["OK 0"] + ["PONG"] * 40


class TestWireRequestLifecycle:
    def test_disconnect_mid_inc_still_commits_for_a_retry(self):
        async def drive(service):
            _, writer = await asyncio.open_connection(
                service.host, service.port
            )
            writer.write(b"INC acct r1\n")
            await writer.drain()
            writer.close()  # walk away with the op in flight
            await writer.wait_closed()
            await asyncio.sleep(0.01)
            retry = await _request(service, "INC acct r1")
            value = await _request(service, "STATS acct")
            return retry, value, service.stats()

        retry, value, stats = _with_keyed_service(
            drive, "static-tree", time_scale=0.02
        )
        assert retry == "OK 0"
        assert "value=1" in value
        assert stats["served"] == 1
        assert stats["deduped"] == 1

    def test_wire_deadline_answers_early_and_drops_the_late_value(self):
        # The deadline answers first; the op commits anyway, and its
        # late value must not answer the next line on the connection.
        async def drive(service):
            lines = await _exchange(
                service, b"INC k r1 5\nPING\nINC k r1\n", 3
            )
            return lines, service.stats()

        lines, stats = _with_keyed_service(
            drive, "static-tree", time_scale=0.05
        )
        assert lines[0].startswith("ERR DEADLINE_EXCEEDED ")
        assert lines[1:] == ["PONG", "OK 0"]
        assert stats["expired"] == 1
        assert stats["served"] == 1
        assert stats["deduped"] == 1

    def test_shutdown_answers_bye_and_ignores_later_lines(self):
        async def drive(service):
            reader, writer = await asyncio.open_connection(
                service.host, service.port
            )
            writer.write(b"INC a\nSHUTDOWN\nINC a\n")
            await writer.drain()
            answers = await asyncio.wait_for(reader.read(), timeout=5)
            writer.close()
            await writer.wait_closed()
            await asyncio.wait_for(service.wait_closed(), timeout=5)
            return answers, service.served

        answers, served = _with_keyed_service(drive)
        assert answers == b"OK 0\nBYE\n"
        assert served == 1


class TestStatsGrammar:
    def test_unknown_key_is_a_zero_counter(self):
        # Placement is total: every legal key exists, value 0.
        (reply,) = _serve_and_ask("STATS never.touched")
        assert reply.startswith("STATS key=never.touched value=0 shard=")

    def test_stats_key_reflects_increments_and_placement(self):
        inc1, inc2, stats = _serve_and_ask(
            "INC hot", "INC hot", "STATS hot"
        )
        assert (inc1, inc2) == ("OK 0", "OK 1")
        key_part, value_part, shard_part = stats.split()[1:]
        assert key_part == "key=hot"
        assert value_part == "value=2"
        assert shard_part.startswith("shard=")

    def test_stats_with_two_keys_is_bad_request(self):
        (reply,) = _serve_and_ask("STATS one two")
        assert reply == "ERR BAD_REQUEST usage: STATS [key]"

    @pytest.mark.parametrize("level", ["FULL", "LOADS", "OFF"])
    def test_bare_stats_answers_at_every_trace_level(self, level):
        *_, reply = _serve_and_ask(
            "INC a", "INC b", "INC a", "STATS", trace_level=level
        )
        fields = dict(pair.split("=", 1) for pair in reply.split()[1:])
        assert list(fields) == [
            "spec", "n", "shards", "served", "inflight", "backlog", "shed",
            "expired", "deduped", "rid_committed", "keys", "batches",
            "splits", "merges", "messages",
        ]
        assert fields["served"] == "3"
        # OFF counts no messages, and says so instead of dropping the line.
        if level == "OFF":
            assert fields["messages"] == "na"
        else:
            assert int(fields["messages"]) > 0


class TestAdminGrammar:
    def test_split_and_merge_argument_validation(self):
        replies = _serve_and_ask(
            "SPLIT", "SPLIT x", "MERGE 0", "MERGE a b", "SPLIT 99",
            "MERGE 0 99",
        )
        assert replies[0] == "ERR BAD_REQUEST usage: SPLIT <shard_id>"
        assert replies[1] == "ERR BAD_REQUEST usage: SPLIT <shard_id>"
        assert replies[2] == (
            "ERR BAD_REQUEST usage: MERGE <survivor> <absorbed>"
        )
        assert replies[3] == (
            "ERR BAD_REQUEST usage: MERGE <survivor> <absorbed>"
        )
        assert replies[4].startswith("ERR BAD_REQUEST unknown shard 99")
        assert replies[5].startswith("ERR BAD_REQUEST unknown shard 99")

    def test_merge_requires_adjacency_on_the_wire(self):
        async def go() -> str:
            service = KeyedCounterService(
                "central", 4, port=0, shards=3
            )
            await service.start()
            try:
                return await _request(service, "MERGE 0 2")
            finally:
                await service.stop()

        reply = asyncio.run(go())
        assert reply.startswith("ERR BAD_REQUEST")
        assert "not adjacent" in reply


class TestRidDedupAcrossResharding:
    def test_retry_after_split_returns_the_committed_value(self):
        # The dedup ledger is service-global, not per-shard: a retry
        # must return the originally committed value even when the
        # key's shard was split (and the key possibly migrated)
        # between the attempts.
        async def go() -> dict[str, object]:
            service = KeyedCounterService(
                "central", 4, port=0, shards=2
            )
            await service.start()
            try:
                first = await _request(service, "INC acct:7 rid-1")
                # bump the key so a non-deduped retry would answer 1
                await _request(service, "INC acct:7")
                stats = await _request(service, "STATS acct:7")
                home = int(stats.rsplit("shard=", 1)[1])
                split_reply = await _request(service, f"SPLIT {home}")
                retry = await _request(service, "INC acct:7 rid-1")
                after = await _request(service, "STATS acct:7")
                return {
                    "first": first,
                    "split": split_reply,
                    "retry": retry,
                    "after": after,
                    "deduped": service.stats()["deduped"],
                    "served": service.served,
                }
            finally:
                await service.stop()

        result = asyncio.run(go())
        assert result["first"] == "OK 0"
        assert str(result["split"]).startswith("OK ")
        # the retry attaches to the committed op: same value, no
        # third increment
        assert result["retry"] == "OK 0"
        assert "value=2" in str(result["after"])
        assert result["deduped"] == 1
        assert result["served"] == 2

    def test_retry_after_merge_returns_the_committed_value(self):
        async def go() -> dict[str, object]:
            service = KeyedCounterService(
                "central", 4, port=0, shards=2
            )
            await service.start()
            try:
                first = await _request(service, "INC acct:7 rid-9")
                merged = await _request(service, "MERGE 0 1")
                retry = await _request(service, "INC acct:7 rid-9")
                return {
                    "first": first,
                    "merged": merged,
                    "retry": retry,
                    "shards": service.map.shard_count,
                }
            finally:
                await service.stop()

        result = asyncio.run(go())
        assert result["first"] == "OK 0"
        assert result["merged"] == "OK 0"
        assert result["retry"] == "OK 0"
        assert result["shards"] == 1
