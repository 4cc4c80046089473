"""Tests for the serving resilience layer.

Policy objects (`repro.serve.resilience`) are tested as pure units with
injected clocks and seeded rngs; service-level behavior (deadlines,
shedding, exactly-once dedup, graceful drain, the stranded-waiter
regression) runs against a real :class:`CounterService` on a loopback
socket.
"""

from __future__ import annotations

import asyncio
import random
import socket
import statistics
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    OverloadedError,
    ServiceStoppedError,
)
from repro.serve import (
    CircuitBreaker,
    CounterService,
    DedupTable,
    KeyedCounterService,
    ResilienceConfig,
    RetryBudget,
    RetryPolicy,
    run_load,
)

pytestmark = pytest.mark.resilience


class TestResilienceConfig:
    def test_defaults_are_valid(self):
        config = ResilienceConfig()
        assert config.max_backlog == 256
        assert config.default_deadline is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_backlog": -1},
            {"default_deadline": 0.0},
            {"default_deadline": -1.0},
            {"dedup_capacity": 0},
            {"line_limit": 8},
            {"drain_timeout": -0.1},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ResilienceConfig(**kwargs)

    def test_none_backlog_disables_shedding(self):
        assert ResilienceConfig(max_backlog=None).max_backlog is None


class TestDedupTable:
    def _future(self):
        loop = asyncio.new_event_loop()
        try:
            return loop.create_future()
        finally:
            loop.close()

    def test_commit_resolves_future_and_counts(self):
        table = DedupTable(capacity=4)
        future = self._future()
        table.create("a", future)
        table.commit("a", 7)
        assert future.result() == 7
        assert table.get("a").committed
        assert table.committed_total == 1

    def test_duplicate_create_rejected(self):
        table = DedupTable(capacity=4)
        table.create("a", self._future())
        with pytest.raises(ConfigurationError, match="already tracked"):
            table.create("a", self._future())

    def test_fail_removes_entry_so_retries_start_fresh(self):
        table = DedupTable(capacity=4)
        future = self._future()
        table.create("a", future)
        table.fail("a", OverloadedError("shed"))
        assert table.get("a") is None
        with pytest.raises(OverloadedError):
            future.result()
        # a retry may now register the rid again
        table.create("a", self._future())

    def test_eviction_drops_oldest_committed_first(self):
        table = DedupTable(capacity=2)
        for rid in ("a", "b"):
            table.create(rid, self._future())
            table.commit(rid, 0)
        pending = self._future()
        table.create("c", pending)
        assert len(table) == 2
        assert table.get("a") is None  # oldest committed evicted
        assert table.get("b") is not None
        assert table.get("c") is not None

    def test_pending_entries_never_evicted(self):
        table = DedupTable(capacity=1)
        table.create("p1", self._future())
        table.create("p2", self._future())
        assert len(table) == 2  # over capacity, but both still pending

    def test_capacity_validated(self):
        with pytest.raises(ConfigurationError):
            DedupTable(capacity=0)


class _Resolved:
    """Stands in for a rid entry's future where no loop is running."""

    @staticmethod
    def done() -> bool:
        return True


class _CopyingEvictTable(DedupTable):
    """The reference: ``_evict`` as it was before it stopped copying
    the ledger, verbatim.  The model check below holds the live table
    to its eviction order."""

    def _evict(self) -> None:
        if len(self._entries) <= self.capacity:
            return
        for rid, entry in list(self._entries.items()):
            if entry.committed:
                del self._entries[rid]
                if len(self._entries) <= self.capacity:
                    return


_LEDGER_STEPS = st.lists(
    st.tuples(
        st.sampled_from(("create", "commit", "fail", "get")),
        st.integers(min_value=0, max_value=11),
    ),
    max_size=60,
)


class TestDedupEvictionModel:
    @settings(max_examples=300, deadline=None)
    @given(capacity=st.integers(min_value=1, max_value=8), steps=_LEDGER_STEPS)
    def test_same_ledger_as_the_copying_eviction(self, capacity, steps):
        table, model = DedupTable(capacity), _CopyingEvictTable(capacity)
        pending: set[str] = set()
        for verb, number in steps:
            rid = f"r{number}"
            if verb == "create":
                if table.get(rid) is not None:
                    continue  # the services only create unseen rids
                for ledger in (table, model):
                    ledger.create(rid, _Resolved)
                pending.add(rid)
            elif verb == "commit":
                if rid not in pending:
                    continue  # commits happen once, to injected rids
                for ledger in (table, model):
                    ledger.commit(rid, number)
                pending.discard(rid)
            elif verb == "fail":
                if table.get(rid) is not None and rid not in pending:
                    continue  # only legal before injection
                for ledger in (table, model):
                    ledger.fail(rid, OverloadedError("shed"))
                pending.discard(rid)
            else:
                assert (table.get(rid) is None) == (model.get(rid) is None)
            assert list(table._entries) == list(model._entries)
            assert len(table) == len(model)
            assert table.committed_total == model.committed_total
            # never evicted, even when over capacity and the oldest
            assert pending <= set(table._entries)

    def test_oldest_entry_pending_is_skipped_not_evicted(self):
        table = DedupTable(capacity=2)
        table.create("old-pending", _Resolved)
        for rid in ("b", "c", "d"):
            table.create(rid, _Resolved)
            table.commit(rid, 0)
        assert list(table._entries) == ["old-pending", "d"]


def _median_create_peak_bytes(capacity: int, calls: int = 1_000) -> float:
    """Median, over *calls* evicting ``create()``+``commit()`` pairs on
    a full ledger, of the most memory one pair held at once.  A count,
    not a time; the median skips the occasional dict resize."""
    table = DedupTable(capacity)
    for index in range(capacity):
        table.create(f"warm{index}", _Resolved)
        table.commit(f"warm{index}", index)
    rids = [f"r{index}" for index in range(calls)]
    peaks = []
    tracemalloc.start()
    try:
        for index, rid in enumerate(rids):
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            table.create(rid, _Resolved)
            table.commit(rid, index)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    assert len(table) == capacity
    return statistics.median(peaks)


class TestDedupCostIsFlat:
    def test_evicting_create_allocates_the_same_at_any_capacity(self):
        small = _median_create_peak_bytes(64)
        large = _median_create_peak_bytes(4_096)
        assert small > 0
        assert abs(large - small) <= 0.1 * small, (small, large)


class TestDedupWindowBoundary:
    """The ledger's stated window, through the service: an answered
    rid is recognised after ``capacity - 1`` newer committed rids and
    forgotten after ``capacity``."""

    CAPACITY = 4

    def _run(self, newer: int):
        async def go():
            service = KeyedCounterService(
                "central",
                4,
                shards=1,
                trace_level="LOADS",
                resilience=ResilienceConfig(dedup_capacity=self.CAPACITY),
            )
            await service.start()
            try:
                first = await service.inc("k", rid="original")
                for index in range(newer):
                    await service.inc("k", rid=f"newer{index}")
                again = await service.inc("k", rid="original")
                return first, again, service.stats()
            finally:
                await service.stop()

        return asyncio.run(go())

    def test_resend_inside_the_window_gets_the_original_value(self):
        first, again, stats = self._run(newer=self.CAPACITY - 1)
        assert first == again == 0
        assert stats["deduped"] == 1
        assert stats["served"] == self.CAPACITY

    def test_resend_past_the_window_is_a_new_operation(self):
        first, again, stats = self._run(newer=self.CAPACITY)
        assert first == 0
        assert again == self.CAPACITY + 1  # counted again: a new inc
        assert stats["deduped"] == 0
        assert stats["served"] == self.CAPACITY + 2


class TestRetryPolicy:
    def test_delay_is_full_jitter_under_the_cap(self):
        policy = RetryPolicy(attempts=5, base_delay=0.1, max_delay=0.4)
        rng = random.Random(42)
        for retry_index, ceiling in enumerate((0.1, 0.2, 0.4, 0.4)):
            for _ in range(50):
                delay = policy.delay(retry_index, rng)
                assert 0.0 <= delay <= ceiling

    def test_worst_case_latency_sums_attempts_and_backoff(self):
        policy = RetryPolicy(attempts=3, base_delay=0.1, max_delay=0.15)
        # 3 attempts x 1.0 + backoff ceilings 0.1 + 0.15
        assert policy.worst_case_latency(1.0) == pytest.approx(3.25)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"attempts": 0},
            {"base_delay": -0.1},
            {"base_delay": 0.5, "max_delay": 0.1},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kwargs)


class TestRetryBudget:
    def test_take_depletes(self):
        budget = RetryBudget(2)
        assert budget.take()
        assert budget.take()
        assert not budget.take()
        assert budget.used == 2
        assert budget.remaining == 0

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            RetryBudget(-1)


class TestCircuitBreaker:
    def _breaker(self, threshold=3, reset=10.0):
        clock = {"now": 100.0}
        breaker = CircuitBreaker(
            threshold, reset, clock=lambda: clock["now"]
        )
        return breaker, clock

    def test_closed_until_threshold_consecutive_failures(self):
        breaker, _ = self._breaker(threshold=3)
        assert breaker.state == "closed"
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.trips == 1

    def test_success_resets_the_consecutive_count(self):
        breaker, _ = self._breaker(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_allows_exactly_one_probe(self):
        breaker, clock = self._breaker(threshold=1, reset=10.0)
        breaker.record_failure()
        assert breaker.state == "open"
        clock["now"] += 10.0
        assert breaker.state == "half-open"
        assert breaker.allow()  # the probe
        assert not breaker.allow()  # racing callers refused
        assert breaker.state == "half-open"

    def test_probe_success_closes(self):
        breaker, clock = self._breaker(threshold=1, reset=10.0)
        breaker.record_failure()
        clock["now"] += 10.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_probe_failure_reopens_for_a_fresh_timeout(self):
        breaker, clock = self._breaker(threshold=1, reset=10.0)
        breaker.record_failure()
        clock["now"] += 10.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.trips == 2
        clock["now"] += 9.9
        assert not breaker.allow()
        clock["now"] += 0.1
        assert breaker.allow()

    @pytest.mark.parametrize(
        "kwargs", [{"failure_threshold": 0}, {"reset_timeout": 0.0}]
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            CircuitBreaker(**kwargs)


def _service(spec="central", n=4, **kwargs):
    return CounterService(spec, n, port=0, **kwargs)


class TestServiceDeadlines:
    def test_deadline_expires_while_waiting_for_a_processor(self):
        async def go():
            # time_scale makes each op take real time, so one slow op
            # can hold every lease while a deadlined arrival waits
            service = _service("static-tree", n=1, time_scale=0.05)
            await service.start()
            try:
                slow = asyncio.create_task(service.inc())
                await asyncio.sleep(0.01)  # the lease is now taken
                with pytest.raises(DeadlineExceededError):
                    await service.inc(deadline=0.02)
                stats = service.stats()
                await slow
                return stats
            finally:
                await service.stop()

        stats = asyncio.run(go())
        assert stats["expired"] >= 1

    def test_expired_operation_still_commits_and_rid_recovers_it(self):
        async def go():
            service = _service("static-tree", n=1, time_scale=0.05)
            await service.start()
            try:
                with pytest.raises(DeadlineExceededError):
                    await service.inc(rid="r1", deadline=0.01)
                # the operation was injected: it commits in the
                # background, and a retry with the same rid gets its
                # value instead of double-counting
                value = await service.inc(rid="r1")
                stats = service.stats()
                return value, stats
            finally:
                await service.stop()

        value, stats = asyncio.run(go())
        assert value == 0
        assert stats["served"] == 1
        assert stats["rid_committed"] == 1
        assert stats["deduped"] == 1

    def test_queued_deadline_releases_the_rid_at_once(self):
        async def go():
            service = _service("static-tree", n=1, time_scale=0.05)
            await service.start()
            try:
                slow = asyncio.create_task(service.inc())
                await asyncio.sleep(0.01)  # the lease is now taken
                with pytest.raises(DeadlineExceededError, match="free proc"):
                    await service.inc(rid="q", deadline=0.01)
                # never injected: the same rid is a fresh operation
                retry = await service.inc(rid="q")
                await slow
                return retry, service.stats()
            finally:
                await service.stop()

        retry, stats = asyncio.run(go())
        assert retry == 1
        assert stats["served"] == 2
        assert stats["deduped"] == 0
        assert stats["expired"] == 1

    def test_default_deadline_from_config(self):
        async def go():
            service = _service(
                "static-tree",
                n=1,
                time_scale=0.05,
                resilience=ResilienceConfig(default_deadline=0.02),
            )
            await service.start()
            try:
                slow = asyncio.create_task(service.inc(deadline=5.0))
                await asyncio.sleep(0.01)
                with pytest.raises(DeadlineExceededError):
                    await service.inc()  # no explicit deadline
                await slow
            finally:
                await service.stop()

        asyncio.run(go())


class TestServiceShedding:
    def test_overload_sheds_beyond_the_backlog_cap(self):
        async def go():
            service = _service(
                "static-tree",
                n=1,
                time_scale=0.05,
                resilience=ResilienceConfig(max_backlog=1),
            )
            await service.start()
            try:
                first = asyncio.create_task(service.inc())
                await asyncio.sleep(0.01)  # lease taken
                queued = asyncio.create_task(service.inc())
                await asyncio.sleep(0.01)  # backlog now 1 (= cap)
                with pytest.raises(OverloadedError):
                    await service.inc()
                stats = service.stats()
                await asyncio.gather(first, queued)
                return stats, service.stats()
            finally:
                await service.stop()

        during, after = asyncio.run(go())
        assert during["shed"] == 1
        assert during["backlog"] == 1
        assert after["served"] == 2  # queued work still completed

    def test_shed_rid_is_forgotten_so_a_retry_can_succeed(self):
        async def go():
            service = _service(
                "static-tree",
                n=1,
                time_scale=0.05,
                resilience=ResilienceConfig(max_backlog=0),
            )
            await service.start()
            try:
                slow = asyncio.create_task(service.inc())
                await asyncio.sleep(0.01)
                with pytest.raises(OverloadedError):
                    await service.inc(rid="r")
                await slow  # capacity frees up
                value = await service.inc(rid="r")  # the retry
                return value, service.stats()
            finally:
                await service.stop()

        value, stats = asyncio.run(go())
        assert value == 1
        assert stats["served"] == 2
        assert stats["deduped"] == 0  # the retry was a fresh injection


    def test_zero_backlog_admits_an_arrival_with_a_free_processor(self):
        async def go():
            service = _service(
                "static-tree",
                n=1,
                resilience=ResilienceConfig(max_backlog=0),
            )
            await service.start()
            try:
                return await service.inc(), service.stats()
            finally:
                await service.stop()

        value, stats = asyncio.run(go())
        assert value == 0
        assert stats["shed"] == 0


class TestServiceDedup:
    def test_repeated_rid_returns_the_committed_value(self):
        async def go():
            service = _service()
            await service.start()
            try:
                first = await service.inc(rid="a")
                again = await service.inc(rid="a")
                return first, again, service.stats()
            finally:
                await service.stop()

        first, again, stats = asyncio.run(go())
        assert first == again == 0
        assert stats["served"] == 1
        assert stats["deduped"] == 1
        assert stats["rid_committed"] == 1

    def test_concurrent_same_rid_injects_once(self):
        async def go():
            service = _service(time_scale=0.02)
            await service.start()
            try:
                values = await asyncio.gather(
                    *(service.inc(rid="x") for _ in range(5))
                )
                return values, service.stats()
            finally:
                await service.stop()

        values, stats = asyncio.run(go())
        assert set(values) == {0}
        assert stats["served"] == 1
        assert stats["deduped"] == 4

    def test_cancelled_queued_call_is_never_injected(self):
        async def go():
            service = _service("static-tree", n=1, time_scale=0.05)
            await service.start()
            try:
                slow = asyncio.create_task(service.inc())
                await asyncio.sleep(0.01)  # the lease is now taken
                queued = asyncio.create_task(service.inc(rid="c"))
                await asyncio.sleep(0.01)
                assert service.backlog == 1
                queued.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await queued
                # the rid was released: the retry is a fresh operation
                retry = await service.inc(rid="c")
                await slow
                return retry, service.stats()
            finally:
                await service.stop()

        retry, stats = asyncio.run(go())
        assert retry == 1
        assert stats["served"] == 2
        assert stats["deduped"] == 0

    def test_distinct_rids_count_separately(self):
        async def go():
            service = _service()
            await service.start()
            try:
                values = [await service.inc(rid=f"r{i}") for i in range(4)]
                return values, service.stats()
            finally:
                await service.stop()

        values, stats = asyncio.run(go())
        assert sorted(values) == [0, 1, 2, 3]
        assert stats["rid_committed"] == 4
        assert stats["deduped"] == 0


class TestServiceLifecycle:
    def test_draining_service_refuses_new_work(self):
        async def go():
            service = _service()
            await service.start()
            try:
                service._draining = True  # what SHUTDOWN sets first
                with pytest.raises(ServiceStoppedError):
                    await service.inc()
            finally:
                await service.stop()

        asyncio.run(go())

    def test_graceful_drain_commits_inflight_work(self):
        async def go():
            service = _service(n=2, time_scale=0.05)
            await service.start()
            ops = [asyncio.create_task(service.inc()) for _ in range(2)]
            await asyncio.sleep(0.01)  # both injected
            await service.stop(drain=True)
            return await asyncio.gather(*ops), service.served

        values, served = asyncio.run(go())
        assert sorted(values) == [0, 1]
        assert served == 2

    def test_stop_without_drain_poisons_inflight_waiters(self):
        # regression: the pump's CancelledError path must fail every
        # in-flight waiter — a stranded client would hang forever
        async def go():
            service = _service("static-tree", n=1, time_scale=0.5)
            await service.start()
            op = asyncio.create_task(service.inc())
            await asyncio.sleep(0.01)  # injected, far from committing
            await service.stop(drain=False)
            with pytest.raises(ServiceStoppedError):
                await asyncio.wait_for(op, timeout=1.0)

        asyncio.run(go())


    def test_stop_without_drain_fails_queued_requests(self):
        # regression: a queued request must fail with the in-flight one,
        # not take the freed processor and inject into the stopped pump
        async def go():
            service = _service("static-tree", n=1, time_scale=0.5)
            await service.start()
            inflight = asyncio.create_task(service.inc())
            await asyncio.sleep(0.01)  # injected, far from committing
            queued = asyncio.create_task(service.inc())
            await asyncio.sleep(0.01)
            assert service.backlog == 1
            await service.stop(drain=False)
            for op in (inflight, queued):
                with pytest.raises(ServiceStoppedError):
                    await asyncio.wait_for(op, timeout=1.0)
            return service.stats()

        stats = asyncio.run(go())
        assert stats["inflight"] == 0
        assert stats["backlog"] == 0

    def test_dead_pump_refuses_new_work_and_stop_completes(self):
        # regression: once the pump died, a new inc() was injected into
        # nothing and hung, and stop() re-raised the pump's error
        # without ever setting the stopped event
        async def go():
            service = _service()
            await service.start()
            service.session.runtime.drain = _failing_drain
            with pytest.raises(RuntimeError, match="drain failed"):
                await asyncio.wait_for(service.inc(), timeout=1.0)
            with pytest.raises(ServiceStoppedError, match="drain failed"):
                await asyncio.wait_for(service.inc(), timeout=1.0)
            await asyncio.wait_for(service.stop(drain=False), timeout=1.0)
            await asyncio.wait_for(service.wait_closed(), timeout=1.0)
            return service.stats()

        stats = asyncio.run(go())
        assert stats["inflight"] == 0
        assert stats["served"] == 0

    def test_dead_batcher_refuses_new_work_and_stop_completes(self):
        # regression: a dead batcher left its shard queue in place, so
        # the next increment queued onto it and waited forever
        async def go():
            service = KeyedCounterService("central", 4, port=0, shards=1)
            for shard in service.map.shards():
                shard.session.runtime.drain = _failing_drain
            await service.start()
            with pytest.raises(RuntimeError, match="drain failed"):
                await asyncio.wait_for(service.inc("k"), timeout=1.0)
            with pytest.raises(ServiceStoppedError, match="drain failed"):
                await asyncio.wait_for(service.inc("k"), timeout=1.0)
            await asyncio.wait_for(service.stop(), timeout=1.0)
            await asyncio.wait_for(service.wait_closed(), timeout=1.0)
            return service.backlog

        assert asyncio.run(go()) == 0


async def _failing_drain() -> int:
    raise RuntimeError("drain failed")


class TestProtocolResilience:
    async def _request_lines(self, service, payload, answers=1):
        reader, writer = await asyncio.open_connection(
            service.host, service.port
        )
        try:
            writer.write(payload)
            await writer.drain()
            lines = []
            for _ in range(answers):
                lines.append(
                    (await reader.readline()).decode("ascii", "replace")
                )
            return lines
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    def test_overlong_line_answers_err_and_drops_the_connection(self):
        async def go():
            service = _service(
                resilience=ResilienceConfig(line_limit=64)
            )
            await service.start()
            try:
                payload = b"INC " + b"x" * 256 + b"\n"
                reader, writer = await asyncio.open_connection(
                    service.host, service.port
                )
                writer.write(payload)
                await writer.drain()
                answer = (await reader.readline()).decode("ascii")
                rest = await reader.read()  # connection closed after
                writer.close()
                return answer, rest
            finally:
                await service.stop()

        answer, rest = asyncio.run(go())
        assert answer.startswith("ERR LINE_TOO_LONG")
        assert rest == b""

    def test_wire_deadline_expires(self):
        async def go():
            service = _service("static-tree", n=1, time_scale=0.05)
            await service.start()
            try:
                slow = asyncio.create_task(service.inc())
                await asyncio.sleep(0.01)
                lines = await self._request_lines(
                    service, b"INC w1 10\n"
                )
                await slow
                return lines
            finally:
                await service.stop()

        (line,) = asyncio.run(go())
        assert line.startswith("ERR DEADLINE_EXCEEDED")

    @pytest.mark.parametrize(
        "payload",
        [b"INC rid -5\n", b"INC rid abc\n", b"INC rid 10 extra\n"],
    )
    def test_bad_inc_arguments_answer_bad_request(self, payload):
        async def go():
            service = _service()
            await service.start()
            try:
                return await self._request_lines(service, payload)
            finally:
                await service.stop()

        (line,) = asyncio.run(go())
        assert line.startswith("ERR BAD_REQUEST")

    def test_wire_overloaded_error_code(self):
        async def go():
            service = _service(
                "static-tree",
                n=1,
                time_scale=0.05,
                resilience=ResilienceConfig(max_backlog=0),
            )
            await service.start()
            try:
                slow = asyncio.create_task(service.inc())
                await asyncio.sleep(0.01)
                lines = await self._request_lines(service, b"INC\n")
                await slow
                return lines
            finally:
                await service.stop()

        (line,) = asyncio.run(go())
        assert line.startswith("ERR OVERLOADED")


    def test_pipelined_wire_incs_run_no_task_per_request(self):
        async def go():
            service = _service(n=2)
            await service.start()
            try:
                reader, writer = await asyncio.open_connection(
                    service.host, service.port
                )
                idle = len(asyncio.all_tasks())
                writer.write(b"INC\n" * 50)
                await writer.drain()
                answers, busiest = [], idle
                for _ in range(50):
                    answers.append(await reader.readline())
                    busiest = max(busiest, len(asyncio.all_tasks()))
                writer.close()
                await writer.wait_closed()
                return idle, busiest, answers
            finally:
                await service.stop()

        idle, busiest, answers = asyncio.run(go())
        assert sorted(int(a.split()[1]) for a in answers) == list(range(50))
        assert busiest == idle  # no task per request or per commit


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestLoadgenErrorAccounting:
    def test_connection_failures_counted_not_raised(self):
        port = _free_port()  # nobody listening

        result = asyncio.run(
            run_load("127.0.0.1", port, ops=5, rate=500.0)
        )
        assert result.completed == 0
        assert result.errors == 5
        assert result.error_counts == {"connection": 5}
        assert "err_types=connection:5" in result.summary()

    def test_breaker_fails_fast_after_tripping(self):
        port = _free_port()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=60.0)

        # One refused connect trips the breaker.  Only then are the other
        # arrivals launched: in a single 2000/s run all eight can be in
        # their connect before the first refusal lands (a slow
        # interpreter, e.g. ``python -X dev``, makes that the rule), and
        # none would meet the open breaker.
        tripping = asyncio.run(
            run_load("127.0.0.1", port, ops=1, rate=2000.0, breaker=breaker)
        )
        assert tripping.error_counts == {"connection": 1}
        assert breaker.trips == 1 and breaker.state == "open"

        result = asyncio.run(
            run_load(
                "127.0.0.1", port, ops=8, rate=2000.0, breaker=breaker
            )
        )
        assert result.completed == 0
        assert result.errors == 8
        assert result.error_counts == {"circuit_open": 8}
        assert breaker.trips == 1

    def test_retry_budget_bounds_total_retries(self):
        port = _free_port()
        budget = RetryBudget(3)

        result = asyncio.run(
            run_load(
                "127.0.0.1",
                port,
                ops=4,
                rate=2000.0,
                retry=RetryPolicy(attempts=5, base_delay=0.0, max_delay=0.0),
                retry_budget=budget,
            )
        )
        assert result.errors == 4
        assert result.retries == 3  # capped by the shared budget
        assert budget.remaining == 0
