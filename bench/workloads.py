"""The six benchmark workloads.

Every workload has the same shape: inputs are generated here from the
seed (the program only ever receives the inputs), ``warm()`` runs once
per process and is not timed, and a *repeat* is ``build()`` — timed as
``setup_s``, construction up to the first timed operation — followed by
``drive()`` — timed as throughput — and ``close()``.  Simulation
workloads drive a fixed amount of work, so their simulated statistics
(``Drive.exact``) must repeat exactly; serving workloads are closed
loops of fixed duration on a fresh service per repeat.

Why each workload exists is recorded next to its name in
``BENCHMARK.json`` and in ``bench/README.md``.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Any

from repro.core import lower_bound_k, paper_k_for
from repro.errors import ServiceError
from repro.explore import ExploreConfig, Explorer
from repro.registry import RunSession, registered_specs
from repro.serve.keyed import KeyedCounterService
from repro.workloads import SweepPoint, SweepRunner


class CheckFailed(Exception):
    """A correctness check of the benchmark did not hold."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(slots=True)
class Drive:
    """What one timed drive did.

    Attributes:
        units: what the throughput counts (events, points, schedules,
            answered requests).
        attempted / failed: caller-visible operations.
        exact: simulated statistics that must be identical on every
            repeat and every run with the same seed.
        layer: counts read from the program's public statistics, for
            the per-layer report.
        latencies: caller-observed seconds per request (serving only).
    """

    units: int
    attempted: int
    failed: int = 0
    exact: dict[str, float] = field(default_factory=dict)
    layer: dict[str, float] = field(default_factory=dict)
    latencies: list[float] = field(default_factory=list)


class Workload:
    """Base class; subclasses set :attr:`name` and :attr:`unit`."""

    name = ""
    unit = ""
    fixed_duration = False

    def __init__(self, seed: int, quick: bool) -> None:
        self.seed = seed
        self.quick = quick

    def warm(self) -> None:
        """Process-level warm-up, once, untimed."""

    def build(self) -> Any:
        raise NotImplementedError

    def drive(self, state: Any, budget_s: float) -> Drive:
        raise NotImplementedError

    def close(self, state: Any) -> None:
        """Release what :meth:`build` opened."""


def permutation(n: int, seed: int) -> list[int]:
    """Processors ``1..n`` in a seeded order: each increments once."""
    order = list(range(1, n + 1))
    random.Random(seed).shuffle(order)
    return order


def _tree_stats(session: RunSession, result) -> tuple[dict, dict]:
    """Exact statistics and per-layer counts of one ww-tree run."""
    n = session.n
    m_b = result.bottleneck_load()
    exact = {
        "events_executed": session.network.events_executed,
        "total_messages": result.total_messages,
        "bottleneck_load": m_b,
    }
    layer = {
        "core.tree.bottleneck_load": m_b,
        "core.tree.mb_over_k": m_b / paper_k_for(n),
        "core.tree.msgs_per_inc": result.average_messages_per_op(),
    }
    return exact, layer


class SimOneshotLarge(Workload):
    """The paper's §3 workload at large n, on the fast core."""

    name = "sim_oneshot_large"
    unit = "events"

    def __init__(self, seed: int, quick: bool) -> None:
        super().__init__(seed, quick)
        self.n = 3_125 if quick else 50_000
        self.warm_n = 625 if quick else 15_625
        self.order = permutation(self.n, seed)

    def warm(self) -> None:
        session = RunSession("ww-tree", self.warm_n, trace_level="LOADS")
        session.run_sequence(permutation(self.warm_n, self.seed))

    def build(self) -> RunSession:
        return RunSession("ww-tree", self.n, trace_level="LOADS")

    def drive(self, session: RunSession, budget_s: float) -> Drive:
        result = session.run_sequence(self.order)
        check(
            result.operation_count == self.n,
            f"{result.operation_count} of {self.n} operations completed",
        )
        exact, layer = _tree_stats(session, result)
        bound = lower_bound_k(self.n)
        check(
            bound <= exact["bottleneck_load"],
            f"m_b = {exact['bottleneck_load']} is below the lower bound "
            f"k(n) = {bound:.3f}",
        )
        return Drive(
            units=exact["events_executed"],
            attempted=self.n,
            exact=exact,
            layer=layer,
        )


class SimFaultyReliable(Workload):
    """The compat-core path every faulty run pays: 5 % drops behind the
    reliable transport, random delays."""

    name = "sim_faulty_reliable"
    unit = "events"

    def __init__(self, seed: int, quick: bool) -> None:
        super().__init__(seed, quick)
        self.n = 625 if quick else 15_625
        self.warm_n = 125 if quick else 625

    def _session(self, n: int) -> RunSession:
        return RunSession(
            "ww-tree",
            n,
            policy="random",
            seed=self.seed,
            faults="drop=0.05",
            reliable=True,
            trace_level="LOADS",
        )

    def warm(self) -> None:
        self._session(self.warm_n).run_sequence()

    def build(self) -> RunSession:
        return self._session(self.n)

    def drive(self, session: RunSession, budget_s: float) -> Drive:
        result = session.run_sequence()
        check(
            result.operation_count == self.n,
            f"{result.operation_count} of {self.n} operations completed",
        )
        exact, layer = _tree_stats(session, result)
        transport = session.transport_stats()
        check(transport["gave_up"] == 0, "the transport abandoned a message")
        for key in ("retransmissions", "duplicates_suppressed"):
            exact[key] = transport[key]
            layer[f"sim.transport.{key}"] = transport[key]
        layer["sim.transport.overhead_ratio"] = (
            session.transport.overhead_ratio()
        )
        return Drive(
            units=exact["events_executed"],
            attempted=self.n,
            exact=exact,
            layer=layer,
        )


SWEEP_LEFT_OUT = frozenset(
    {
        # does not quiesce under the sim runtime at n = 64 (needs sync)
        ("byz-counter", "unit"),
        ("byz-counter", "random"),
        # fails the sequential-value check under random delays
        ("combining-tree[bypass]", "random"),
    }
)
"""Grid points found broken while sizing; recorded in the README, not
fixed here."""


class SimSweepSmall(Workload):
    """Thousands of tiny sessions: what experiments, ``repro validate``
    and figures actually send."""

    name = "sim_sweep_small"
    unit = "points"
    n = 64

    def __init__(self, seed: int, quick: bool) -> None:
        super().__init__(seed, quick)
        seeds = 2 if quick else 40
        combos = [
            (spec.name, policy)
            for spec in registered_specs()
            if spec.supports_n(self.n) is None
            for policy in ("unit", "random")
            if (spec.name, policy) not in SWEEP_LEFT_OUT
        ]
        self.slices = [
            [
                SweepPoint(counter=name, n=self.n, seed=point_seed, policy=policy)
                for name, policy in combos
            ]
            for point_seed in range(seed * seeds, (seed + 1) * seeds)
        ]
        self.points = [point for grid in self.slices for point in grid]

    def warm(self) -> None:
        SweepRunner(workers=1).run(self.slices[0])

    def build(self) -> SweepRunner:
        runner = SweepRunner(workers=1)
        runner.run(self.slices[0])  # warm-up: one seed's slice
        return runner

    def drive(self, runner: SweepRunner, budget_s: float) -> Drive:
        outcomes = runner.run(self.points)
        failed = sum(1 for o in outcomes if o.operations != self.n)
        operations = sum(o.operations for o in outcomes)
        exact = {
            "points": len(outcomes),
            "operations": operations,
            "total_messages": sum(o.total_messages for o in outcomes),
            "bottleneck_load_sum": sum(o.bottleneck_load for o in outcomes),
        }
        return Drive(
            units=len(outcomes),
            attempted=len(outcomes),
            failed=failed,
            exact=exact,
        )


class ExploreGuided(Workload):
    """Short episodes on the compat core under the scheduler hook:
    construction and judging dominate, not draining."""

    name = "explore_guided"
    unit = "schedules"

    def __init__(self, seed: int, quick: bool) -> None:
        super().__init__(seed, quick)
        self.budget = 150 if quick else 3_000
        self.warm_episodes = 20 if quick else 200
        self.config = ExploreConfig(
            counter="combining-tree[bypass]",
            n=8,
            seed=seed,
            strategy="guided",
            budget=self.budget,
        )

    def warm(self) -> None:
        Explorer(self.config).run(0, self.warm_episodes)

    def build(self) -> Explorer:
        explorer = Explorer(self.config)
        explorer.run(0, self.warm_episodes)
        return explorer

    def drive(self, explorer: Explorer, budget_s: float) -> Drive:
        report = explorer.run()
        check(
            report.episodes == self.budget,
            f"{report.episodes} of {self.budget} episodes ran",
        )
        passes = sum(c["pass"] for c in report.verdict_counts.values())
        exact = {
            "episodes": report.episodes,
            "decisions": report.decisions,
            "oracle_passes": passes,
        }
        return Drive(
            units=report.episodes,
            attempted=report.episodes,
            failed=len(report.failures),
            exact=exact,
            layer={"explore.engine.failures": len(report.failures)},
        )


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
def zipf_keys(count: int, length: int, skew: float, seed: int) -> list[str]:
    """*length* keys, Zipf(*skew*) popularity over *count* names."""
    weights = [1.0 / rank**skew for rank in range(1, count + 1)]
    ranks = random.Random(seed).choices(range(count), weights=weights, k=length)
    return [f"k{rank}" for rank in ranks]


class ServeClient:
    """The closed-loop load generator and its ledger of answers.

    Call ``i`` of the stream sends key ``keys[i]`` with the unique
    request id ``<seed>-<i>``; which calls are re-sends is decided by
    :meth:`plan`.  Every answer is checked against the ledger: a new
    rid's value extends its key's history, a re-sent rid must get the
    value it got the first time.
    """

    def __init__(self, service: KeyedCounterService, keys: list[str], seed: int):
        self.service = service
        self.keys = keys
        self.seed = seed
        self.next = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.value_of: dict[int, int] = {}  # original call -> value
        self.history: dict[str, list[int]] = {}  # key -> values handed out
        self.resent = 0

    def plan(self, call: int) -> int:
        """The original call whose (key, rid) call *call* sends."""
        return call

    def rid(self, origin: int) -> str:
        return f"{self.seed}-{origin}"

    async def send(self, channel: Any, key: str, rid: str) -> int | None:
        """One request; the committed value, or ``None`` on an error."""
        raise NotImplementedError

    async def request(self, channel: Any, call: int) -> None:
        origin = self.plan(call)
        key = self.keys[origin % len(self.keys)]
        sent = time.perf_counter()
        value = await self.send(channel, key, self.rid(origin))
        self.latencies.append(time.perf_counter() - sent)
        if value is None:
            self.failed += 1
        elif origin == call:
            self.value_of[call] = value
            self.history.setdefault(key, []).append(value)
        else:
            self.resent += 1
            if self.value_of.get(origin) != value:
                self.failed += 1  # a retry must see the committed value

    async def pump(self, channels: list[Any], done) -> int:
        """Closed loop: each channel sends its next request only after
        the previous answer; stop when ``done()``.  Returns calls made."""
        first = self.next

        async def worker(channel: Any) -> None:
            while not done():
                call = self.next
                self.next += 1
                await self.request(channel, call)

        await asyncio.gather(*(worker(channel) for channel in channels))
        return self.next - first

    def verify(self) -> None:
        """Per-key exactness and ``served == unique rids``."""
        for key, values in self.history.items():
            check(
                sorted(values) == list(range(len(values))),
                f"key {key}: values are not exactly 0..{len(values) - 1}",
            )
        stats = self.service.stats()
        check(
            stats["served"] == len(self.value_of),
            f"served {stats['served']} but {len(self.value_of)} unique "
            "rids were answered",
        )
        check(
            stats["deduped"] == self.resent,
            f"deduped {stats['deduped']} but {self.resent} rids were re-sent",
        )
        check(stats["shed"] == 0, f"{stats['shed']} requests were shed")
        check(stats["expired"] == 0, f"{stats['expired']} requests expired")


class TcpClient(ServeClient):
    """``INC <key> <rid>`` lines over a persistent loopback connection."""

    async def send(self, channel, key, rid):
        reader, writer = channel
        writer.write(f"INC {key} {rid}\n".encode("ascii"))
        answer = (await reader.readline()).split()
        if len(answer) == 2 and answer[0] == b"OK":
            return int(answer[1])
        return None


RESEND_EVERY = 8
RESEND_LAG = 511
"""Every 8th in-process call re-sends the rid issued 511 calls earlier
(512 would land on another re-send slot); 511 < dedup capacity, so the
ledger still holds it."""


class InprocClient(ServeClient):
    """Direct ``service.inc(key, rid=...)`` calls, with re-sends."""

    def plan(self, call: int) -> int:
        if call % RESEND_EVERY == RESEND_EVERY - 1 and call >= RESEND_LAG:
            return call - RESEND_LAG
        return call

    async def send(self, channel, key, rid):
        try:
            return await self.service.inc(key, rid=rid)
        except ServiceError:
            return None


@dataclass(slots=True)
class ServeState:
    loop: asyncio.AbstractEventLoop
    service: KeyedCounterService
    client: ServeClient
    channels: list[Any]


class ServeWorkload(Workload):
    """A keyed service at ``time_scale=0`` under a closed loop.

    ``build()`` starts a fresh service, connects, and sends the warm-up
    requests, which fill the request-id ledger past its capacity so the
    timed window sees the steady state a long-running service is in.
    """

    unit = "requests"
    fixed_duration = True
    client_type: type[ServeClient] = ServeClient
    connections = 0  # TCP connections; 0 = in-process calls
    concurrency = 1

    def __init__(self, seed: int, quick: bool) -> None:
        super().__init__(seed, quick)
        self.warmup = 300 if quick else 4_608  # unique rids; capacity is 4096
        self.keys = zipf_keys(1_024, 1 << 16, 1.1, seed)

    def build(self) -> ServeState:
        loop = asyncio.new_event_loop()
        try:
            return loop.run_until_complete(self._start(loop))
        except BaseException:
            loop.close()
            raise

    async def _start(self, loop) -> ServeState:
        service = KeyedCounterService(
            "ww-tree?interval_mode=wrap",
            81,
            shards=4,
            batch_max=32,
            time_scale=0.0,
            trace_level="LOADS",  # stats() needs load counts
        )
        await service.start()
        client = self.client_type(service, self.keys, self.seed)
        if self.connections:
            channels = [
                await asyncio.open_connection(service.host, service.port)
                for _ in range(self.connections)
            ]
        else:
            channels = [None] * self.concurrency
        state = ServeState(loop, service, client, channels)
        await client.pump(channels, lambda: len(client.value_of) >= self.warmup)
        client.latencies.clear()
        return state

    def drive(self, state: ServeState, budget_s: float) -> Drive:
        client = state.client
        failed_before = client.failed
        deadline = time.perf_counter() + budget_s
        calls = state.loop.run_until_complete(
            client.pump(state.channels, lambda: time.perf_counter() >= deadline)
        )
        client.verify()
        stats = state.service.stats()
        failed = client.failed - failed_before
        return Drive(
            units=calls - failed,
            attempted=calls,
            failed=failed,
            latencies=client.latencies,
            layer={
                "shard.map.msgs_per_op": stats["messages"] / stats["served"],
                "serve.resilience.dedup_hits": stats["deduped"],
                "serve.keyed.shed": stats["shed"],
                "serve.keyed.expired": stats["expired"],
            },
        )

    def close(self, state: ServeState) -> None:
        async def stop() -> None:
            for channel in state.channels:
                if channel is not None:
                    channel[1].close()
                    await channel[1].wait_closed()
            await state.service.stop()

        try:
            state.loop.run_until_complete(stop())
        finally:
            state.loop.close()


class ServeTcpRid(ServeWorkload):
    """One full protocol traversal per request: wire parse → dedup →
    admission → batcher → runtime pump → simulator → reply write."""

    name = "serve_tcp_rid"
    client_type = TcpClient
    connections = 2


class ServeInprocBatched(ServeWorkload):
    """The same layers with no wire: 64 coroutines keep the batchers'
    windows full, and re-sent rids read the ledger as well as write it."""

    name = "serve_inproc_batched"
    client_type = InprocClient
    concurrency = 64


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (
        SimOneshotLarge,
        SimSweepSmall,
        SimFaultyReliable,
        ExploreGuided,
        ServeTcpRid,
        ServeInprocBatched,
    )
}
