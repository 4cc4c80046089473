"""Per-layer measurement: which entry points the traced run patches,
how span aggregates become the named per-layer metrics, and the direct
probes of single layers.

A layer is a module of ``src/repro``.  A span-derived metric is 0 on a
workload that never enters the layer; a probe times calls into one
public function with fixed work and is the same on every workload.
Which end-to-end metric each number should move is written down in
``bench/README.md``.
"""

from __future__ import annotations

import asyncio
import statistics
import time
from typing import Callable

import repro.workloads.sweep as sweep_module
from bench.trace import SpanStats, Tracer
from bench.workloads import Drive, InprocClient, ServeClient, TcpClient
from repro.explore import Explorer
from repro.registry import RunSession, parse_spec, registered_names
from repro.runtime import AsyncioRuntime
from repro.serve.keyed import KeyedCounterService
from repro.serve.resilience import DedupTable
from repro.shard import CounterShardMap, ShardRouter
from repro.sim.events import EventQueue, FlatEventQueue
from repro.sim.faults import parse_fault_spec
from repro.sim.network import Network
from repro.sim.processor import InertProcessor
from repro.sim.trace import TraceLevel


def install(tracer: Tracer) -> None:
    """Patch every traced entry point; ``tracer.unpatch_all()`` undoes it."""
    patch = tracer.patch
    patch(RunSession, "__init__", "registry.RunSession.__init__")
    patch(RunSession, "run_sequence", "workloads.driver.run_sequence")
    patch(Network, "run_until_quiescent", "sim.network.run_until_quiescent", work=int)
    patch(Network, "step", "sim.network.step", work=int)
    patch(sweep_module.SweepRunner, "run", "workloads.sweep.SweepRunner.run", work=len)
    patch(sweep_module, "execute_point", "workloads.sweep.execute_point")
    patch(
        Explorer,
        "run_episode",
        "explore.engine.run_episode",
        rid=lambda args, kwargs: args[2],
        work=lambda outcome: len(outcome.schedule),
    )
    patch(
        KeyedCounterService,
        "inc",
        "serve.keyed.inc",
        rid=lambda args, kwargs: kwargs.get("rid"),
    )
    patch(ShardRouter, "locate", "shard.placement.locate")
    patch(
        CounterShardMap,
        "begin_batch",
        "shard.map.begin_batch",
        rid=lambda args, kwargs: f"shard{args[1]}",
        work=lambda batch: batch.size,
    )
    patch(
        CounterShardMap,
        "settle_batch",
        "shard.map.settle_batch",
        rid=lambda args, kwargs: f"shard{args[1].shard_id}",
    )
    patch(AsyncioRuntime, "drain", "runtime.asyncio.drain", work=int)
    for method in ("get", "create", "commit"):
        patch(
            DedupTable,
            method,
            f"serve.resilience.dedup_{method}",
            rid=lambda args, kwargs: args[1],
        )
    patch(ServeClient, "request", "bench.client.request")
    for client in (TcpClient, InprocClient):
        patch(
            client,
            "send",
            "bench.client.send",
            rid=lambda args, kwargs: args[3],
        )


def percentile(ordered: list[float], share: float) -> float:
    """The value at *share* of the way through the sorted *ordered*."""
    return ordered[min(len(ordered) - 1, int(len(ordered) * share))]


def span_metrics(tracer: Tracer, drive: Drive) -> dict[str, float]:
    """The workload-dependent per-layer metrics of one traced repeat:
    everything from the spans of the timed drive, except the session
    build, which set-up pays."""
    spans = tracer.summary(under="bench.drive")
    idle = SpanStats()

    def of(name: str) -> SpanStats:
        return spans.get(name, idle)

    def per_call(stats: SpanStats, total: float, scale: float) -> float:
        return total / stats.calls * scale if stats.calls else 0.0

    def median(values: list[float], scale: float) -> float:
        return statistics.median(values) * scale if values else 0.0

    quiesce, step = of("sim.network.run_until_quiescent"), of("sim.network.step")
    build = tracer.summary().get("registry.RunSession.__init__", idle)
    point = of("workloads.sweep.execute_point")
    episode = of("explore.engine.run_episode")
    drain = of("runtime.asyncio.drain")
    begin, settle = of("shard.map.begin_batch"), of("shard.map.settle_batch")
    locate = of("shard.placement.locate")
    dedup = [of(f"serve.resilience.dedup_{m}") for m in ("get", "create", "commit")]
    inc = of("serve.keyed.inc")
    request, send = of("bench.client.request"), of("bench.client.send")
    metrics = {
        "registry.session_build_ms": median(build.durations, 1e3),
        "workloads.driver.run_sequence_self_s": of(
            "workloads.driver.run_sequence"
        ).self_s,
        "sim.network.events_executed": quiesce.work + step.work,
        "sim.network.drain_self_s": quiesce.self_s + step.self_s,
        "workloads.sweep.point_ms_p50": median(point.durations, 1e3),
        "workloads.sweep.point_ms_p99": (
            percentile(sorted(point.durations), 0.99) * 1e3 if point.calls else 0.0
        ),
        "explore.engine.episode_ms_p50": median(episode.durations, 1e3),
        "explore.engine.decisions_per_episode": per_call(episode, episode.work, 1),
        "runtime.asyncio_drain_calls": drain.calls,
        "runtime.asyncio_drain_busy_s": drain.busy_s,
        "runtime.events_per_drain": per_call(drain, drain.work, 1),
        "shard.placement.locate_us": per_call(locate, locate.self_s, 1e6),
        "shard.map.begin_batch_us": per_call(begin, begin.self_s, 1e6),
        "shard.map.settle_batch_us": per_call(settle, settle.self_s, 1e6),
        "shard.map.ops_per_batch": per_call(begin, begin.work, 1),
        "serve.resilience.dedup_self_s": sum(s.self_s for s in dedup),
        "serve.keyed.inc_self_us": per_call(inc, inc.self_s, 1e6),
        "serve.keyed.inc_wait_ms_p50": median(inc.waits, 1e3),
        "serve.server.wire_us_per_op": (
            median(send.durations, 1e6) - median(inc.durations, 1e6)
        ),
        "bench.client_self_us_per_op": per_call(
            request, request.self_s + send.self_s, 1e6
        ),
    }
    for name in COUNTED:
        metrics[name] = drive.layer.get(name, 0)
    return metrics


COUNTED = (
    "core.tree.bottleneck_load",
    "core.tree.mb_over_k",
    "core.tree.msgs_per_inc",
    "sim.transport.retransmissions",
    "sim.transport.duplicates_suppressed",
    "sim.transport.overhead_ratio",
    "explore.engine.failures",
    "shard.map.msgs_per_op",
    "serve.resilience.dedup_hits",
    "serve.keyed.shed",
    "serve.keyed.expired",
)
"""Per-layer metrics read from the program's own statistics
(``Drive.layer``) rather than from spans."""


# ----------------------------------------------------------------------
# Probes
# ----------------------------------------------------------------------
def _median_time(work: Callable[[], None], repeats: int) -> float:
    """Median seconds of one ``work()`` call over *repeats* calls."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        work()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _nothing() -> None:
    return None


def _churn(queue_type, events: int = 1_000) -> Callable[[], None]:
    def work() -> None:
        queue = queue_type()
        for index in range(events):
            queue.schedule((index * 7) % 13 + 0.5, _nothing)
        while queue:
            queue.run_next()

    return work


def _blast(level: TraceLevel, core: str, messages: int = 1_000) -> Callable[[], None]:
    network = Network(trace_level=level, core=core)
    network.register_all([InertProcessor(pid) for pid in range(1, 17)])

    def work() -> None:
        send = network.send
        for index in range(messages):
            send((index % 16) + 1, ((index + 7) % 16) + 1, "m", {})
        network.run_until_quiescent()

    return work


class _Resolved:
    """Stands in for the future a pending ledger entry carries."""

    @staticmethod
    def done() -> bool:
        return True


def _dedup_probe(seed: int, quick: bool) -> dict[str, float]:
    """Direct ``DedupTable`` calls with a rid stream: creates below and
    at capacity (every entry committed, so each create at capacity
    evicts), hits, commits."""
    capacity = 4_096
    over = 32 if quick else 256
    table = DedupTable(capacity)
    rids = [f"{seed}-{index}" for index in range(capacity + over)]
    clock = time.perf_counter
    spent = {"create_below": 0.0, "create_at": 0.0, "commit": 0.0}
    for index, rid in enumerate(rids):
        start = clock()
        table.create(rid, _Resolved)
        middle = clock()
        table.commit(rid, index)
        end = clock()
        spent["create_below" if index < capacity else "create_at"] += middle - start
        spent["commit"] += end - middle
    live = rids[-capacity:]
    start = clock()
    for rid in live:
        table.get(rid)
    get_s = clock() - start
    return {
        "serve.resilience.dedup_create_us.below_capacity": (
            spent["create_below"] / capacity * 1e6
        ),
        "serve.resilience.dedup_create_us.at_capacity": (
            spent["create_at"] / over * 1e6
        ),
        "serve.resilience.dedup_commit_us": spent["commit"] / len(rids) * 1e6,
        "serve.resilience.dedup_get_us": get_s / capacity * 1e6,
    }


def _ping_rtt_us(pings: int) -> float:
    """Median ``PING``/``PONG`` round trip on a loopback connection:
    the floor of any request the TCP service answers."""

    async def run() -> float:
        service = KeyedCounterService("central", 4, shards=1, trace_level="LOADS")
        await service.start()
        try:
            reader, writer = await asyncio.open_connection(
                service.host, service.port
            )
            samples = []
            for _ in range(pings):
                start = time.perf_counter()
                writer.write(b"PING\n")
                await reader.readline()
                samples.append(time.perf_counter() - start)
            writer.close()
            await writer.wait_closed()
        finally:
            await service.stop()
        return statistics.median(samples) * 1e6

    return asyncio.run(run())


def probe_metrics(seed: int, quick: bool) -> dict[str, float]:
    """The workload-independent per-layer metrics: fixed work timed
    through one public function each, median over repeats."""
    repeats = 3 if quick else 15
    metrics: dict[str, float] = {}
    for label, queue_type in (("fast", FlatEventQueue), ("compat", EventQueue)):
        metrics[f"sim.events.{label}_churn_ops_per_s"] = 2_000 / _median_time(
            _churn(queue_type), repeats
        )
    for name, level, core in (
        ("sim.network.blast_msgs_per_s.off", TraceLevel.OFF, "fast"),
        ("sim.network.blast_msgs_per_s.loads", TraceLevel.LOADS, "fast"),
        ("sim.network.blast_msgs_per_s.full", TraceLevel.FULL, "fast"),
        ("sim.network.compat_blast_msgs_per_s.loads", TraceLevel.LOADS, "compat"),
    ):
        metrics[name] = 1_000 / _median_time(_blast(level, core), repeats)
    specs = [*registered_names(), "ww-tree?interval_mode=wrap"]
    metrics["registry.parse_spec_us"] = (
        _median_time(lambda: [parse_spec(text).canonical for text in specs], repeats)
        / len(specs)
        * 1e6
    )
    metrics["registry.session_build_ms.n64"] = (
        _median_time(lambda: RunSession("ww-tree", 64, trace_level="LOADS"), repeats)
        * 1e3
    )
    metrics["sim.faults.parse_plan_us"] = (
        _median_time(lambda: parse_fault_spec("drop=0.05", seed=seed), repeats) * 1e6
    )
    metrics.update(_dedup_probe(seed, quick))
    metrics["serve.server.ping_rtt_us"] = _ping_rtt_us(50 if quick else 500)
    return metrics
