"""Benchmark harness: measure the simulator substrate, emit JSON.

Times the hot paths directly (no pytest-benchmark dependency at run
time) so CI and developers get one comparable artifact:

* event-queue schedule+pop throughput;
* message delivery throughput at every :class:`TraceLevel`, with the
  speedup over the seed's FULL-tracing baseline;
* counter-registry spec resolution and RunSession construction rates;
* wall time of a small E7-style sweep, serial vs parallel;
* a 3-point drop-rate smoke grid (ww-tree behind the reliable
  transport) with the transport's retransmit metrics;
* a crash-recovery smoke grid (central[standby] under a mid-run
  primary crash) with failover latency and bottleneck overhead;
* a ``large_n`` grid: ww-tree one-shot runs at n = 10^4 and 10^5,
  million-event territory;
* a ``serving`` grid: wall-clock rate sweeps against a live TCP
  counter service (asyncio runtime, scaled simulated delays) with
  p50/p99 latency per offered rate and the detected saturation knee;
* a ``resilience`` grid: the E26 graceful-degradation trial — 2x the
  knee rate through a fault-injecting chaos proxy with deadlines,
  bounded admission and idempotent retries, goodput and exactly-once
  arithmetic recorded;
* a ``sharding`` grid: the E27 trial — the same Zipf-keyed workload
  against a single serialized counter and against a batched
  4-shard keyspace through the chaos proxy, with the goodput ratio,
  per-key exactness and the offline fixture-replay verdict recorded.

Grids are individually selectable (``repro bench --grid messages``)
and every report is stamped with the git SHA and an ISO-8601 UTC
timestamp so archived artifacts are traceable to a commit.
"""

from __future__ import annotations

import asyncio
import datetime
import gc
import json
import multiprocessing
import pathlib
import platform
import statistics
import subprocess
import sys
import time

from repro.registry import RunSession, parse_spec, registered_names
from repro.sim.events import EventQueue
from repro.sim.network import Network
from repro.sim.processor import InertProcessor
from repro.sim.trace import TraceLevel
from repro.workloads import SweepPoint, SweepRunner

SEED_FULL_MSGS_PER_S = 140_877
"""messages/s of ``test_message_throughput`` measured at the seed commit
(FULL tracing, pre-optimization) on the reference machine — the
denominator for the speedup ratios below."""


def _best_rate(work, units: int, repeats: int = 30) -> float:
    """Best-of-*repeats* throughput in units/second (median of top 5)."""
    rates = []
    for _ in range(repeats):
        start = time.perf_counter()
        work()
        elapsed = time.perf_counter() - start
        rates.append(units / elapsed)
    return statistics.median(sorted(rates)[-5:])


def git_sha() -> str | None:
    """Short SHA of HEAD, or ``None`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
            cwd=pathlib.Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def bench_event_queue(events: int = 1000) -> float:
    """Mirror of ``test_event_queue_throughput`` in bench_simulator.py."""

    def churn():
        queue = EventQueue()
        for index in range(events):
            queue.schedule((index * 7) % 13 + 0.5, lambda: None)
        while queue:
            queue.run_next()

    return _best_rate(churn, 2 * events)  # schedule + pop each count


def bench_messages(level: TraceLevel, messages: int = 1000) -> float:
    """Mirror of ``test_message_throughput*`` in bench_simulator.py.

    The blast size matches the benchmark suite (and the seed baseline
    measurement) so the speedup ratios are apples to apples.
    """
    network = Network(trace_level=level)
    network.register_all([InertProcessor(pid) for pid in range(1, 17)])

    def blast():
        send = network.send
        for index in range(messages):
            send((index % 16) + 1, ((index + 7) % 16) + 1, "m", {})
        network.run_until_quiescent()

    return _best_rate(blast, messages)


def bench_spec_resolution() -> float:
    """Mirror of ``test_registry_spec_resolution`` in bench_simulator.py."""
    specs = [
        *registered_names(),
        "combining-tree?arity=4&window=3.0",
        "ww-tree?interval_mode=wrap",
        "diffracting-tree?prism_size=8&seed=7",
    ]

    def resolve():
        for text in specs:
            parse_spec(text).canonical

    return _best_rate(resolve, len(specs))


def bench_session_construction(n: int = 81) -> float:
    """Mirror of ``test_registry_session_construction``: sessions/s."""
    sessions = 20

    def build():
        for _ in range(sessions):
            RunSession("ww-tree", n)

    return _best_rate(build, sessions, repeats=10)


def bench_fault_transport(
    n: int = 27, drops: tuple[float, ...] = (0.0, 0.05, 0.1)
) -> dict:
    """Drop-rate smoke grid: ww-tree one-shot behind ReliableTransport.

    Completion is asserted (``run_sequence`` checks every returned
    value), so this doubles as a CI smoke test of the faulty regime.
    """
    grid = {}
    for drop in drops:
        session = RunSession(
            "ww-tree",
            n,
            policy="random",
            seed=3,
            faults=f"drop={drop}" if drop else None,
            reliable=True,
        )
        start = time.perf_counter()
        result = session.run_sequence()
        elapsed = time.perf_counter() - start
        stats = session.transport_stats()
        grid[f"drop={drop}"] = {
            "bottleneck_load": result.bottleneck_load(),
            "data_sent": stats["data_sent"],
            "retransmissions": stats["retransmissions"],
            "duplicates_suppressed": stats["duplicates_suppressed"],
            "overhead_ratio": round(session.transport.overhead_ratio(), 4),
            "wall_time_s": round(elapsed, 4),
        }
    return {
        "grid": f"ww-tree one-shot, n={n}, random delays, reliable transport",
        "note": "all values verified correct at every drop rate; "
        "overhead_ratio = transmissions / goodput",
        **grid,
    }


def bench_recovery(n: int = 16) -> dict:
    """Crash-recovery smoke grid: central[standby] failover.

    One clean run and one with a permanent mid-run primary crash;
    linearizability is asserted on both, so this doubles as a CI smoke
    test of the recovery stack (failure detector + checkpoint/failover).
    """
    from repro.analysis.linearizability import check_linearizable_counting
    from repro.analysis.load import LoadProfile

    grid = {}
    for label, faults in (("clean", None), ("primary crash", "crash=1@t18")):
        session = RunSession(
            "central[standby]", n, policy="random", seed=3, faults=faults
        )
        start = time.perf_counter()
        ops = session.run_staggered(gap=4.0)
        elapsed = time.perf_counter() - start
        report = check_linearizable_counting(ops)
        assert report.linearizable, f"{label}: history not linearizable"
        profile = LoadProfile.from_trace(session.network.trace, population=n)
        manager = session.recovery
        grid[label] = {
            "ops_completed": len(ops),
            "linearizable": report.linearizable,
            "suspicions": manager.detector.suspicion_count() if manager else 0,
            "failovers": manager.failover_count() if manager else 0,
            "failover_latency": (
                round(manager.failover_latency(), 2)
                if manager and manager.failover_latency() is not None
                else None
            ),
            "client_bottleneck_load": (
                profile.restrict(range(1, n + 1)).bottleneck_load
            ),
            "wall_time_s": round(elapsed, 4),
        }
    return {
        "grid": f"central[standby] staggered one-shot, n={n}, random delays",
        "note": "linearizability asserted on both runs; failover latency "
        "runs from the crash-window start to the standby's promotion",
        **grid,
    }


def bench_explore() -> dict:
    """Exploration smoke grid: schedules judged per second.

    Mirrors ``benchmarks/bench_explore.py``: a random-walk budget on
    the central counter and a guided budget on the bypass combining
    tree (the acceptance configuration).  Both runs assert no oracle
    failed, so this doubles as a CI smoke test of the explorer.
    """
    from repro.explore import ExploreConfig, Explorer

    grid = {}
    for label, counter, strategy in (
        ("central random", "central", "random"),
        ("bypass-tree guided", "combining-tree[bypass]", "guided"),
    ):
        explorer = Explorer(
            ExploreConfig(counter=counter, n=8, strategy=strategy, budget=20)
        )

        def explore(explorer=explorer):
            report = explorer.run()
            assert report.ok, f"exploration found failures: {report.failures}"

        rate = _best_rate(explore, 20, repeats=5)
        grid[label] = {"schedules_per_s": round(rate, 1)}
    return {
        "grid": "n=8, 20 episodes per measurement, full oracle suite",
        "note": "every schedule is judged by all five oracles; both "
        "configurations asserted failure-free",
        **grid,
    }


def bench_byzantine(n: int = 7, budgets: tuple[int, ...] = (1, 2)) -> dict:
    """Byzantine resilience grid: rounds and msgs/op vs f.

    ``byz-counter`` under the synchronous-round runtime, clean and under
    a budget-f ``mixed`` adversary, at every admissible tolerance level
    for the population.  Honest completion is asserted on every cell, so
    this doubles as a CI smoke test of the Byzantine stack; the row pair
    per f shows what the adversary *adds* on top of the protocol's own
    agreement cost (phases scale with f + 1, so msgs/op grows with f).
    """
    grid = {}
    for f in budgets:
        for label, faults in (
            (f"f={f} clean", None),
            (f"f={f} adversarial", f"byz={f}@mixed"),
        ):
            session = RunSession(
                f"byz-counter?f={f}",
                n,
                policy="random",
                seed=3,
                faults=faults,
                runtime="sync",
                trace_level="FULL",
            )
            start = time.perf_counter()
            result = session.run_sequence(check_values=faults is None)
            elapsed = time.perf_counter() - start
            byz = (
                session.fault_plan.byzantine_pids
                if session.fault_plan is not None
                else frozenset()
            )
            honest = [
                o.value
                for o in result.outcomes
                if o.initiator not in byz
            ]
            assert len(honest) == n - len(byz), f"{label}: honest inc lost"
            assert len(set(honest)) == len(honest), f"{label}: duplicate"
            messages = len(session.network.trace.records)
            grid[label] = {
                "rounds": session.runtime.rounds,
                "msgs_per_op": round(messages / n, 1),
                "honest_ops": len(honest),
                "wall_time_s": round(elapsed, 4),
            }
    return {
        "grid": f"byz-counter sequential one-shot, n={n}, sync runtime, "
        "mixed adversary",
        "note": "honest completion and value uniqueness asserted on "
        "every cell; rounds counted by the lockstep runtime",
        **grid,
    }


def bench_sweep(workers: int) -> float:
    points = [
        SweepPoint(counter=counter, n=n)
        for counter in ("central", "static-tree", "ww-tree")
        for n in (256, 1024)
    ]
    start = time.perf_counter()
    SweepRunner(workers=workers, serial_threshold=0).run(points)
    return time.perf_counter() - start


def bench_large_n(sizes: tuple[int, ...] = (10_000, 100_000)) -> dict:
    """ww-tree one-shot runs at large n, OFF tracing.

    Each point is a single cold run (no repeat loop — these are
    multi-second, million-event simulations): build the session, run
    the full sequential one-shot workload, and report build time, run
    time, events executed, and end-to-end messages/s.  The workload
    itself asserts every returned counter value, so correctness rides
    along with the timing.
    """
    grid = {}
    for n in sizes:
        build_start = time.perf_counter()
        session = RunSession("ww-tree", n, trace_level="OFF")
        build_s = time.perf_counter() - build_start
        run_start = time.perf_counter()
        session.run_sequence()
        run_s = time.perf_counter() - run_start
        events = session.network.events_executed
        grid[f"n={n}"] = {
            "build_s": round(build_s, 3),
            "run_s": round(run_s, 3),
            "events_executed": events,
            "events_per_s": round(events / run_s),
        }
    return {
        "grid": "ww-tree sequential one-shot, OFF tracing, "
        "single cold run per point",
        "note": "every returned value asserted correct; events include "
        "message deliveries and local timer callbacks",
        **grid,
    }


def bench_serving(ops: int = 150, time_scale: float = 0.005) -> dict:
    """Wall-clock serving grid: rate sweeps against a live TCP service.

    For each configuration, start a :class:`~repro.serve.CounterService`
    on a loopback port (asyncio runtime, simulated delays scaled to real
    milliseconds so capacity is protocol-determined rather than
    interpreter-determined), then sweep ascending offered rates with the
    open-loop load generator and report p50/p99 latency per rate plus
    the detected saturation knee.  Every request's returned value is
    checked by the generator, and the final counter value is asserted,
    so correctness rides along with the timing.
    """
    from repro.serve import CounterService, run_rate_sweep

    configs = (
        ("central", 8, (100.0, 200.0, 400.0, 800.0, 1600.0)),
        (
            "ww-tree?interval_mode=wrap",
            27,
            (100.0, 200.0, 400.0, 800.0, 1600.0),
        ),
    )

    async def sweep(spec: str, n: int, rates: tuple[float, ...]):
        service = CounterService(
            spec, n, port=0, time_scale=time_scale, trace_level="LOADS"
        )
        await service.start()
        try:
            result = await run_rate_sweep(
                "127.0.0.1", service.port, ops, rates
            )
        finally:
            await service.stop()
        total = ops * len(rates)
        assert service.served == total, (
            f"{spec}: served {service.served} of {total} requests"
        )
        return result

    grid = {}
    for spec, n, rates in configs:
        result = asyncio.run(sweep(spec, n, rates))
        errors = sum(run.errors for run in result.runs)
        assert errors == 0, f"{spec}: {errors} failed requests"
        grid[spec] = {
            "n": n,
            "offered_rates_per_s": [run.offered_rate for run in result.runs],
            "throughput_per_s": [
                round(run.throughput, 1) for run in result.runs
            ],
            "p50_ms": [round(run.p50 * 1000, 2) for run in result.runs],
            "p99_ms": [round(run.p99 * 1000, 2) for run in result.runs],
            "knee_rate_per_s": result.knee_rate,
        }
    return {
        "grid": f"live TCP service, {ops} Poisson increments per rate, "
        f"time_scale={time_scale}",
        "note": "open-loop latency measured from scheduled arrival; the "
        "knee is the first rate whose mean latency exceeds 3x the "
        "lowest rate's; all responses verified, final values asserted",
        **grid,
    }


def bench_resilience(ops: int = 960) -> dict:
    """Graceful-degradation grid: 2x knee load through the chaos proxy.

    Runs the E26 trial (knee-rate baseline, then double the knee
    through a :class:`~repro.serve.ChaosProxy` injecting delays,
    stalls, truncated answers, resets and blackholes, with per-request
    deadlines and idempotent retries) and records the wall-clock
    goodput, latency and fault accounting.  Exactly-once arithmetic is
    asserted: the final counter value equals the baseline commits plus
    the unique committed request ids, chaos notwithstanding.
    """
    from repro.experiments.resilience_exp import run_resilience_trial

    trial = run_resilience_trial(ops=ops)
    assert trial.exactly_once, (
        f"resilience grid: counter value {trial.probe_value} != "
        f"{trial.baseline.completed} baseline commits + "
        f"{trial.rid_committed} unique committed rids"
    )
    baseline, chaos = trial.baseline, trial.chaos
    return {
        "grid": f"{trial.spec} n={trial.n}, {ops} increments per phase, "
        "knee-rate baseline then 2x knee through the chaos proxy",
        "note": "goodput counts server-side commits over chaos wall "
        "time; exactly-once asserted (final value == baseline commits "
        "+ unique committed request ids)",
        "chaos_plan": trial.chaos_plan,
        "deadline_ms": round(trial.deadline * 1000, 1),
        "retry_attempts": trial.retry.attempts,
        "baseline": {
            "offered_rate_per_s": baseline.offered_rate,
            "completed": baseline.completed,
            "throughput_per_s": round(baseline.throughput, 1),
            "p50_ms": round(baseline.p50 * 1000, 2),
            "p99_ms": round(baseline.p99 * 1000, 2),
        },
        "chaos": {
            "offered_rate_per_s": trial.overload_rate,
            "completed": chaos.completed,
            "goodput_per_s": round(trial.chaos_goodput, 1),
            "goodput_vs_baseline": round(
                trial.chaos_goodput / baseline.throughput, 2
            ),
            "p50_ms": round(chaos.p50 * 1000, 2),
            "p99_ms": round(chaos.p99 * 1000, 2),
            "p99_bound_ms": round(trial.worst_case_latency * 1000, 1),
            "retries": chaos.retries,
            "errors_by_type": dict(sorted(chaos.error_counts.items())),
        },
        "server": {
            "served": trial.stats["served"],
            "shed": trial.stats["shed"],
            "deadline_expired": trial.stats["expired"],
            "duplicate_hits": trial.stats["deduped"],
            "rid_committed": trial.rid_committed,
        },
        "proxy": {
            key: value for key, value in trial.proxy_stats.items() if value
        },
    }


def bench_sharding(ops: int = 320) -> dict:
    """Sharded-keyspace grid: the E27 baseline-vs-sharded trial.

    Runs the E27 trial (one serialized shard with ``batch_max=1``,
    then 4 shards with batch combining through the chaos proxy) and
    records the wall-clock goodput of both phases, the ratio, the
    chaos accounting and the offline replay verdict.  Per-key
    exactness is asserted: every key's final value equals exactly its
    unique committed request ids, live and under replay.
    """
    from repro.experiments.sharding_exp import run_sharding_trial

    trial = run_sharding_trial(ops=ops)
    failures = trial.exactness_failures()
    assert not failures, (
        f"sharding grid: per-key exactness violated on {failures}"
    )
    assert trial.sharded.completed == trial.sharded.sent, (
        f"sharding grid: lost requests under chaos "
        f"({trial.sharded.completed}/{trial.sharded.sent})"
    )
    assert trial.replay_ops == trial.sharded.completed, (
        f"sharding grid: replay verified {trial.replay_ops} ops of "
        f"{trial.sharded.completed}"
    )
    baseline, sharded = trial.baseline, trial.sharded
    return {
        "grid": f"{trial.spec} pools of n={trial.n}, {ops} Zipf("
        f"{trial.zipf:g})-keyed increments per phase over {trial.keys} "
        "keys, single serialized counter vs batched shards + chaos",
        "note": "per-key exactness asserted live and by offline "
        "fixture replay; the ratio is the sharding+batching win over "
        "the single-counter regime the paper's bound pins",
        "chaos_plan": trial.chaos_plan,
        "retry_attempts": trial.retry.attempts,
        "baseline": {
            "shards": 1,
            "batch_max": 1,
            "completed": baseline.completed,
            "throughput_per_s": round(baseline.throughput, 1),
            "p50_ms": round(baseline.p50 * 1000, 2),
            "p99_ms": round(baseline.p99 * 1000, 2),
        },
        "sharded": {
            "shards": trial.shards,
            "batch_max": trial.batch_max,
            "completed": sharded.completed,
            "throughput_per_s": round(sharded.throughput, 1),
            "p50_ms": round(sharded.p50 * 1000, 2),
            "p99_ms": round(sharded.p99 * 1000, 2),
            "retries": sharded.retries,
            "batches": trial.sharded_stats["batches"],
        },
        "goodput_ratio": round(trial.goodput_ratio, 2),
        "keys_touched": len(trial.snapshot),
        "replay": "REPLAY OK: "
        + trial.replay_summary.split(": ", 1)[1],
        "proxy": {
            key: value for key, value in trial.proxy_stats.items() if value
        },
    }


GRIDS = (
    "queue",
    "messages",
    "registry",
    "sweep",
    "faults",
    "recovery",
    "byzantine",
    "explore",
    "large_n",
    "serving",
    "resilience",
    "sharding",
)


def _grid_boundary() -> None:
    """Release the previous grid's garbage before timing the next one.

    The message grids churn through millions of objects; without a
    collection here their eventual gen-2 sweep lands inside whichever
    grid runs next and halves its measured rate.
    """
    gc.collect()


def build_report(grids: tuple[str, ...] = GRIDS) -> dict:
    """Run the selected benchmark grids and assemble the JSON report."""
    unknown = sorted(set(grids) - set(GRIDS))
    if unknown:
        raise ValueError(f"unknown benchmark grids: {', '.join(unknown)}")
    report: dict = {
        "benchmark": "simulator substrate",
        "git_sha": git_sha(),
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": multiprocessing.cpu_count(),
    }
    if "queue" in grids:
        _grid_boundary()
        report["event_queue_ops_per_s"] = round(bench_event_queue())
    if "messages" in grids:
        _grid_boundary()
        rates = {
            "full": bench_messages(TraceLevel.FULL),
            "loads": bench_messages(TraceLevel.LOADS),
            "off": bench_messages(TraceLevel.OFF),
        }
        report["messages_per_s"] = {
            level: round(rate) for level, rate in rates.items()
        }
        report["seed_reference"] = {
            "full_msgs_per_s": SEED_FULL_MSGS_PER_S,
            "note": "seed-commit FULL-tracing throughput; ratio target "
            "for LOADS is >= 5x",
        }
        report["speedup_vs_seed_full"] = {
            level: round(rate / SEED_FULL_MSGS_PER_S, 2)
            for level, rate in rates.items()
        }
    if "registry" in grids:
        _grid_boundary()
        report["registry"] = {
            "spec_resolutions_per_s": round(bench_spec_resolution()),
            "ww_tree_sessions_per_s": round(bench_session_construction()),
            "note": "parse+canonicalize over every registered spec; "
            "RunSession includes building the n=81 tree",
        }
    if "sweep" in grids:
        _grid_boundary()
        report["sweep_wall_time_s"] = {
            "grid": "3 counters x n in (256, 1024), one-shot",
            "note": "parallel only wins with >1 cpu; outputs are "
            "identical either way",
            "serial": round(bench_sweep(workers=1), 3),
            "parallel_4_workers": round(bench_sweep(workers=4), 3),
        }
    if "faults" in grids:
        _grid_boundary()
        report["fault_transport"] = bench_fault_transport()
    if "recovery" in grids:
        _grid_boundary()
        report["crash_recovery"] = bench_recovery()
    if "byzantine" in grids:
        _grid_boundary()
        report["byzantine"] = bench_byzantine()
    if "explore" in grids:
        _grid_boundary()
        report["schedule_exploration"] = bench_explore()
    if "large_n" in grids:
        _grid_boundary()
        report["large_n"] = bench_large_n()
    if "serving" in grids:
        _grid_boundary()
        report["serving"] = bench_serving()
    if "resilience" in grids:
        _grid_boundary()
        report["resilience"] = bench_resilience()
    if "sharding" in grids:
        _grid_boundary()
        report["sharding"] = bench_sharding()
    return report


def write_report(
    output: str | pathlib.Path,
    grids: tuple[str, ...] = GRIDS,
    echo: bool = True,
) -> dict:
    """Build the report, write it to *output*, optionally print it."""
    report = build_report(grids)
    path = pathlib.Path(output)
    path.write_text(json.dumps(report, indent=2) + "\n")
    if echo:
        print(json.dumps(report, indent=2))
        print(f"\nwrote {path}", file=sys.stderr)
    return report
