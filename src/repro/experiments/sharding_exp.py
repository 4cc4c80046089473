"""E27: sharding beats the bottleneck — batched keyed goodput vs one counter.

The paper's lower bound is per counter: any single counting structure
has a processor fielding Omega(k) messages per operation, so a single
shard saturates at a protocol-determined rate no matter how the
structure is built.  The two levers that remain are the ones this
experiment measures end to end, against the live keyed TCP service:

* **horizontal sharding**: a :class:`~repro.shard.CounterShardMap`
  places counter keys on independent shard pools by consistent
  hashing; distinct shards traverse concurrently, so the keyspace's
  aggregate capacity scales with the shard count even though each
  shard individually still obeys the bound;
* **batch combining**: each shard's batcher folds up to ``batch_max``
  queued increments into one traversal
  (:meth:`~repro.shard.CounterShardMap.begin_batch`), amortizing the
  Theta(k) cost across the window — the paper's own combining idea,
  applied at the service boundary.

The trial drives the same Zipf-skewed keyed workload at two services:
a **baseline** with one shard and ``batch_max=1`` (every increment
pays a full traversal, serialized — the single-counter regime) and a
**sharded** configuration (4 shards, batching) reached through a
fault-injecting :class:`~repro.serve.ChaosProxy` with idempotent
retries.  Acceptance: sharded goodput is at least 3x the baseline's
despite the injected chaos, every key's final value equals exactly its
unique committed request ids (checked live against the shard map *and*
offline by replaying the run's recorded fixture bundle with
``repro replay``).

:func:`run_sharding_trial` is the trial itself; its goodput is
wall-clock, so the table moves run to run while the assertions hold.
"""

from __future__ import annotations

import asyncio
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

from repro.experiments.base import ExperimentResult, make_table
from repro.serve import (
    ChaosProxy,
    KeyedCounterService,
    KeyedLoadResult,
    ResilienceConfig,
    RetryPolicy,
    parse_chaos_spec,
    run_keyed_load,
)
from repro.shard import replay_bundle

E27_CHAOS_PLAN = "delay=0.001@0.2,trunc=4@0.08,reset@0.12"
"""The canonical E27 fault mix: per-chunk delays, truncated answers
(the increment commits but the reply is cut short — the retry must
recover the committed value through the dedup ledger) and connection
resets.  Deliberately no blackholes or stalls: E27's claim is a
goodput *ratio*, so the chaos must be survivable within the retry
budget rather than open-ended."""


@dataclass(frozen=True, slots=True)
class ShardingTrial:
    """One baseline-vs-sharded trial against live keyed services.

    Attributes:
        spec: canonical counter spec backing every shard pool.
        n: processors per shard pool.
        shards: shard count of the sharded phase.
        batch_max: combining window of the sharded phase.
        keys: key population of the Zipf workload.
        zipf: skew of the key popularity distribution.
        rate: offered load of both phases (ops/second, open loop).
        chaos_plan: canonical chaos spec injected in the sharded phase.
        retry: client retry policy of the sharded phase.
        baseline: load result of the 1-shard, ``batch_max=1`` phase.
        sharded: load result of the sharded phase through the proxy.
        snapshot: the sharded keyspace's final per-key values, read
            from the shard map after the load completed.
        proxy_stats: the chaos proxy's injection counters.
        replay_ops: operations re-verified by replaying the sharded
            phase's fixture bundle offline.
        replay_summary: the replay report's verdict line.
    """

    spec: str
    n: int
    shards: int
    batch_max: int
    keys: int
    zipf: float
    rate: float
    chaos_plan: str
    retry: RetryPolicy
    baseline: KeyedLoadResult
    sharded: KeyedLoadResult
    snapshot: dict
    proxy_stats: dict
    replay_ops: int
    replay_summary: str

    @property
    def goodput_ratio(self) -> float:
        """Sharded-phase throughput over baseline-phase throughput."""
        return self.sharded.throughput / self.baseline.throughput

    def exactness_failures(self) -> list[str]:
        """Keys whose final value is not exactly its committed rids.

        Every sharded-phase request carries a unique request id and
        every request completed, so key ``k``'s final value must equal
        the number of requests that targeted ``k`` — and the values
        those requests observed must be the distinct consecutive run
        ``0..value-1`` (no lost increment, no doubled one).
        """
        failures = []
        for key, values in sorted(self.sharded.key_values.items()):
            if self.snapshot.get(key) != len(values):
                failures.append(key)
        failures.extend(
            key
            for key in self.sharded.exactness_violations()
            if key not in failures
        )
        return failures


def run_sharding_trial(
    spec: str = "central",
    n: int = 4,
    ops: int = 320,
    rate: float = 2000.0,
    keys: int = 48,
    zipf: float = 1.1,
    shards: int = 4,
    batch_max: int = 32,
    time_scale: float = 0.003,
    chaos_plan: str = E27_CHAOS_PLAN,
    seed: int = 0,
    retry: RetryPolicy | None = None,
    attempt_timeout: float = 0.1,
    keep_bundle: str | None = None,
) -> ShardingTrial:
    """Run the E27 trial: single-counter baseline, then sharded + chaos.

    Phase 1 drives *ops* Zipf-keyed increments at one shard with
    ``batch_max=1`` — every increment pays one serialized traversal,
    the regime the paper's bound pins.  Phase 2 drives the same
    workload at *shards* shards with batch combining, through a chaos
    proxy with idempotent retries, recording a fixture bundle that is
    then replayed and verified offline.

    Pass *keep_bundle* to write the sharded phase's fixture bundle to
    a persistent directory instead of a temp dir.
    """
    if retry is None:
        retry = RetryPolicy(attempts=12, base_delay=0.005, max_delay=0.05)
    scratch = keep_bundle or tempfile.mkdtemp(prefix="e27-bundle-")
    bundle_dir = str(Path(scratch))

    async def phase(
        shard_count: int, window: int, phase_seed: int, chaos: bool
    ) -> tuple[KeyedLoadResult, str, dict, dict]:
        """One phase: serve, load, snapshot, stop — with *chaos*,
        through the proxy with retries, recording the bundle."""
        service = KeyedCounterService(
            spec,
            n,
            port=0,
            shards=shard_count,
            batch_max=window,
            seed=phase_seed,
            time_scale=time_scale,
            trace_level="LOADS",
            resilience=ResilienceConfig(max_backlog=None),
            fixture_dir=bundle_dir if chaos else None,
        )
        await service.start()
        proxy = None
        target_port = service.port
        if chaos:
            proxy = ChaosProxy(
                "127.0.0.1",
                service.port,
                plan=parse_chaos_spec(chaos_plan, seed=phase_seed),
            )
            await proxy.start()
            target_port = proxy.port
        try:
            result = await run_keyed_load(
                "127.0.0.1",
                target_port,
                ops,
                rate,
                keys=keys,
                zipf=zipf,
                seed=phase_seed,
                retry=retry if chaos else None,
                attempt_timeout=attempt_timeout if chaos else None,
                rid_prefix=f"e27s{phase_seed}",
            )
            snapshot = service.map.snapshot()
        finally:
            if proxy is not None:
                await proxy.stop()
            await service.stop()
        proxy_stats = dict(proxy.stats) if proxy is not None else {}
        return result, service.spec, snapshot, proxy_stats

    async def run_both():
        baseline = await phase(1, 1, seed, chaos=False)
        sharded = await phase(shards, batch_max, seed + 1, chaos=True)
        return baseline, sharded

    try:
        (baseline, _, _, _), sharded_phase = asyncio.run(run_both())
        sharded, canonical_spec, snapshot, proxy_stats = sharded_phase
        report = replay_bundle(bundle_dir)
        return ShardingTrial(
            spec=canonical_spec,
            n=n,
            shards=shards,
            batch_max=batch_max,
            keys=keys,
            zipf=zipf,
            rate=rate,
            chaos_plan=parse_chaos_spec(chaos_plan, seed=seed).canonical(),
            retry=retry,
            baseline=baseline,
            sharded=sharded,
            snapshot=snapshot,
            proxy_stats=proxy_stats,
            replay_ops=report.ops,
            replay_summary=report.summary(),
        )
    finally:
        if keep_bundle is None:
            shutil.rmtree(scratch, ignore_errors=True)


def run_e27(
    ops: int = 320,
    goodput_factor: float = 3.0,
    seed: int = 0,
) -> ExperimentResult:
    """E27: sharded batched goodput >= 3x the single-counter baseline."""
    trial = run_sharding_trial(ops=ops, seed=seed)
    baseline, sharded = trial.baseline, trial.sharded

    assert baseline.completed == baseline.sent and baseline.errors == 0, (
        f"E27: baseline phase lost requests "
        f"({baseline.completed}/{baseline.sent}, {baseline.errors} errors)"
    )
    assert sharded.completed == sharded.sent, (
        f"E27: sharded phase lost requests under chaos "
        f"({sharded.completed}/{sharded.sent}; "
        f"errors {dict(sorted(sharded.error_counts.items()))})"
    )
    failures = trial.exactness_failures()
    assert not failures, (
        f"E27: per-key exactness violated on {failures} "
        f"(snapshot: { {k: trial.snapshot.get(k) for k in failures} })"
    )
    assert trial.goodput_ratio >= goodput_factor, (
        f"E27: sharding gained only {trial.goodput_ratio:.2f}x "
        f"({sharded.throughput:.0f}/s over {baseline.throughput:.0f}/s); "
        f"need >= {goodput_factor:g}x"
    )
    assert trial.replay_ops == sharded.completed, (
        f"E27: replay verified {trial.replay_ops} ops, the sharded "
        f"phase committed {sharded.completed}"
    )

    def row(phase: str, run: KeyedLoadResult, config: str) -> list[str]:
        return [
            phase,
            config,
            f"{run.completed}/{run.sent}",
            f"{run.throughput:.0f}",
            f"{run.p50 * 1000:.1f}",
            f"{run.p99 * 1000:.1f}",
            f"{run.retries}",
        ]

    return ExperimentResult(
        experiment_id="E27",
        claim="the paper's bound is per counter: hashing keys onto "
        "independent shard pools and amortizing each shard's Theta(k) "
        "traversal over combined batches multiplies keyed goodput by "
        f">= {goodput_factor:g}x under Zipf({trial.zipf:g}) skew and "
        "injected chaos, with every key's value exactly its unique "
        "committed request ids — live and under offline replay",
        tables=(
            make_table(
                f"E27: {trial.spec} pools of n={trial.n}, {ops} keyed "
                f"increments per phase at {trial.rate:g}/s offered, "
                f"{trial.keys} keys, Zipf({trial.zipf:g}); chaos "
                f"{trial.chaos_plan}, {trial.retry.attempts} attempts",
                [
                    "phase",
                    "config",
                    "ok",
                    "goodput/s",
                    "p50 ms",
                    "p99 ms",
                    "retries",
                ],
                [
                    row("single counter", baseline, "1 shard, batch=1"),
                    row(
                        "sharded + chaos",
                        sharded,
                        f"{trial.shards} shards, "
                        f"batch<={trial.batch_max}",
                    ),
                ],
                note=(
                    f"Goodput ratio {trial.goodput_ratio:.1f}x "
                    f"(floor {goodput_factor:g}x) despite the sharded "
                    "phase running through the chaos proxy\n(injected "
                    f"{trial.proxy_stats.get('resets', 0)} resets, "
                    f"{trial.proxy_stats.get('truncations', 0)} "
                    "truncated answers, "
                    f"{trial.proxy_stats.get('delays', 0)} delays) "
                    "while the baseline ran clean.\nExactness asserted "
                    f"per key over {len(trial.snapshot)} keys: final "
                    "value == unique committed request ids, values a "
                    "dense run.\nOffline: "
                    + trial.replay_summary.split(": ", 1)[1]
                ),
            ),
        ),
    )
