"""E26: graceful degradation — goodput plateaus, exactly-once under chaos.

E24 (and a ``repro loadgen --rates`` sweep against a live service)
locates the saturation knee the paper guarantees; E26 drives the live TCP service *past* it — at a
multiple of the knee rate, through a fault-injecting proxy
(:class:`~repro.serve.ChaosProxy`) that resets, stalls, delays and
blackholes connections — and shows that the resilience layer turns
certain saturation into graceful degradation:

* **goodput plateaus** instead of collapsing: committed operations per
  second beyond the knee stay within a bounded factor of the knee-rate
  throughput, because bounded admission sheds excess load early
  (``ERR OVERLOADED``) instead of queueing it forever;
* **latency stays bounded**: client p99 never exceeds the retry
  policy's worst case (attempts x attempt timeout + backoff ceilings),
  because deadlines expire stuck operations instead of letting them
  wait out the backlog;
* **exactly-once arithmetic survives**: every request carries a
  client-supplied request id, retries attach to the original operation
  via the server's dedup ledger, and at the end the counter's value
  equals exactly the number of unique committed request ids — no lost
  increments, no doubled ones — even though connections were reset
  mid-request and answers were swallowed.

:func:`run_resilience_trial` is the trial itself; its goodput and
latency are wall-clock, so the table moves run to run while the
assertions hold.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

from repro.experiments.base import ExperimentResult, make_table
from repro.serve import (
    ChaosProxy,
    LoadResult,
    ResilienceConfig,
    RetryPolicy,
    parse_chaos_spec,
    run_load,
)
from repro.serve.server import CounterService

E26_CHAOS_PLAN = (
    "delay=0.002@0.2,stall=0.05@0.1,trunc=4@0.08,reset@0.15,blackhole@0.03"
)
"""The canonical E26 fault mix: per-chunk delays, a first-byte stall,
truncated answers (the op commits but the reply is lost — the retry
must attach to the committed original via the dedup ledger),
connection resets and fully blackholed connections."""

E26_KNEE_RATE = 600.0
"""Knee-rate throughput of central n=8 at time_scale=0.005 (a
``repro loadgen --rates`` sweep against ``repro serve central --n 8
--time-scale 0.005`` tops out near 600 committed ops/s)."""


@dataclass(frozen=True, slots=True)
class ResilienceTrial:
    """One baseline-vs-chaos trial against a live service.

    Attributes:
        spec: canonical counter spec served.
        n: client processors (max in-flight operations).
        chaos_plan: canonical chaos spec injected between generator and
            service during the overload phase.
        deadline: per-request deadline carried by chaos-phase requests.
        retry: client retry policy of the chaos phase.
        attempt_timeout: client-side bound on one attempt's round-trip.
        baseline: load result at the knee, direct connection, no chaos.
        chaos: load result at the overload rate through the proxy.
        probe_value: value returned by one final direct increment —
            the counter's state after both phases.
        rid_committed: unique request ids whose operation committed.
        stats: the service's final ``stats()`` snapshot.
        proxy_stats: the chaos proxy's injection counters.
    """

    spec: str
    n: int
    chaos_plan: str
    deadline: float
    retry: RetryPolicy
    attempt_timeout: float
    baseline: LoadResult
    chaos: LoadResult
    probe_value: int
    rid_committed: int
    stats: dict
    proxy_stats: dict

    @property
    def chaos_goodput(self) -> float:
        """Committed chaos-phase operations per second of chaos wall time.

        Commits are counted server-side (they include operations whose
        client answer was lost to a reset and that were then confirmed
        by an idempotent retry), so this is goodput through the chaos,
        not merely answered requests.
        """
        commits = self.probe_value - self.baseline.completed
        return commits / self.chaos.duration

    @property
    def worst_case_latency(self) -> float:
        """The client-side p99 bound: retries x timeout + backoff."""
        return self.retry.worst_case_latency(self.attempt_timeout)

    @property
    def exactly_once(self) -> bool:
        """Counter value == baseline commits + unique committed rids."""
        return (
            self.probe_value == self.baseline.completed + self.rid_committed
            and self.probe_value == self.stats["served"]
            and len(set(self.chaos.values)) == len(self.chaos.values)
        )


def run_resilience_trial(
    spec: str = "central",
    n: int = 8,
    ops: int = 960,
    time_scale: float = 0.005,
    knee_rate: float = E26_KNEE_RATE,
    overload_factor: float = 2.0,
    chaos_plan: str = E26_CHAOS_PLAN,
    seed: int = 0,
    deadline: float = 0.15,
    retry: RetryPolicy | None = None,
    max_backlog: int = 32,
) -> ResilienceTrial:
    """Run the E26 trial: knee-rate baseline, then overload under chaos.

    Phase 1 drives *ops* increments at *knee_rate* straight at the
    service; phase 2 drives *ops* more at ``knee_rate *
    overload_factor`` through a :class:`~repro.serve.ChaosProxy`
    running *chaos_plan*, with per-request deadlines and idempotent
    retries.  A final direct increment probes the counter's value.
    """
    if retry is None:
        # deep attempts with a tight backoff cap: under sustained
        # overload the point is to keep the bounded queue fed, not to
        # spread retries out — shed answers are cheap, idle slots are
        # not
        retry = RetryPolicy(attempts=10, base_delay=0.005, max_delay=0.05)
    plan = parse_chaos_spec(chaos_plan, seed=seed)
    attempt_timeout = 1.5 * deadline + 0.1

    async def trial() -> ResilienceTrial:
        service = CounterService(
            spec,
            n,
            port=0,
            time_scale=time_scale,
            trace_level="LOADS",
            resilience=ResilienceConfig(max_backlog=max_backlog),
        )
        await service.start()
        proxy = ChaosProxy("127.0.0.1", service.port, plan=plan)
        await proxy.start()
        try:
            baseline = await run_load(
                "127.0.0.1", service.port, ops, knee_rate, seed=seed
            )
            chaos = await run_load(
                "127.0.0.1",
                proxy.port,
                ops,
                knee_rate * overload_factor,
                seed=seed + 1,
                retry=retry,
                deadline=deadline,
                attempt_timeout=attempt_timeout,
                rid_prefix=f"e26s{seed}",
            )
            # let answer-lost-but-committed operations finish their
            # commits before reading the final state
            await asyncio.sleep(5 * time_scale + 0.05)
            stats = service.stats()
            probe_value = await service.inc()
        finally:
            await proxy.stop()
            await service.stop()
        return ResilienceTrial(
            spec=service.spec,
            n=n,
            chaos_plan=plan.canonical(),
            deadline=deadline,
            retry=retry,
            attempt_timeout=attempt_timeout,
            baseline=baseline,
            chaos=chaos,
            probe_value=probe_value,
            rid_committed=stats["rid_committed"],
            stats=stats,
            proxy_stats=dict(proxy.stats),
        )

    return asyncio.run(trial())


def run_e26(
    ops: int = 960,
    goodput_floor: float = 0.75,
    seed: int = 0,
) -> ExperimentResult:
    """E26: graceful degradation past the knee under injected chaos."""
    trial = run_resilience_trial(ops=ops, seed=seed)
    baseline, chaos = trial.baseline, trial.chaos

    assert trial.exactly_once, (
        f"E26: counter value {trial.probe_value} != baseline "
        f"{baseline.completed} + unique committed rids "
        f"{trial.rid_committed} (stats: {trial.stats})"
    )
    assert chaos.completed > 0, "E26: no chaos-phase request ever committed"
    goodput = trial.chaos_goodput
    assert goodput >= goodput_floor * baseline.throughput, (
        f"E26: goodput collapsed past the knee: {goodput:.0f}/s under "
        f"chaos vs {baseline.throughput:.0f}/s at the knee "
        f"(floor {goodput_floor:g})"
    )
    assert chaos.p99 <= trial.worst_case_latency, (
        f"E26: chaos p99 {chaos.p99 * 1000:.0f}ms exceeds the retry "
        f"worst case {trial.worst_case_latency * 1000:.0f}ms"
    )

    def row(phase: str, run: LoadResult) -> list[str]:
        err = ",".join(
            f"{kind}:{count}" for kind, count in sorted(run.error_counts.items())
        )
        return [
            phase,
            f"{run.offered_rate:g}",
            f"{run.completed}/{run.sent}",
            err or "-",
            f"{run.throughput:.0f}",
            f"{run.p50 * 1000:.1f}",
            f"{run.p99 * 1000:.1f}",
            f"{run.retries}",
        ]

    chaos_row = row("2x knee + chaos", chaos)
    chaos_row[4] = f"{goodput:.0f}"
    return ExperimentResult(
        experiment_id="E26",
        claim="past the saturation knee the paper guarantees, bounded "
        "admission + deadlines + idempotent retries turn overload into "
        "graceful degradation: goodput plateaus, p99 stays under the "
        "retry worst case, and the counter value equals exactly the "
        "unique committed request ids",
        tables=(
            make_table(
                f"E26: {trial.spec} n={trial.n}, {ops} increments per "
                f"phase, chaos plan {trial.chaos_plan}, deadline "
                f"{trial.deadline * 1000:g}ms, {trial.retry.attempts} "
                "attempts",
                [
                    "phase",
                    "offered/s",
                    "ok",
                    "errors by type",
                    "goodput/s",
                    "p50 ms",
                    "p99 ms",
                    "retries",
                ],
                [row("knee baseline", baseline), chaos_row],
                note=(
                    "Chaos goodput counts server-side commits (answers "
                    "lost to resets are confirmed\nby idempotent "
                    "retries), measured over chaos wall time; the floor "
                    f"asserted is\n{goodput_floor:g}x the baseline "
                    "throughput.  Exactly-once asserted: final counter "
                    f"value\n{trial.probe_value} == "
                    f"{baseline.completed} baseline commits + "
                    f"{trial.rid_committed} unique committed request "
                    f"ids; served\n{trial.stats['served']}, shed "
                    f"{trial.stats['shed']}, deadline-expired "
                    f"{trial.stats['expired']}, duplicate hits "
                    f"{trial.stats['deduped']};\nproxy injected "
                    f"{trial.proxy_stats['resets']} resets, "
                    f"{trial.proxy_stats['stalls']} stalls, "
                    f"{trial.proxy_stats['blackholed']} blackholes, "
                    f"{trial.proxy_stats['delays']} delays."
                ),
            ),
        ),
    )
