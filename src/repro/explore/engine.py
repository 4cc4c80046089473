"""The exploration engine: drive one counter through many schedules.

One *episode* is one complete, controlled execution: a fresh
:class:`~repro.registry.RunSession` (or mutant wiring) whose delivery
policy and tie-breaking are both routed through a
:class:`~repro.explore.controller.ScheduleController`, driven through a
staggered (overlapping) or sequential workload, then judged by the
invariant-oracle suite (:mod:`repro.analysis.oracles`).  Episodes are
pure functions of ``(configuration, episode index)`` — strategies derive
all randomness from the exploration seed and the episode index — so an
exploration is deterministic, partitionable across processes, and every
failure is replayable from its recorded decision stream alone.

Failures are delta-shrunk (:mod:`repro.explore.shrink`) and wrapped into
:class:`~repro.explore.schedule.ReproFile` witnesses; replaying a repro
re-runs one episode with a
:class:`~repro.explore.strategies.ReplayStrategy` and checks the same
oracle fails again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Iterator, Sequence

from repro.analysis.oracles import (
    Oracle,
    OracleContext,
    OracleVerdict,
    first_failure,
    run_oracles,
)
from repro.api import DistributedCounter
from repro.errors import CapabilityError, ConfigurationError, ReproError
from repro.explore.controller import ScheduleController
from repro.explore.mutants import build_mutant, is_mutant_spec
from repro.explore.schedule import ExploreConfig, ReproFile, Schedule
from repro.explore.shrink import shrink_schedule
from repro.explore.strategies import ReplayStrategy, Strategy, parse_plan
from repro.registry import CounterRef, RunSession, assemble_run, parse_spec
from repro.sim.faults import FaultPlan, parse_fault_spec
from repro.sim.messages import ProcessorId
from repro.sim.network import Network
from repro.workloads.driver import (
    RunResult,
    TimedOp,
    run_sequence,
    run_staggered_timed,
)
from repro.workloads.sequences import one_shot, round_robin

DEFAULT_EPISODE_EVENT_LIMIT = 500_000
"""Per-episode event budget: adversarial schedules on a retrying counter
can livelock, and an exploration must bound every episode's cost.  A
blown budget is reported by the ``runtime`` oracle, not raised."""

EXPLORE_WORKLOADS = ("staggered", "sequential")
"""Workload shapes an episode may drive: ``"staggered"`` overlaps
operations (timed ops; linearizability territory), ``"sequential"``
quiesces between them (footprints; Hot-Spot territory)."""


@dataclass(slots=True)
class EpisodeOutcome:
    """One explored execution: its schedule and every verdict."""

    episode: int
    strategy: str
    schedule: Schedule
    verdicts: list[OracleVerdict]

    @property
    def failure(self) -> OracleVerdict | None:
        """The first failing verdict, or ``None``."""
        return first_failure(self.verdicts)


@dataclass(slots=True)
class ExplorationReport:
    """Aggregate result of one exploration."""

    config: ExploreConfig
    episodes: int = 0
    decisions: int = 0
    failures: list[ReproFile] = field(default_factory=list)
    verdict_counts: dict[str, dict[str, int]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True iff no oracle failed on any explored schedule."""
        return not self.failures

    def to_json(self) -> dict[str, Any]:
        """Plain-JSON form (CLI ``--json`` and bench reporting)."""
        return {
            "counter": self.config.counter,
            "n": self.config.n,
            "seed": self.config.seed,
            "strategy": self.config.strategy,
            "workload": self.config.workload,
            "faults": self.config.faults,
            "episodes": self.episodes,
            "decisions": self.decisions,
            "failures": [repro.to_json() for repro in self.failures],
            "verdicts": self.verdict_counts,
        }


class Explorer:
    """Runs episodes, judges them, shrinks failures (see module doc).

    Args:
        config: the exploration configuration.
        oracles: override the oracle suite (default:
            :func:`~repro.analysis.oracles.default_oracles`).

    Raises:
        ConfigurationError: malformed plan/workload/transport, faults on
            a mutant.
        CapabilityError: counter opted out of exploration
            (``explorable=False``) or is sequential-only under the
            staggered workload.
    """

    def __init__(
        self, config: ExploreConfig, oracles: Sequence[Oracle] | None = None
    ) -> None:
        if config.workload not in EXPLORE_WORKLOADS:
            raise ConfigurationError(
                f"unknown exploration workload {config.workload!r}; "
                f"expected one of {EXPLORE_WORKLOADS}"
            )
        if config.rounds < 1:
            raise ConfigurationError(
                f"rounds must be >= 1, got {config.rounds}"
            )
        self._config = config
        self._oracles = oracles
        if is_mutant_spec(config.counter):
            if config.transport != "bare":
                raise ConfigurationError(
                    "mutants are explored bare: no reliable transport "
                    "(the bug is the experiment)"
                )
            if config.faults:
                # A Byzantine-only plan is the one exception to "mutants
                # are explored bare": Byzantine-tolerance mutants (e.g.
                # mutant[trusting-byz]) only misbehave when there are
                # liars to trust.  Crash/loss rules stay rejected.
                probe = parse_fault_spec(config.faults, seed=config.seed)
                if not probe.byzantine_rules or len(probe.byzantine_rules) != len(
                    probe.rules
                ):
                    raise ConfigurationError(
                        "mutants are explored bare: no fault plans except "
                        "Byzantine-only ones (the bug is the experiment; "
                        "Byzantine mutants need liars to trust)"
                    )
            self._canonical = config.counter.strip()
            self._gated_ref: CounterRef | None = None
            self._factory = partial(build_mutant, config.counter)
        else:
            ref = parse_spec(config.counter)
            capabilities = ref.capabilities
            if not capabilities.explorable:
                raise CapabilityError(
                    f"counter {ref.canonical!r} opted out of schedule "
                    "exploration (explorable=False): its correctness "
                    "depends on delay assumptions the explorer violates"
                )
            if capabilities.sequential_only and config.workload == "staggered":
                raise CapabilityError(
                    f"counter {ref.canonical!r} is sequential-only; "
                    "explore it with workload='sequential'"
                )
            self._canonical = ref.canonical
            self._gated_ref = ref
            self._factory = ref.build
        # Parse eagerly so malformed plans fail at construction.
        self._plan = parse_plan(config.strategy, config.budget, config.seed)

    @property
    def config(self) -> ExploreConfig:
        return self._config

    @property
    def canonical(self) -> str:
        """Canonical counter spec (mutant names are their own canon)."""
        return self._canonical

    @property
    def total_episodes(self) -> int:
        """Episodes the full plan runs (sum of leg budgets)."""
        return sum(budget for _, budget in self._plan)

    # ------------------------------------------------------------------
    # Episode assembly
    # ------------------------------------------------------------------
    def _episode_plan(
        self, controller: ScheduleController
    ) -> FaultPlan | None:
        """Parse a fresh fault plan and hand its adversary to *controller*.

        Parsed per episode (not once) because Byzantine binding is
        one-shot per plan: every episode must re-choose its compromised
        set through the episode's own strategy.  The ``"byz-pid"`` and
        ``"byz-rule"`` choices land in the recorded decision stream, so
        repro files replay the adversary along with the schedule.
        """
        config = self._config
        if not config.faults:
            return None
        plan = parse_fault_spec(config.faults, seed=config.seed)
        if plan.byzantine_rules:
            plan.bind_clients(config.n, chooser=controller.choose_adversary)
            plan.install_adversary(controller.choose_adversary)
        return plan

    def _build(
        self, controller: ScheduleController
    ) -> tuple[
        DistributedCounter,
        Network,
        frozenset[ProcessorId],
        bool,
        frozenset[ProcessorId],
        bool,
    ]:
        """Wire one episode; returns (counter, network, optional-pids,
        at-most-once, byzantine-pids, value-burning)."""
        config = self._config
        plan = self._episode_plan(controller)
        byz = plan.byzantine_pids if plan is not None else frozenset()
        # Crash/loss rules can orphan reserved values, so the validity
        # bound is only judgeable on Byzantine-only (or clean) plans.
        burning = plan is not None and len(plan.byzantine_rules) != len(
            plan.rules
        )
        if self._gated_ref is not None and (
            not byz or self._gated_ref.capabilities.tolerates_byzantine
        ):
            run = RunSession(
                self._gated_ref,
                config.n,
                policy=controller,
                seed=config.seed,
                event_limit=DEFAULT_EPISODE_EVENT_LIMIT,
                faults=plan,
                reliable=config.transport == "reliable",
            )
        else:
            # A mutant, or liars on a counter that does not tolerate
            # them: the session's gates would (rightly) refuse both, and
            # the explorer's point here is the witness they protect
            # users from, so assemble without them.
            run = assemble_run(
                self._factory,
                config.n,
                policy=controller,
                event_limit=DEFAULT_EPISODE_EVENT_LIMIT,
                fault_plan=plan,
                run_context=self._canonical,
                reliable=config.transport == "reliable",
            )
        controller.attach(run.network)
        # Under an active fault plan values may be burned (orphaned
        # combines, re-assigned reservations), so the value set need not
        # be dense — only duplicate-free.
        return (
            run.counter,
            run.network,
            plan.unanswerable_pids if plan is not None else frozenset(),
            plan is not None,
            byz,
            burning,
        )

    def _batch(self) -> list[ProcessorId]:
        config = self._config
        if config.rounds == 1:
            return one_shot(config.n)
        return round_robin(config.n, config.rounds)

    def run_episode(self, strategy: Strategy, episode: int) -> EpisodeOutcome:
        """Execute and judge one episode under *strategy*."""
        config = self._config
        strategy.begin_episode(episode)
        controller = ScheduleController(strategy, config.delay_menu)
        counter, network, optional, at_most_once, byz, burning = self._build(
            controller
        )
        batch = self._batch()
        ops: list[TimedOp] | None = None
        result: RunResult | None = None
        exception: ReproError | None = None
        try:
            if config.workload == "staggered":
                ops = run_staggered_timed(
                    counter, batch, config.gap, optional=optional
                )
            else:
                result = run_sequence(
                    counter, batch, check_values=False, optional=optional
                )
        except ReproError as error:
            exception = error
        context = OracleContext(
            counter=counter,
            ops=ops,
            result=result,
            expected_ops=len(batch),
            at_most_once=at_most_once,
            byzantine_pids=byz,
            value_burning_faults=burning,
            exception=exception,
        )
        verdicts = run_oracles(context, self._oracles)
        return EpisodeOutcome(
            episode=episode,
            strategy=strategy.name,
            schedule=controller.recorded,
            verdicts=verdicts,
        )

    # ------------------------------------------------------------------
    # Replay + shrink
    # ------------------------------------------------------------------
    def replay(self, decisions: Sequence[int], episode: int = -1) -> EpisodeOutcome:
        """Re-run one episode answering every decision from *decisions*."""
        return self.run_episode(ReplayStrategy(decisions), max(episode, 0))

    def shrink(self, schedule: Schedule, oracle: str) -> Schedule:
        """Delta-shrink *schedule* preserving a failure of *oracle*."""

        def still_fails(candidate: Sequence[int]) -> bool:
            failure = self.replay(candidate).failure
            return failure is not None and failure.oracle == oracle

        return shrink_schedule(schedule.decisions, still_fails)

    # ------------------------------------------------------------------
    # The exploration loop
    # ------------------------------------------------------------------
    def _episodes(self) -> Iterator[tuple[int, Strategy]]:
        """Yield (global episode index, strategy) across all plan legs."""
        index = 0
        for strategy, budget in self._plan:
            for _ in range(budget):
                yield index, strategy
                index += 1

    def run(
        self, start: int = 0, count: int | None = None
    ) -> ExplorationReport:
        """Explore; optionally only the episode window ``[start, start+count)``.

        Windowing exists for deterministic parallel partitioning
        (:mod:`repro.explore.parallel`): episode ``i`` is the same
        execution whichever window runs it, so concatenating disjoint
        windows reproduces the serial exploration exactly.
        """
        report = ExplorationReport(config=self._config)
        remaining = count
        for episode, strategy in self._episodes():
            if episode < start:
                continue
            if remaining is not None:
                if remaining <= 0:
                    break
                remaining -= 1
            outcome = self.run_episode(strategy, episode)
            report.episodes += 1
            report.decisions += len(outcome.schedule)
            for verdict in outcome.verdicts:
                counts = report.verdict_counts.setdefault(
                    verdict.oracle, {"pass": 0, "fail": 0, "skip": 0}
                )
                if verdict.skipped:
                    counts["skip"] += 1
                elif verdict.ok:
                    counts["pass"] += 1
                else:
                    counts["fail"] += 1
            failure = outcome.failure
            if failure is None:
                continue
            schedule = outcome.schedule.trimmed()
            if self._config.shrink:
                schedule = self.shrink(schedule, failure.oracle)
                # Re-derive the message from the shrunk schedule: the
                # witness users replay is the shrunk one.
                replayed = self.replay(schedule.decisions).failure
                if replayed is not None:
                    failure = replayed
            report.failures.append(
                ReproFile(
                    config=self._config,
                    decisions=schedule.decisions,
                    oracle=failure.oracle,
                    message=failure.message,
                    strategy=strategy.name,
                    episode=episode,
                )
            )
            if len(report.failures) >= self._config.max_failures:
                break
        return report


# ----------------------------------------------------------------------
# Repro files
# ----------------------------------------------------------------------
def explorer_for_repro(repro: ReproFile) -> Explorer:
    """An :class:`Explorer` configured exactly as the repro's episode."""
    return Explorer(repro.config)


def replay_repro(repro: ReproFile) -> EpisodeOutcome:
    """Re-run a repro file's schedule; returns the judged episode."""
    explorer = explorer_for_repro(repro)
    return explorer.replay(repro.decisions, episode=max(repro.episode, 0))


def reproduces(repro: ReproFile) -> bool:
    """True iff replaying *repro* fails the same oracle it recorded."""
    failure = replay_repro(repro).failure
    return failure is not None and failure.oracle == repro.oracle
