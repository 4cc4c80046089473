"""Parallel, cacheable exploration: the SweepRunner pattern for schedules.

Explorations partition perfectly: episode ``i`` is a pure function of
``(configuration, i)``, so a budget of 200 episodes can run as eight
windows of 25 on eight forked workers and concatenate to *exactly* the
serial result.  An :class:`ExploreTask` names one window by value (the
same discipline as :class:`~repro.workloads.sweep.SweepPoint` — spec
strings, not live objects), :func:`execute_task` recreates and runs it
from scratch in a worker process, and :class:`ExploreRunner` adds the
on-disk JSON cache keyed by :meth:`ExploreTask.config_hash`.

Execution fans out through the same
:func:`~repro.workloads.sweep.fan_out` engine the sweep runner uses, so
process-pool behavior (fork context, pool sizing, input-order results)
is identical across both subsystems.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Mapping, Sequence

from repro.errors import ConfigurationError
from repro.explore.engine import ExplorationReport, Explorer
from repro.explore.mutants import is_mutant_spec
from repro.explore.schedule import ExploreConfig, ReproFile
from repro.workloads.sweep import CachedRunner, fan_out

_CACHE_SCHEMA = "explore-v1"
"""Version tag mixed into every task hash; bump when episode semantics
change (strategy seeding, oracle suite, workload shapes) so stale cached
explorations are never reused."""

_DEFAULT_WINDOW = 25
"""Episodes per partition window: small enough to spread a default
budget across a workstation's cores, large enough that per-process
import/fork overhead stays amortized."""


@dataclass(frozen=True, slots=True)
class ExploreTask:
    """One exploration window, named entirely by value: a configuration
    and the window of its episodes to run.

    ``episode_start``/``episode_count`` select the window;
    ``episode_count=None`` means "to the end of the plan".
    """

    config: ExploreConfig
    episode_start: int = 0
    episode_count: int | None = None

    def canonical_counter(self) -> str:
        """Canonical spec (mutant names are already canonical)."""
        counter = self.config.counter
        if is_mutant_spec(counter):
            return counter.strip()
        from repro.registry import canonical_spec

        return canonical_spec(counter)

    def canonical_faults(self) -> str:
        """The fault spec in canonical form (``""`` when fault-free)."""
        faults = self.config.faults
        if not faults.strip():
            return ""
        from repro.sim.faults import canonical_fault_spec

        return canonical_fault_spec(faults)

    def config_hash(self) -> str:
        """Stable hex digest naming this task (the cache key)."""
        payload = {
            **asdict(self.config),
            "episode_start": self.episode_start,
            "episode_count": self.episode_count,
            "counter": self.canonical_counter(),
            "faults": self.canonical_faults(),
        }
        blob = json.dumps({"schema": _CACHE_SCHEMA, **payload}, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True, slots=True)
class ExploreTaskOutcome:
    """What one exploration window produced (cache file payload)."""

    task: ExploreTask
    episodes: int
    decisions: int
    failures: tuple[ReproFile, ...] = ()
    verdict_counts: Mapping[str, Mapping[str, int]] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        return {
            "task": asdict(self.task),
            "episodes": self.episodes,
            "decisions": self.decisions,
            "failures": [repro.to_json() for repro in self.failures],
            "verdicts": {
                oracle: dict(counts)
                for oracle, counts in self.verdict_counts.items()
            },
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "ExploreTaskOutcome":
        task = dict(payload["task"])
        config = dict(task.pop("config"))
        config["delay_menu"] = tuple(config["delay_menu"])
        return cls(
            task=ExploreTask(ExploreConfig(**config), **task),
            episodes=int(payload["episodes"]),
            decisions=int(payload["decisions"]),
            failures=tuple(
                ReproFile.from_json(item) for item in payload.get("failures", [])
            ),
            verdict_counts={
                oracle: dict(counts)
                for oracle, counts in payload.get("verdicts", {}).items()
            },
        )


def execute_task(task: ExploreTask) -> ExploreTaskOutcome:
    """Run one window from scratch (module-level, hence picklable)."""
    explorer = Explorer(task.config)
    report = explorer.run(start=task.episode_start, count=task.episode_count)
    return ExploreTaskOutcome(
        task=task,
        episodes=report.episodes,
        decisions=report.decisions,
        failures=tuple(report.failures),
        verdict_counts=report.verdict_counts,
    )


def partition(task: ExploreTask, window: int = _DEFAULT_WINDOW) -> list[ExploreTask]:
    """Split *task* into fixed-size episode windows.

    The partition depends only on the plan's total budget and *window*
    — never on the worker count — so any parallelism degree reproduces
    the serial exploration.
    """
    if window < 1:
        raise ConfigurationError(f"window must be >= 1, got {window}")
    total = Explorer(task.config).total_episodes
    start = task.episode_start
    end = total if task.episode_count is None else min(
        total, start + task.episode_count
    )
    tasks: list[ExploreTask] = []
    while start < end:
        count = min(window, end - start)
        tasks.append(replace(task, episode_start=start, episode_count=count))
        start += count
    return tasks


def merge_outcomes(
    task: ExploreTask, outcomes: Sequence[ExploreTaskOutcome]
) -> ExplorationReport:
    """Concatenate window outcomes back into one exploration report.

    Windows are merged in episode order; ``max_failures`` is re-applied
    across the merged stream so the result matches the serial run's
    early-stop behavior when failures cluster early.
    """
    report = ExplorationReport(config=task.config)
    for outcome in sorted(outcomes, key=lambda o: o.task.episode_start):
        report.episodes += outcome.episodes
        report.decisions += outcome.decisions
        for oracle, counts in outcome.verdict_counts.items():
            merged = report.verdict_counts.setdefault(
                oracle, {"pass": 0, "fail": 0, "skip": 0}
            )
            for key, value in counts.items():
                merged[key] += value
        for repro in outcome.failures:
            if len(report.failures) < task.config.max_failures:
                report.failures.append(repro)
    return report


class ExploreRunner(CachedRunner):
    """Executes exploration tasks, optionally in parallel and/or cached.

    The :class:`~repro.workloads.sweep.CachedRunner` loop over
    :class:`ExploreTask` windows: ``workers=1`` runs serially, ``None``
    uses every core; ``cache_dir`` enables the on-disk JSON cache keyed
    by :meth:`ExploreTask.config_hash`.
    """

    outcome_type = ExploreTaskOutcome

    def _execute(self, tasks: list[ExploreTask]) -> list[ExploreTaskOutcome]:
        return fan_out(execute_task, tasks, self._workers)

    def explore(
        self, task: ExploreTask, window: int = _DEFAULT_WINDOW
    ) -> ExplorationReport:
        """Partition *task*, fan the windows out, merge the report."""
        return merge_outcomes(task, self.run(partition(task, window)))
