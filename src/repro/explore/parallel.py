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
from dataclasses import asdict, dataclass, field
from typing import Any, Mapping, Sequence

from repro.errors import ConfigurationError
from repro.explore.engine import (
    DEFAULT_EPISODE_EVENT_LIMIT,
    ExploreConfig,
    ExplorationReport,
    Explorer,
)
from repro.explore.mutants import is_mutant_spec
from repro.explore.schedule import DEFAULT_DELAY_MENU, ReproFile
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
    """One exploration window, named entirely by value.

    ``episode_start``/``episode_count`` select the window;
    ``episode_count=None`` means "to the end of the plan".  All other
    fields mirror :class:`~repro.explore.engine.ExploreConfig`.
    """

    counter: str
    n: int = 8
    seed: int = 0
    strategy: str = "random"
    budget: int = 100
    faults: str = ""
    transport: str = "bare"
    workload: str = "staggered"
    gap: float = 3.0
    rounds: int = 1
    delay_menu: tuple[float, ...] = DEFAULT_DELAY_MENU
    event_limit: int = DEFAULT_EPISODE_EVENT_LIMIT
    shrink: bool = True
    max_failures: int = 5
    episode_start: int = 0
    episode_count: int | None = None

    def to_config(self) -> ExploreConfig:
        """The engine configuration this task re-creates in a worker."""
        payload = asdict(self)
        payload.pop("episode_start")
        payload.pop("episode_count")
        payload["delay_menu"] = tuple(self.delay_menu)
        return ExploreConfig(**payload)

    def canonical_counter(self) -> str:
        """Canonical spec (mutant names are already canonical)."""
        if is_mutant_spec(self.counter):
            return self.counter.strip()
        from repro.registry import canonical_spec

        return canonical_spec(self.counter)

    def canonical_faults(self) -> str:
        """The fault spec in canonical form (``""`` when fault-free)."""
        if not self.faults.strip():
            return ""
        from repro.sim.faults import canonical_fault_spec

        return canonical_fault_spec(self.faults)

    def config_hash(self) -> str:
        """Stable hex digest naming this task (the cache key)."""
        payload = {
            **asdict(self),
            "counter": self.canonical_counter(),
            "faults": self.canonical_faults(),
            "delay_menu": list(self.delay_menu),
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
        task_payload = dict(payload["task"])
        task_payload["delay_menu"] = tuple(task_payload["delay_menu"])
        return cls(
            task=ExploreTask(**task_payload),
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
    explorer = Explorer(task.to_config())
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
    total = Explorer(task.to_config()).total_episodes
    start = task.episode_start
    end = total if task.episode_count is None else min(
        total, start + task.episode_count
    )
    tasks: list[ExploreTask] = []
    while start < end:
        count = min(window, end - start)
        tasks.append(
            ExploreTask(
                **{
                    **asdict(task),
                    "episode_start": start,
                    "episode_count": count,
                    "delay_menu": tuple(task.delay_menu),
                }
            )
        )
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
    report = ExplorationReport(config=task.to_config())
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
            if len(report.failures) < task.max_failures:
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
