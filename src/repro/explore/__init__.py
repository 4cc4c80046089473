"""Schedule exploration: adversarial interleaving search with oracles.

The paper's lower bound is an *adversary argument over schedules* — the
proof wins by choosing message timings.  This package turns that
viewpoint into correctness tooling: it seizes the simulator's two
scheduling freedoms (per-message delays, equal-time tie-breaks), drives
a counter through many controlled interleavings, judges every execution
with the invariant-oracle suite (:mod:`repro.analysis.oracles`), and
delta-shrinks any failure into a minimal, replayable repro file.

Layers:

* :mod:`~repro.explore.schedule` — schedules as decision streams;
  :class:`ReproFile` witnesses.
* :mod:`~repro.explore.controller` — the
  :class:`~repro.sim.policies.DeliveryPolicy` +
  :class:`~repro.sim.events.SchedulerHook` adapter recording decisions.
* :mod:`~repro.explore.strategies` — random walks, delay-order
  permutation sampling, weight-guided contention steering, replay.
* :mod:`~repro.explore.engine` — episodes, oracle judging, shrinking.
* :mod:`~repro.explore.parallel` — windowed fan-out + on-disk cache
  (the :class:`~repro.workloads.sweep.SweepRunner` pattern).
* :mod:`~repro.explore.mutants` — known-broken counters validating the
  pipeline end to end (never registered in the public registry).
"""

from repro.explore.controller import ScheduleController
from repro.explore.engine import (
    EXPLORE_WORKLOADS,
    EpisodeOutcome,
    ExplorationReport,
    Explorer,
    explorer_for_repro,
    replay_repro,
    reproduces,
)
from repro.explore.mutants import (
    MUTANT_FACTORIES,
    build_mutant,
    is_mutant_spec,
)
from repro.explore.parallel import (
    ExploreRunner,
    ExploreTask,
    ExploreTaskOutcome,
    execute_task,
    merge_outcomes,
    partition,
)
from repro.explore.schedule import (
    DEFAULT_DELAY_MENU,
    REPRO_SCHEMA,
    ExploreConfig,
    ReproFile,
    Schedule,
)
from repro.explore.shrink import shrink_schedule
from repro.explore.strategies import (
    STRATEGY_NAMES,
    BaselineStrategy,
    GuidedStrategy,
    PermutationStrategy,
    RandomWalkStrategy,
    ReplayStrategy,
    Strategy,
    make_strategy,
    parse_plan,
)

__all__ = [
    "BaselineStrategy",
    "DEFAULT_DELAY_MENU",
    "EXPLORE_WORKLOADS",
    "EpisodeOutcome",
    "ExplorationReport",
    "ExploreConfig",
    "ExploreRunner",
    "ExploreTask",
    "ExploreTaskOutcome",
    "Explorer",
    "GuidedStrategy",
    "MUTANT_FACTORIES",
    "PermutationStrategy",
    "REPRO_SCHEMA",
    "RandomWalkStrategy",
    "ReplayStrategy",
    "ReproFile",
    "STRATEGY_NAMES",
    "Schedule",
    "ScheduleController",
    "Strategy",
    "build_mutant",
    "execute_task",
    "explorer_for_repro",
    "is_mutant_spec",
    "make_strategy",
    "merge_outcomes",
    "parse_plan",
    "partition",
    "replay_repro",
    "reproduces",
    "shrink_schedule",
]
