"""The exploration engine end to end: episodes, shrinking, parallelism.

Integration layer of the exploration stack: real counters (and the
known-broken mutants) are driven through real schedules.  The key
contracts pinned here are *determinism* (same configuration, same
episodes → identical reports), *bug-finding power* (the stale-read
mutant is caught and shrunk to a ≤30-decision witness that replays),
and *parallel faithfulness* (windowed fan-out concatenates to exactly
the serial exploration).
"""

from __future__ import annotations

import pytest

from repro.errors import CapabilityError, ConfigurationError
from repro.explore import (
    BaselineStrategy,
    ExploreConfig,
    Explorer,
    ExploreRunner,
    ExploreTask,
    GuidedStrategy,
    PermutationStrategy,
    RandomWalkStrategy,
    ReplayStrategy,
    build_mutant,
    execute_task,
    is_mutant_spec,
    make_strategy,
    merge_outcomes,
    parse_plan,
    partition,
    replay_repro,
    reproduces,
)
from repro.explore.controller import ScheduleController
from repro.sim.network import Network
from repro.sim.processor import InertProcessor
from repro.sim.transport import ReliableTransport

pytestmark = pytest.mark.explore

MUTANT = "mutant[stale-central]"


def _report(counter=MUTANT, **kwargs):
    kwargs.setdefault("n", 6)
    kwargs.setdefault("seed", 3)
    kwargs.setdefault("strategy", "random")
    kwargs.setdefault("budget", 25)
    return Explorer(ExploreConfig(counter=counter, **kwargs)).run()


def _fingerprint(report):
    return (
        report.episodes,
        report.decisions,
        report.verdict_counts,
        [(r.episode, r.oracle, r.decisions) for r in report.failures],
    )


class TestPlanGrammar:
    def test_single_leg_gets_the_default_budget(self):
        plan = parse_plan("random", 40, seed=0)
        assert len(plan) == 1
        strategy, budget = plan[0]
        assert isinstance(strategy, RandomWalkStrategy) and budget == 40

    def test_mixed_plan_with_budgets_and_params(self):
        plan = parse_plan("random:10,permute:5,guided:20?base=4", 99, seed=1)
        names = [(s.name, b) for s, b in plan]
        assert names == [("random", 10), ("permute", 5), ("guided", 20)]
        assert isinstance(plan[2][0], GuidedStrategy)

    @pytest.mark.parametrize(
        "text,match",
        [
            ("", "empty strategy plan"),
            ("random,,guided", "empty leg"),
            ("warp:10", "unknown strategy"),
            ("random:many", "malformed budget"),
            ("random:0", "non-positive budget"),
            ("guided?base", "malformed strategy parameter"),
            ("guided?base=hot", "must be numeric"),
            ("guided?retries=3", "rejects parameters"),
            ("baseline?x=1", "takes no parameters"),
        ],
    )
    def test_malformed_plans_are_configuration_errors(self, text, match):
        with pytest.raises(ConfigurationError, match=match):
            parse_plan(text, 10, seed=0)

    def test_guided_base_must_exceed_one(self):
        with pytest.raises(ConfigurationError, match="exceed 1"):
            make_strategy("guided", seed=0, base=1.0)


class TestControllerRecording:
    def test_decisions_are_recorded_in_consumption_order(self):
        controller = ScheduleController(RandomWalkStrategy(seed=5), (1.0, 2.0))
        network = Network(policy=controller)
        network.register_all([InertProcessor(pid) for pid in (1, 2, 3)])
        controller.attach(network)
        for index in range(6):
            network.send((index % 3) + 1, ((index + 1) % 3) + 1, "m", {})
        network.run_until_quiescent()
        recorded = controller.recorded
        assert len(recorded) >= 6  # one delay decision per send, + ties
        assert all(d >= 0 for d in recorded.decisions)
        assert set(recorded.kinds) <= {"delay", "tie"}

    def test_replay_of_recorded_decisions_is_identical(self):
        def run(strategy):
            controller = ScheduleController(strategy, (1.0, 2.0, 4.0))
            network = Network(policy=controller)
            network.register_all([InertProcessor(pid) for pid in (1, 2)])
            controller.attach(network)
            for _ in range(5):
                network.send(1, 2, "m", {})
                network.send(2, 1, "m", {})
            network.run_until_quiescent()
            return controller.recorded, network.trace.records

        strategy = RandomWalkStrategy(seed=9)
        strategy.begin_episode(4)
        recorded, trace = run(strategy)
        replayed, trace2 = run(ReplayStrategy(recorded.decisions))
        assert replayed.decisions == recorded.decisions
        assert trace == trace2

    def test_baseline_strategy_records_all_zeros(self):
        controller = ScheduleController(BaselineStrategy(), (1.0, 2.0))
        network = Network(policy=controller)
        network.register_all([InertProcessor(pid) for pid in (1, 2)])
        controller.attach(network)
        network.send(1, 2, "m", {})
        network.run_until_quiescent()
        assert controller.recorded.nonzero_count() == 0


class TestDeterminism:
    def test_same_config_same_report(self):
        first = _report(strategy="random:8,guided:8", budget=8)
        second = _report(strategy="random:8,guided:8", budget=8)
        assert _fingerprint(first) == _fingerprint(second)

    def test_different_seeds_explore_different_schedules(self):
        clean = ExploreConfig(counter="central", n=6, budget=10)
        first = Explorer(clean).run()
        second = Explorer(
            ExploreConfig(counter="central", n=6, budget=10, seed=1)
        ).run()
        assert first.decisions != second.decisions

    def test_permutation_episode_zero_is_the_baseline(self):
        strategy = PermutationStrategy(seed=7)
        strategy.begin_episode(0)
        assert [strategy._deal(4) for _ in range(8)] == [0, 1, 2, 3] * 2

    def test_clean_counters_survive_exploration(self):
        for spec in ("central", "combining-tree", "static-tree"):
            report = _report(counter=spec, n=6, strategy="random:6,guided:6")
            assert report.ok, f"{spec}: {report.failures}"


class TestMutantCatching:
    def test_stale_read_mutant_is_caught_and_shrunk(self):
        report = _report()
        assert not report.ok
        first = report.failures[0]
        assert first.oracle in ("linearizability", "no-lost-increment")
        # Acceptance bar: the shrunk witness is small and non-trivial.
        assert 0 < len(first.decisions) <= 30

    def test_shrunk_repro_replays_to_the_same_failure(self):
        report = _report()
        repro = report.failures[0]
        assert reproduces(repro)
        outcome = replay_repro(repro)
        assert outcome.failure is not None
        assert outcome.failure.oracle == repro.oracle

    def test_cached_read_mutant_fails_the_hot_spot_oracle(self):
        report = _report(
            counter="mutant[cached-central]",
            workload="sequential",
            rounds=2,
            budget=3,
        )
        assert not report.ok
        assert any(r.oracle == "hot-spot" for r in report.failures)

    def test_max_failures_stops_the_exploration_early(self):
        report = _report(max_failures=2)
        assert len(report.failures) == 2
        assert report.episodes < 25

    def test_no_shrink_keeps_the_raw_schedule(self):
        report = _report(shrink=False, max_failures=1)
        raw = report.failures[0]
        shrunk = _report(shrink=True, max_failures=1).failures[0]
        assert len(shrunk.decisions) <= len(raw.decisions)


class TestGates:
    def test_unknown_workload_is_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown exploration workload"):
            Explorer(ExploreConfig(counter="central", workload="bursty"))

    def test_sequential_only_counters_refuse_staggered(self):
        with pytest.raises(CapabilityError, match="sequential-only"):
            Explorer(ExploreConfig(counter="arrow", n=4))

    def test_sequential_only_counters_explore_sequentially(self):
        report = _report(
            counter="arrow", n=4, workload="sequential", budget=3
        )
        assert report.ok

    def test_mutants_refuse_fault_plans(self):
        with pytest.raises(ConfigurationError, match="explored bare"):
            Explorer(ExploreConfig(counter=MUTANT, faults="drop=0.1"))

    def test_mutants_refuse_reliable_transport(self):
        with pytest.raises(ConfigurationError, match="explored bare"):
            Explorer(ExploreConfig(counter=MUTANT, transport="reliable"))

    def test_malformed_plan_fails_at_construction(self):
        with pytest.raises(ConfigurationError):
            Explorer(ExploreConfig(counter="central", strategy="warp"))

    def test_is_mutant_spec_vocabulary(self):
        assert is_mutant_spec(MUTANT)
        assert not is_mutant_spec("central")
        # An unknown mutant name is not a mutant spec, so it falls
        # through to the registry — which rejects it as an unknown
        # counter at construction time.
        assert not is_mutant_spec("mutant[quantum]")
        with pytest.raises(ConfigurationError):
            Explorer(ExploreConfig(counter="mutant[quantum]"))
        with pytest.raises(ConfigurationError, match="unknown mutant"):
            build_mutant("mutant[quantum]", Network(), 4)


@pytest.mark.faults
class TestFaultyExploration:
    def test_standby_survives_exploration_around_a_crash(self):
        report = _report(
            counter="central[standby]",
            n=6,
            faults="crash=1@t18",
            strategy="random:5,guided:5",
            budget=5,
        )
        assert report.ok

    def test_bypass_tree_survives_exploration_around_a_crash(self):
        report = _report(
            counter="combining-tree[bypass]",
            n=6,
            faults="crash=2@t10",
            strategy="random:4",
            budget=4,
        )
        assert report.ok


@pytest.mark.faults
class TestWitnessAssembly:
    """A Byzantine-witness episode skips only the session's gates: it
    gets the configured transport and, with crash rules, recovery."""

    @staticmethod
    def _build(counter, faults):
        config = ExploreConfig(
            counter=counter,
            n=4,
            seed=3,
            transport="reliable",
            workload="sequential",
            faults=faults,
        )
        controller = ScheduleController(BaselineStrategy(), config.delay_menu)
        return Explorer(config)._build(controller)

    @pytest.mark.parametrize("counter", ["byz-counter", "central"])
    def test_a_witness_runs_behind_the_reliable_transport(self, counter):
        built, _, _, _, byz, _ = self._build(counter, "byz=1@corrupt")
        assert byz
        assert isinstance(built.network, ReliableTransport)

    def test_a_witness_with_crash_rules_starts_recovery(self):
        # The recovery manager's first heartbeat is queued at build time.
        for faults in ("crash=2@t5-t50", "byz=1@corrupt,crash=2@t5-t50"):
            _, network, *_ = self._build("central[standby]", faults)
            assert not network.is_quiescent(), faults


class TestParallelFaithfulness:
    # A clean counter: no failures, so no max_failures early stop and
    # windowed explorations must match the serial one *exactly*.
    TASK = ExploreTask(
        ExploreConfig(
            counter="central", n=6, seed=3, strategy="random:12,guided:8"
        )
    )

    def test_partition_is_worker_count_independent(self):
        windows = partition(self.TASK, window=6)
        assert [(t.episode_start, t.episode_count) for t in windows] == [
            (0, 6), (6, 6), (12, 6), (18, 2),
        ]

    def test_windowed_runs_concatenate_to_the_serial_run(self):
        serial = Explorer(self.TASK.config).run()
        windowed = merge_outcomes(
            self.TASK, [execute_task(t) for t in partition(self.TASK, 6)]
        )
        assert _fingerprint(windowed) == _fingerprint(serial)

    def test_windowing_preserves_the_serial_failure_set(self):
        # With a failing counter the serial run stops early at
        # max_failures, so windowed runs explore *more* episodes — but
        # the reported failures must be exactly the serial ones.
        task = ExploreTask(
            ExploreConfig(
                counter=MUTANT, n=6, seed=3, strategy="random", budget=20
            )
        )
        serial = Explorer(task.config).run()
        windowed = merge_outcomes(
            task, [execute_task(t) for t in partition(task, 6)]
        )
        assert windowed.failures == serial.failures
        assert windowed.episodes >= serial.episodes

    def test_parallel_workers_match_serial(self):
        serial = ExploreRunner(workers=1).explore(self.TASK, window=5)
        parallel = ExploreRunner(workers=4).explore(self.TASK, window=5)
        assert _fingerprint(parallel) == _fingerprint(serial)

    def test_cache_round_trip_and_reuse(self, tmp_path):
        runner = ExploreRunner(workers=1, cache_dir=tmp_path)
        first = runner.explore(self.TASK, window=10)
        assert list(tmp_path.glob("*.json"))
        # Second run must come entirely from cache — and corrupting one
        # entry must force a recompute, not a crash.
        again = runner.explore(self.TASK, window=10)
        assert _fingerprint(again) == _fingerprint(first)
        victim = next(iter(tmp_path.glob("*.json")))
        victim.write_text("{not json")
        healed = runner.explore(self.TASK, window=10)
        assert _fingerprint(healed) == _fingerprint(first)

    def test_config_hash_canonicalizes_spellings(self):
        def task(counter):
            return ExploreTask(ExploreConfig(counter=counter, n=6))

        verbose = task("combining-tree[bypass]?arity=2")
        plain = task("combining-tree[bypass]")
        assert verbose.config_hash() == plain.config_hash()
        assert plain.config_hash() != task("central").config_hash()

    def test_invalid_worker_and_window_counts(self):
        with pytest.raises(ConfigurationError, match="workers"):
            ExploreRunner(workers=0)
        with pytest.raises(ConfigurationError, match="window"):
            partition(self.TASK, window=0)
