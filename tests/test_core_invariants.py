"""Tests for the §4 lemma checkers — both that they pass on correct runs
and that they catch deliberately broken configurations."""

from __future__ import annotations

import pytest

from repro.core import IntervalMode, TreeCounter, TreeGeometry, TreePolicy
from repro.core.invariants import (
    check_all,
    check_bottleneck_theorem,
    check_leaf_work,
    check_number_of_retirements,
    check_retirement_lemma,
    check_tenure_bound,
    pure_leaves,
    require_all,
)
from repro.errors import InvariantViolationError
from repro.sim.network import Network
from repro.sim.policies import RandomDelay
from repro.workloads import one_shot, run_sequence, shuffled


def _run(n, policy=None, delivery=None, order=None):
    network = Network(policy=delivery)
    counter = TreeCounter(network, n, policy=policy)
    result = run_sequence(counter, order if order is not None else one_shot(n))
    return counter, result


class TestLemmasHoldOnPaperRuns:
    @pytest.mark.parametrize("n", [8, 81, 1024])
    def test_all_lemmas_hold(self, n):
        counter, result = _run(n)
        reports = check_all(counter, result)
        assert len(reports) == 5
        failing = [r for r in reports if not r.holds]
        assert not failing, failing

    def test_require_all_passes(self):
        counter, result = _run(81)
        require_all(counter, result)  # must not raise

    @pytest.mark.parametrize("seed", [0, 7])
    def test_lemmas_hold_under_shuffled_order(self, seed):
        counter, result = _run(81, order=shuffled(81, seed=seed))
        require_all(counter, result)

    def test_lemmas_hold_under_random_delivery(self):
        counter, result = _run(81, delivery=RandomDelay(seed=2))
        require_all(counter, result)


class TestRetirementLemma:
    def test_passes_on_paper_policy(self):
        counter, _ = _run(81)
        assert check_retirement_lemma(counter).holds

    def test_catches_double_retirement_with_supercritical_threshold(self):
        # A retirement distributes arity+1 age points to neighbours and a
        # threshold <= arity+1 consumes at most that many per retirement,
        # so retirements multiply: nodes retire repeatedly within one
        # operation (and the cascade eventually trips the event limit).
        # Both facets are asserted: the lemma checker flags the partial
        # log, and the run itself explodes.
        from repro.errors import SimulationLimitError

        network = Network(event_limit=20_000)
        geometry = TreeGeometry.paper_shape(2)
        policy = TreePolicy(retire_threshold=2, interval_mode=IntervalMode.WRAP)
        counter = TreeCounter(network, 8, geometry=geometry, policy=policy)
        with pytest.raises(SimulationLimitError):
            run_sequence(counter, one_shot(8))
        report = check_retirement_lemma(counter)
        assert not report.holds
        with pytest.raises(InvariantViolationError):
            report.require()


class TestTenureBound:
    def test_ages_at_retirement_near_threshold(self):
        counter, _ = _run(81)
        assert check_tenure_bound(counter).holds

    def test_never_retire_policy_is_trivially_fine(self):
        counter, result = _run(8, policy=TreePolicy.never_retire())
        report = check_tenure_bound(counter)
        assert report.holds
        assert "disabled" in report.detail


class TestNumberOfRetirements:
    def test_within_interval_budgets(self):
        counter, _ = _run(1024)
        assert check_number_of_retirements(counter).holds

    def test_wrap_mode_overrun_detected(self):
        # Threshold 5 is subcritical (no cascade explosion at arity 2)
        # but still aggressive enough that width-1 bottom intervals are
        # overrun in wrap mode; the checker must notice.
        network = Network()
        geometry = TreeGeometry.paper_shape(2)
        policy = TreePolicy(retire_threshold=5, interval_mode=IntervalMode.WRAP)
        counter = TreeCounter(network, 8, geometry=geometry, policy=policy)
        run_sequence(counter, one_shot(8))
        report = check_number_of_retirements(counter)
        assert not report.holds


class TestLeafWork:
    def test_pure_leaves_exist_and_are_lightly_loaded(self):
        counter, result = _run(1024)
        leaves = pure_leaves(counter)
        assert leaves  # most processors never do inner work
        assert check_leaf_work(counter, result).holds

    def test_pure_leaves_excludes_initial_workers(self):
        counter, _ = _run(8)
        leaves = pure_leaves(counter)
        for role in counter.registry.all_roles():
            assert counter.geometry.initial_worker(role.node) not in leaves


class TestBottleneckTheorem:
    def test_holds_with_default_constant(self):
        counter, result = _run(1024)
        assert check_bottleneck_theorem(counter, result).holds

    def test_fails_with_unreasonable_constant(self):
        counter, result = _run(81)
        report = check_bottleneck_theorem(counter, result, constant=0.5)
        assert not report.holds

    def test_static_tree_fails_the_theorem(self):
        # Without retirement the bound is genuinely broken at k=3 — the
        # checker is not a tautology.
        counter, result = _run(81, policy=TreePolicy.never_retire())
        report = check_bottleneck_theorem(counter, result)
        assert not report.holds
