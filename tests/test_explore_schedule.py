"""Schedules as data: decision streams, repro files, delta-shrinking.

Unit layer of the exploration stack — no episodes are run here; these
tests pin the data contracts (any non-negative integer list is a legal
schedule, decision 0 is the baseline, repro files round-trip through
JSON byte-stably) that the engine and corpus tests build on.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.explore import (
    DEFAULT_DELAY_MENU,
    REPRO_SCHEMA,
    ExploreConfig,
    ReproFile,
    Schedule,
    shrink_schedule,
)

pytestmark = pytest.mark.explore


class TestSchedule:
    def test_rejects_negative_decisions(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            Schedule(decisions=(1, -2))

    def test_kinds_must_align_with_decisions(self):
        with pytest.raises(ConfigurationError, match="equal length"):
            Schedule(decisions=(1, 2), kinds=("delay",))

    def test_trimmed_drops_trailing_zeros_only(self):
        schedule = Schedule(decisions=(0, 3, 0, 1, 0, 0))
        assert schedule.trimmed().decisions == (0, 3, 0, 1)
        assert Schedule(decisions=(0, 0)).trimmed().decisions == ()

    def test_nonzero_count_measures_deviation_from_baseline(self):
        assert Schedule(decisions=(0, 3, 0, 1)).nonzero_count() == 2
        assert Schedule().nonzero_count() == 0

    def test_len_is_the_decision_count(self):
        assert len(Schedule(decisions=(1, 2, 3))) == 3


class TestReproFile:
    REPRO = ReproFile(
        config=ExploreConfig(counter="mutant[stale-central]", n=6, seed=3),
        oracle="linearizability",
        decisions=(0, 0, 3),
        message="values not unique",
        strategy="random",
        episode=2,
    )

    def test_json_round_trip_is_identity(self):
        assert ReproFile.from_json(self.REPRO.to_json()) == self.REPRO

    def test_save_load_round_trip(self, tmp_path):
        path = self.REPRO.save(tmp_path / "witness.json")
        assert ReproFile.load(path) == self.REPRO

    def test_saved_form_is_stable_pretty_json(self, tmp_path):
        path = self.REPRO.save(tmp_path / "witness.json")
        text = path.read_text()
        assert text.endswith("\n")
        payload = json.loads(text)
        assert payload["schema"] == REPRO_SCHEMA
        assert payload["failure"]["oracle"] == "linearizability"
        assert payload["provenance"] == {"strategy": "random", "episode": 2}
        # Re-saving produces byte-identical output (diff-friendly corpus).
        again = self.REPRO.save(tmp_path / "witness2.json")
        assert again.read_text() == text

    def test_unknown_schema_is_rejected(self):
        payload = self.REPRO.to_json()
        payload["schema"] = "explore-repro-v999"
        with pytest.raises(ConfigurationError, match="unsupported repro schema"):
            ReproFile.from_json(payload)

    def test_defaults_fill_omitted_fields(self):
        payload = {
            "schema": REPRO_SCHEMA,
            "counter": "central",
            "n": 4,
            "seed": 0,
            "decisions": [1],
            "failure": {"oracle": "runtime"},
        }
        repro = ReproFile.from_json(payload)
        assert repro.config.transport == "bare"
        assert repro.config.workload == "staggered"
        assert repro.config.delay_menu == DEFAULT_DELAY_MENU


class TestShrinkSchedule:
    def test_single_culprit_shrinks_to_one_decision(self):
        # Failure iff decision 7 (index 7) is non-zero: everything else
        # must be zeroed away and the trailing tail trimmed.
        def still_fails(decisions):
            return len(decisions) > 7 and decisions[7] != 0

        shrunk = shrink_schedule([2, 1, 3, 1, 2, 1, 3, 2, 1, 1], still_fails)
        assert shrunk.decisions == (0, 0, 0, 0, 0, 0, 0, 2)
        assert shrunk.nonzero_count() == 1

    def test_two_interacting_culprits_both_survive(self):
        def still_fails(decisions):
            padded = list(decisions) + [0, 0, 0, 0, 0, 0]
            return padded[1] != 0 and padded[5] != 0

        shrunk = shrink_schedule([3, 2, 3, 3, 3, 1, 3, 3], still_fails)
        assert shrunk.decisions[1] != 0 and shrunk.decisions[5] != 0
        assert shrunk.nonzero_count() == 2

    def test_baseline_failure_shrinks_to_empty(self):
        shrunk = shrink_schedule([1, 2, 3], lambda decisions: True)
        assert shrunk.decisions == ()

    def test_shrinking_never_relies_on_deletion(self):
        # Position matters (decision alignment): the shrinker zeroes
        # windows but must never shift later decisions earlier.
        def still_fails(decisions):
            return len(decisions) > 4 and decisions[4] == 9

        shrunk = shrink_schedule([1, 1, 1, 1, 9, 1, 1], still_fails)
        assert shrunk.decisions == (0, 0, 0, 0, 9)

    def test_evaluation_budget_is_respected(self):
        calls = []

        def still_fails(decisions):
            calls.append(1)
            return True

        shrink_schedule(list(range(1, 65)), still_fails, max_evals=10)
        assert len(calls) <= 10

    def test_result_is_trimmed_even_when_nothing_shrinks(self):
        def still_fails(decisions):
            # Only the exact original (zero-padded) fails: no window can
            # be zeroed.
            return list(decisions[:3]) == [1, 2, 3]

        shrunk = shrink_schedule([1, 2, 3, 0, 0], still_fails)
        assert shrunk.decisions == (1, 2, 3)
