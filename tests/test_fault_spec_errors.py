"""Fault-spec parser error paths and canonical round-trips.

The fault-spec grammar is the naming layer every other subsystem leans
on (CLI flags, sweep cache keys, exploration repro files), so malformed
strings must die loudly at parse time with
:class:`~repro.errors.ConfigurationError` — never as a ValueError deep
inside a run — and every canonical spelling must survive a
parse → spec → parse round trip unchanged.
"""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigurationError
from repro.sim.faults import (
    CrashRule,
    PartitionRule,
    canonical_fault_spec,
    parse_fault_spec,
)

pytestmark = pytest.mark.faults


def _rejects(spec, match):
    with pytest.raises(ConfigurationError, match=match):
        parse_fault_spec(spec)


class TestMalformedSpecs:
    def test_empty_and_whitespace_specs(self):
        _rejects("", "empty fault spec")
        _rejects("   ", "empty fault spec")

    @pytest.mark.parametrize("spec", ["drop", "=0.1", "drop=", "drop=0.1,,"])
    def test_fields_need_key_equals_value(self, spec):
        _rejects(spec, "expected key=value")

    def test_unknown_field_lists_the_vocabulary(self):
        _rejects("lose=0.1", "unknown fault spec field 'lose'")

    def test_unknown_field_names_every_accepted_field(self):
        with pytest.raises(ConfigurationError) as excinfo:
            parse_fault_spec("lose=0.1")
        listed = str(excinfo.value).partition("expected one of ")[2]
        assert listed.split(", ") == [
            "drop", "dup", "reorder", "partition", "crash", "byz", "recover"
        ]

    def test_duplicate_probability_fields(self):
        _rejects("drop=0.1,drop=0.2", "duplicate fault spec field 'drop'")

    def test_non_numeric_probability(self):
        _rejects("drop=lots", "expects a number")

    def test_out_of_range_probability(self):
        _rejects("drop=1.5", r"probability must be in \[0, 1\]")

    def test_dup_bad_copy_count(self):
        _rejects("dup=0.1xmany", "bad copy count")

    def test_crash_requires_a_window(self):
        _rejects("crash=3", "needs a window")

    def test_crash_bad_pid(self):
        _rejects("crash=primary@t10", "bad processor id")

    def test_crash_window_needs_t_prefix(self):
        _rejects("crash=3@10", "expects a window like 't50'")
        _rejects("crash=3@t10-80", "window end must look like 't80'")

    def test_crash_window_must_be_ordered(self):
        _rejects("crash=3@t50-t20", "start < end")


class TestMalformedRecoverSpecs:
    def test_recover_bad_pid(self):
        _rejects("crash=x@t10,recover=x@t90", "bad processor id")
        _rejects("crash=3@t10,recover=three@t90", "bad processor id")

    def test_recover_needs_a_time(self):
        _rejects("crash=3@t10,recover=3", "needs a time")
        _rejects("crash=3@t10,recover=3@90", "needs a time")

    def test_recover_non_numeric_time(self):
        _rejects("crash=3@t10,recover=3@tlate", "expects a number")

    def test_recover_without_matching_crash(self):
        _rejects("recover=3@t90", "no matching")
        # A crash for a different pid does not satisfy the pairing.
        _rejects("crash=2@t10,recover=3@t90", "no matching")

    def test_recover_before_the_crash_starts(self):
        _rejects("crash=3@t50,recover=3@t40", "no matching")

    def test_duplicate_recover_for_one_pid(self):
        _rejects(
            "crash=3@t10,recover=3@t50,recover=3@t90",
            "duplicate recovery",
        )


class TestMalformedPartitionSpecs:
    def test_partition_needs_two_groups(self):
        _rejects("partition=1..4@t10-t50", "needs two groups")

    def test_partition_bad_range(self):
        _rejects("partition=a..4|5..8", "bad id range")

    def test_partition_empty_range(self):
        _rejects("partition=4..1|5..8", "empty id range")

    def test_partition_bad_id_list(self):
        _rejects("partition=1+two|5..8", "bad id list")

    def test_partition_groups_must_be_disjoint(self):
        _rejects("partition=1..4|4..8", "disjoint")

    def test_partition_window_must_be_ordered(self):
        _rejects("partition=1..4|5..8@t50-t10", "start < end")


@pytest.mark.byzantine
class TestMalformedByzantineSpecs:
    def test_byz_needs_a_strategy(self):
        _rejects("byz=1", "needs a strategy")
        _rejects("byz=1@", "needs a strategy")

    def test_byz_unknown_strategy_lists_the_vocabulary(self):
        _rejects(
            "byz=1@gossip",
            "unknown byzantine strategy 'gossip'.*corrupt.*equivocate"
            ".*silence.*mixed",
        )

    @pytest.mark.parametrize("budget", ["-1", "0"])
    def test_byz_budget_must_be_positive(self, budget):
        _rejects(f"byz={budget}@corrupt", "budget must be >= 1")

    def test_byz_budget_must_be_an_integer(self):
        _rejects("byz=many@corrupt", "bad budget")
        _rejects("byz=1.5@corrupt", "bad budget")

    def test_byz_budget_must_leave_honest_processors_at_bind(self):
        plan = parse_fault_spec("byz=4@corrupt")
        with pytest.raises(
            ConfigurationError, match="cannot compromise every client"
        ):
            plan.bind_clients(4)

    def test_unbound_byzantine_rule_fails_at_first_consult(self):
        from repro.sim.messages import Message

        plan = parse_fault_spec("byz=1@corrupt")
        message = Message(
            sender=1, receiver=2, kind="m", uid=0, send_time=0.0
        )
        with pytest.raises(ConfigurationError, match="bind_clients"):
            plan.consult(message, 0.0, 1.0)


class TestCanonicalRoundTrips:
    @pytest.mark.parametrize(
        "spec",
        [
            "drop=0.1",
            "dup=0.2x3",
            "reorder=0.1@25",
            "crash=3@t50",
            "crash=3@t50-t80",
            "partition=1..4|5..8@t10-t50",
            "partition=1+3+9|2+4@t10-t50",
            "drop=0.1,dup=0.05,reorder=0.02,crash=2@t40-t80,recover=2@t90",
            "byz=1@corrupt",
            "byz=2@equivocate",
            "byz=1@silence",
            "byz=3@mixed",
            "drop=0.1,crash=2@t40-t80,byz=1@mixed,recover=2@t90",
        ],
    )
    def test_canonical_specs_are_fixed_points(self, spec):
        assert canonical_fault_spec(spec) == spec
        assert canonical_fault_spec(canonical_fault_spec(spec)) == spec

    def test_field_order_is_canonicalized(self):
        shuffled = "crash=2@t40-t80,drop=0.1,recover=2@t90,dup=0.05"
        assert (
            canonical_fault_spec(shuffled)
            == "drop=0.1,dup=0.05,crash=2@t40-t80,recover=2@t90"
        )

    def test_whitespace_is_normalized(self):
        assert canonical_fault_spec(" drop=0.1 , crash=3@t50 ") == (
            "drop=0.1,crash=3@t50"
        )

    def test_recover_truncates_open_crash_windows(self):
        plan = parse_fault_spec("crash=3@t10,recover=3@t60")
        crash = next(r for r in plan.rules if isinstance(r, CrashRule))
        assert crash.end == 60.0
        assert "crash=3@t10-t60" in plan.spec

    def test_partition_defaults_to_an_unbounded_window(self):
        plan = parse_fault_spec("partition=1..2|3..4")
        rule = next(r for r in plan.rules if isinstance(r, PartitionRule))
        assert rule.start == 0.0 and rule.end == math.inf
