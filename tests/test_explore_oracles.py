"""The invariant-oracle suite, judged against synthetic executions.

Each oracle is fed hand-built :class:`OracleContext` evidence — timed
operations with known inversions, duplicate values, fabricated
retirement ledgers — so every pass/fail/skip branch is pinned without
running the exploration engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.analysis.linearizability import TimedOp
from repro.analysis.oracles import (
    HotSpotOracle,
    LinearizabilityOracle,
    NoLostIncrementOracle,
    OracleContext,
    OracleVerdict,
    RetirementMonotonicityOracle,
    RuntimeOracle,
    default_oracles,
    first_failure,
    run_oracles,
)
from repro.counters import CentralCounter
from repro.errors import SimulationLimitError
from repro.sim.network import Network
from repro.workloads import one_shot, run_sequence

pytestmark = pytest.mark.explore


def _op(index, value, start, end, pid=1):
    return TimedOp(
        op_index=index,
        initiator=pid,
        value=value,
        request_time=start,
        response_time=end,
    )


def _context(**kwargs):
    kwargs.setdefault("counter", object())
    return OracleContext(**kwargs)


class TestRuntimeOracle:
    def test_clean_run_passes(self):
        assert RuntimeOracle().check(_context()).ok

    def test_exception_fails_with_type_and_message(self):
        verdict = RuntimeOracle().check(
            _context(exception=SimulationLimitError("livelocked at 500000"))
        )
        assert verdict.failed
        assert "SimulationLimitError" in verdict.message
        assert "livelocked" in verdict.message


class TestLinearizabilityOracle:
    def test_skips_sequential_episodes(self):
        verdict = LinearizabilityOracle().check(_context(ops=None))
        assert verdict.skipped and not verdict.failed

    def test_skips_when_no_ops_completed(self):
        assert LinearizabilityOracle().check(_context(ops=[])).skipped

    def test_ordered_ops_pass(self):
        ops = [_op(0, 0, 0.0, 1.0), _op(1, 1, 2.0, 3.0)]
        assert LinearizabilityOracle().check(_context(ops=ops)).ok

    def test_real_time_inversion_fails(self):
        # Op finishing first got the *larger* value: order inverted.
        ops = [_op(0, 1, 0.0, 1.0), _op(1, 0, 2.0, 3.0)]
        verdict = LinearizabilityOracle().check(_context(ops=ops))
        assert verdict.failed

    def test_duplicate_values_fail_instead_of_raising(self):
        ops = [_op(0, 0, 0.0, 1.0), _op(1, 0, 2.0, 3.0)]
        verdict = LinearizabilityOracle().check(_context(ops=ops))
        assert verdict.failed
        assert "unique" in verdict.message


class TestHotSpotOracle:
    def test_skips_staggered_episodes(self):
        assert HotSpotOracle().check(_context(result=None)).skipped

    def test_passes_on_a_real_sequential_run(self):
        network = Network()
        counter = CentralCounter(network, 4)
        result = run_sequence(counter, one_shot(4))
        verdict = HotSpotOracle().check(_context(counter=counter, result=result))
        assert verdict.ok and not verdict.skipped

    def test_skips_single_operation_runs(self):
        network = Network()
        counter = CentralCounter(network, 1)
        result = run_sequence(counter, one_shot(1))
        verdict = HotSpotOracle().check(_context(counter=counter, result=result))
        assert verdict.skipped


class TestNoLostIncrementOracle:
    def test_dense_prefix_passes(self):
        ops = [_op(i, v, i * 2.0, i * 2.0 + 1) for i, v in enumerate((2, 0, 1))]
        assert NoLostIncrementOracle().check(_context(ops=ops)).ok

    def test_duplicates_always_fail(self):
        ops = [_op(0, 1, 0.0, 1.0), _op(1, 1, 2.0, 3.0)]
        for at_most_once in (False, True):
            verdict = NoLostIncrementOracle().check(
                _context(ops=ops, at_most_once=at_most_once)
            )
            assert verdict.failed
            assert "more than once" in verdict.message

    def test_gaps_fail_exactly_once_runs(self):
        ops = [_op(0, 0, 0.0, 1.0), _op(1, 5, 2.0, 3.0)]
        verdict = NoLostIncrementOracle().check(_context(ops=ops))
        assert verdict.failed
        assert "dense prefix" in verdict.message

    def test_gaps_are_legal_under_at_most_once(self):
        # A fault plan may burn values: {0, 5} is fine, duplicates not.
        ops = [_op(0, 0, 0.0, 1.0), _op(1, 5, 2.0, 3.0)]
        verdict = NoLostIncrementOracle().check(
            _context(ops=ops, at_most_once=True)
        )
        assert verdict.ok

    def test_skips_without_any_value_record(self):
        assert NoLostIncrementOracle().check(_context()).skipped


@dataclass
class _Retirement:
    node: int
    time: float
    age_at_retirement: int
    old_worker: int
    new_worker: int


class _LedgeredCounter:
    def __init__(self, events):
        self.retirements = list(events)


class TestRetirementMonotonicityOracle:
    def test_skips_counters_without_a_ledger(self):
        assert RetirementMonotonicityOracle().check(_context()).skipped

    def test_well_formed_ledger_passes(self):
        counter = _LedgeredCounter(
            [
                _Retirement(0, 1.0, 8, old_worker=1, new_worker=2),
                _Retirement(1, 4.0, 8, old_worker=3, new_worker=4),
            ]
        )
        assert RetirementMonotonicityOracle().check(
            _context(counter=counter)
        ).ok

    def test_time_going_backwards_fails(self):
        counter = _LedgeredCounter(
            [
                _Retirement(0, 5.0, 8, old_worker=1, new_worker=2),
                _Retirement(1, 3.0, 8, old_worker=3, new_worker=4),
            ]
        )
        verdict = RetirementMonotonicityOracle().check(_context(counter=counter))
        assert verdict.failed and "precedes" in verdict.message

    def test_negative_age_fails(self):
        counter = _LedgeredCounter(
            [_Retirement(0, 1.0, -1, old_worker=1, new_worker=2)]
        )
        verdict = RetirementMonotonicityOracle().check(_context(counter=counter))
        assert verdict.failed and "negative age" in verdict.message

    def test_self_retirement_fails(self):
        counter = _LedgeredCounter(
            [_Retirement(0, 1.0, 8, old_worker=2, new_worker=2)]
        )
        verdict = RetirementMonotonicityOracle().check(_context(counter=counter))
        assert verdict.failed and "role must move" in verdict.message


class TestSuitePlumbing:
    def test_default_suite_order_and_names(self):
        names = [oracle.name for oracle in default_oracles()]
        assert names == [
            "runtime",
            "linearizability",
            "hot-spot",
            "agreement",
            "validity",
            "no-lost-increment",
            "retirement-monotonicity",
        ]

    def test_run_oracles_reports_in_suite_order(self):
        verdicts = run_oracles(_context())
        assert [v.oracle for v in verdicts] == [
            oracle.name for oracle in default_oracles()
        ]

    def test_first_failure_skips_skipped_verdicts(self):
        verdicts = [
            OracleVerdict(oracle="a", ok=True, skipped=True),
            OracleVerdict(oracle="b", ok=True),
            OracleVerdict(oracle="c", ok=False, message="boom"),
            OracleVerdict(oracle="d", ok=False, message="later"),
        ]
        failure = first_failure(verdicts)
        assert failure is not None and failure.oracle == "c"
        assert first_failure(verdicts[:2]) is None
