"""Invariant oracles: pluggable pass/fail judges over explored executions.

The schedule explorer (:mod:`repro.explore`) drives a counter through
many interleavings; an *oracle* is one invariant checked after each
explored execution.  Oracles are deliberately thin adapters over the
existing analysis machinery — linearizability
(:func:`~repro.analysis.linearizability.check_linearizable_counting`),
the Hot Spot Lemma (:func:`~repro.lowerbound.hotspot.check_hot_spot`),
value accounting and retirement bookkeeping — so an oracle failure is
always attributable to a checker that is itself under test elsewhere.

Each oracle inspects an :class:`OracleContext` (everything one episode
produced) and returns an :class:`OracleVerdict`.  An oracle whose
precondition is absent — no timed operations for linearizability, no
sequential outcomes for Hot Spot, no retirement ledger — returns a
*skipped* verdict rather than vacuously passing, so exploration reports
show exactly which invariants were exercised.

Oracles never raise on invariant violations; they translate them into
failing verdicts the explorer can shrink and serialize.  Raising is
reserved for programming errors in the oracle itself.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

from repro.analysis.linearizability import TimedOp, check_linearizable_counting
from repro.api import DistributedCounter
from repro.errors import ProtocolError, ReproError
from repro.lowerbound.hotspot import check_hot_spot
from repro.workloads.driver import RunResult


@dataclass(frozen=True, slots=True)
class OracleVerdict:
    """One oracle's judgment of one explored execution.

    Attributes:
        oracle: the oracle's registered name.
        ok: the invariant held (meaningless when ``skipped``).
        skipped: the oracle's precondition was absent for this episode
            (e.g. Hot Spot needs sequential outcomes); a skipped verdict
            is neither a pass nor a failure.
        message: human-readable explanation — the violation for
            failures, the missing precondition for skips, empty on
            passes.
    """

    oracle: str
    ok: bool
    skipped: bool = False
    message: str = ""

    @property
    def failed(self) -> bool:
        """True iff the oracle ran and the invariant did not hold."""
        return not self.ok and not self.skipped


@dataclass(slots=True)
class OracleContext:
    """Everything one explored execution hands to the oracle suite.

    Attributes:
        counter: the driven counter (post-run protocol state).
        ops: timed operations from the staggered driver, or ``None``
            when the episode ran sequentially (or died before results).
        result: the sequential driver's :class:`RunResult`, or ``None``
            for staggered episodes.
        expected_ops: how many ``inc`` requests the workload injected.
        at_most_once: values may legitimately be *burned* (gaps allowed)
            — true under fault plans on at-most-once counters, where a
            crash can orphan a reserved value; the no-lost-increment
            oracle then requires uniqueness only.
        byzantine_pids: processors the fault plan made Byzantine; the
            agreement and validity oracles judge only *honest* evidence
            (a liar's view of its own results proves nothing).
        value_burning_faults: the fault plan contains non-Byzantine
            rules (crashes, message loss) that can orphan a reserved
            value — an honest value may then legitimately land at or
            above ``expected_ops``, so the validity bound (and the
            replica-count half of agreement) cannot be judged.
        exception: a :class:`~repro.errors.ReproError` the run itself
            raised (driver protocol check, event-limit livelock), or
            ``None`` for a clean run.
    """

    counter: DistributedCounter
    ops: Sequence[TimedOp] | None = None
    result: RunResult | None = None
    expected_ops: int = 0
    at_most_once: bool = False
    byzantine_pids: frozenset = frozenset()
    value_burning_faults: bool = False
    exception: ReproError | None = None

    def honest_outcomes(self) -> list[tuple[int, int]] | None:
        """``(initiator, value)`` pairs for non-Byzantine initiators."""
        byz = self.byzantine_pids
        if self.ops is not None:
            return [
                (op.initiator, op.value)
                for op in self.ops
                if op.initiator not in byz
            ]
        if self.result is not None:
            return [
                (o.initiator, o.value)
                for o in self.result.outcomes
                if o.initiator not in byz
            ]
        return None

    def values(self) -> list[int] | None:
        """Returned values in op order from whichever driver ran."""
        if self.ops is not None:
            return [op.value for op in self.ops]
        if self.result is not None:
            return self.result.values()
        return None


class Oracle(ABC):
    """One invariant, checkable against any explored execution.

    Subclasses set :attr:`name` (stable — it is serialized into repro
    files and matched on replay) and implement :meth:`check`.
    """

    name: str = "oracle"

    @abstractmethod
    def check(self, context: OracleContext) -> OracleVerdict:
        """Judge one execution; never raises on invariant violations."""

    # Shorthand constructors keep the oracle bodies declarative.
    def _pass(self) -> OracleVerdict:
        return OracleVerdict(oracle=self.name, ok=True)

    def _fail(self, message: str) -> OracleVerdict:
        return OracleVerdict(oracle=self.name, ok=False, message=message)

    def _skip(self, message: str) -> OracleVerdict:
        return OracleVerdict(oracle=self.name, ok=True, skipped=True, message=message)


class RuntimeOracle(Oracle):
    """The run itself must complete: no driver protocol error, no livelock.

    Any :class:`~repro.errors.ReproError` the episode raised mid-run — a
    processor missing a result, a duplicate delivery tripping protocol
    asserts, the event-limit safety valve — is a schedule-induced
    failure in its own right, attributed here so the other oracles can
    still report on whatever partial evidence exists.
    """

    name = "runtime"

    def check(self, context: OracleContext) -> OracleVerdict:
        if context.exception is None:
            return self._pass()
        return self._fail(
            f"{type(context.exception).__name__}: {context.exception}"
        )


class LinearizabilityOracle(Oracle):
    """Value order must extend real-time precedence (HSW linearizability).

    Needs timed operations (the staggered driver); duplicate returned
    values — which make the run not a counting run at all — are reported
    as a failure here rather than propagated as the checker's
    :class:`~repro.errors.ProtocolError`.
    """

    name = "linearizability"

    def check(self, context: OracleContext) -> OracleVerdict:
        if context.ops is None:
            return self._skip("needs timed operations (staggered episodes)")
        if not context.ops:
            return self._skip("no completed operations to order")
        try:
            report = check_linearizable_counting(context.ops)
        except ProtocolError as error:
            return self._fail(str(error))
        if report.linearizable:
            return self._pass()
        return self._fail(str(report.inversions[0]))


class HotSpotOracle(Oracle):
    """Successive sequential operations must have intersecting footprints.

    The Hot Spot Lemma (§2) is stated for operations that run in direct
    succession, so this oracle only fires on sequential episodes with
    footprint-keeping traces; staggered episodes skip it.
    """

    name = "hot-spot"

    def check(self, context: OracleContext) -> OracleVerdict:
        result = context.result
        if result is None:
            return self._skip("needs sequential outcomes (Hot Spot is a §2 lemma)")
        if len(result.outcomes) < 2:
            return self._skip("needs at least two successive operations")
        if not result.trace.keeps_loads:
            return self._skip("needs footprint-keeping tracing")
        report = check_hot_spot(result)
        if report.holds:
            return self._pass()
        return self._fail(str(report.violations[0]))


class AgreementOracle(Oracle):
    """No two honest operations receive the same value; replicas concur.

    The agreement half of Byzantine counting correctness (the other
    half is :class:`ValidityOracle`): two *honest* clients holding the
    same counter value means the adversary split the system's view of
    the count.  Byzantine initiators' own results are ignored — a liar
    vouching for itself is not evidence.  Counters exposing
    ``replica_counts()`` (the replicated phase-king family) are
    additionally required to leave every honest replica with the same
    final count.
    """

    name = "agreement"

    def check(self, context: OracleContext) -> OracleVerdict:
        honest = context.honest_outcomes()
        if honest is None:
            return self._skip("run produced no value record")
        values = [value for _, value in honest]
        duplicates = sorted(
            value for value in set(values) if values.count(value) > 1
        )
        if duplicates:
            holders = {
                value: sorted(pid for pid, v in honest if v == value)
                for value in duplicates
            }
            return self._fail(
                f"honest processors disagree: value(s) {duplicates} "
                f"handed to multiple honest initiators ({holders})"
            )
        replica_counts = getattr(context.counter, "replica_counts", None)
        if replica_counts is not None and not context.value_burning_faults:
            counts = {
                pid: count
                for pid, count in replica_counts().items()
                if pid not in context.byzantine_pids
            }
            if len(set(counts.values())) > 1:
                return self._fail(
                    f"honest replicas ended with diverging counts: {counts}"
                )
        return self._pass()


class ValidityOracle(Oracle):
    """Every honest value lies in ``[0, expected_ops + byzantine incs)``.

    The validity half of Byzantine counting correctness: no honest
    client may be handed a value the workload did not earn — a negative
    or too-large value is one the adversary *invented*.  The subtlety
    is the upper bound: a Byzantine processor is a legitimate client,
    and its corrupted requests can commit as extra increments *by it*
    (indistinguishable, to honest replicas, from incs it chose to
    perform).  Counters exposing ``commit_origins()`` therefore raise
    the bound by the commits honest replicas attribute to Byzantine
    origins; for everything else the bound stays ``expected_ops``.
    Skipped under crash/loss rules
    (:attr:`OracleContext.value_burning_faults`): an orphaned combine
    burns values honestly, which is indistinguishable from invention.
    """

    name = "validity"

    def check(self, context: OracleContext) -> OracleVerdict:
        honest = context.honest_outcomes()
        if honest is None:
            return self._skip("run produced no value record")
        if context.expected_ops <= 0:
            return self._skip("workload size unknown (expected_ops unset)")
        if context.value_burning_faults:
            return self._skip(
                "crash/loss rules can burn reserved values, so the "
                "upper bound is not judgeable"
            )
        bound = context.expected_ops + self._byzantine_incs(context)
        bogus = sorted(
            (pid, value)
            for pid, value in honest
            if not 0 <= value < bound
        )
        if bogus:
            return self._fail(
                f"honest processor(s) received value(s) outside "
                f"[0, {bound}): {bogus}"
            )
        return self._pass()

    @staticmethod
    def _byzantine_incs(context: OracleContext) -> int:
        """Extra increments honest replicas attribute to Byzantine origins."""
        byz = context.byzantine_pids
        commit_origins = getattr(context.counter, "commit_origins", None)
        if not byz or commit_origins is None:
            return 0
        return max(
            (
                sum(count for origin, count in tally.items() if origin in byz)
                for pid, tally in commit_origins().items()
                if pid not in byz
            ),
            default=0,
        )


class NoLostIncrementOracle(Oracle):
    """Every value is handed out at most once; without burns, exactly once.

    On exactly-once runs the returned values must be the dense set
    ``{0 .. ops-1}``; under :attr:`OracleContext.at_most_once` (fault
    plans on counters that burn orphaned values) gaps are legal but
    duplicates never are — a duplicate is a lost increment, two clients
    both believing they performed the same ``inc``.
    """

    name = "no-lost-increment"

    def check(self, context: OracleContext) -> OracleVerdict:
        values = context.values()
        if values is None:
            return self._skip("run produced no value record")
        duplicates = sorted(
            value for value in set(values) if values.count(value) > 1
        )
        if duplicates:
            return self._fail(
                f"value(s) {duplicates} returned more than once "
                f"({len(values)} ops) — an increment was lost"
            )
        if context.at_most_once:
            return self._pass()
        expected = set(range(len(values)))
        missing = sorted(expected - set(values))
        unexpected = sorted(set(values) - expected)
        if missing or unexpected:
            return self._fail(
                f"values are not the dense prefix 0..{len(values) - 1}: "
                f"missing {missing}, unexpected {unexpected}"
            )
        return self._pass()


class RetirementMonotonicityOracle(Oracle):
    """Retirements happen in time order and always move the role.

    Applies to counters exposing a ``retirements`` ledger (the §4 tree
    counters): event times must be non-decreasing, ages non-negative,
    and every retirement must hand the role to a *different* worker —
    a self-retirement would silently reset the age clock.
    """

    name = "retirement-monotonicity"

    def check(self, context: OracleContext) -> OracleVerdict:
        ledger = getattr(context.counter, "retirements", None)
        if ledger is None:
            return self._skip("counter keeps no retirement ledger")
        previous_time = float("-inf")
        for event in ledger:
            if event.time < previous_time:
                return self._fail(
                    f"retirement at node {event.node} (t={event.time:g}) "
                    f"precedes an earlier-recorded one (t={previous_time:g})"
                )
            previous_time = event.time
            if event.age_at_retirement < 0:
                return self._fail(
                    f"retirement at node {event.node} has negative age "
                    f"{event.age_at_retirement}"
                )
            if event.new_worker == event.old_worker:
                return self._fail(
                    f"retirement at node {event.node} kept worker "
                    f"{event.old_worker} (role must move)"
                )
        return self._pass()


def default_oracles() -> tuple[Oracle, ...]:
    """The standard suite, in the order verdicts are reported."""
    return (
        RuntimeOracle(),
        LinearizabilityOracle(),
        HotSpotOracle(),
        AgreementOracle(),
        ValidityOracle(),
        NoLostIncrementOracle(),
        RetirementMonotonicityOracle(),
    )


def run_oracles(
    context: OracleContext, oracles: Sequence[Oracle] | None = None
) -> list[OracleVerdict]:
    """Check *context* against every oracle; verdicts in suite order."""
    suite = default_oracles() if oracles is None else oracles
    return [oracle.check(context) for oracle in suite]


def first_failure(verdicts: Sequence[OracleVerdict]) -> OracleVerdict | None:
    """The first failing verdict, or ``None`` if the suite passed."""
    for verdict in verdicts:
        if verdict.failed:
            return verdict
    return None
