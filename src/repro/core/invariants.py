"""Executable versions of the paper's §4 lemmas for the tree counter.

Each checker inspects a finished run of a :class:`~repro.core.TreeCounter`
and verifies one lemma's claim, returning a small report (and optionally
raising).  Together they are the mechanized counterpart of the paper's
correctness and load analysis:

* **Retirement Lemma** — no node retires more than once during a single
  ``inc`` operation.
* **Tenure bound** (Grow Old + Inner Node Work Lemmas) — a worker's node
  age never exceeds the retirement threshold by more than the per-message
  increment slack, so each tenure handles O(k) messages.
* **Number of Retirements Lemma** — a level-``i`` node retires at most
  ``width(i) − 1`` times, where ``width(i) = arity^(depth−i)`` is its
  preallocated interval (strict mode enforces this at runtime; the
  checker re-verifies from the event log).
* **Leaf Node Work Lemma** — a processor that never worked for any inner
  node handles only its own two operation messages plus one id-update per
  retirement of its leaf parent.
* **Bottleneck Theorem** — the maximum per-processor load is at most
  ``C·k`` for a configurable constant ``C``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.core.tree.counter import TreeCounter
from repro.errors import InvariantViolationError
from repro.sim.messages import NO_OP, ProcessorId
from repro.workloads.driver import RunResult


@dataclass(frozen=True, slots=True)
class LemmaReport:
    """Outcome of one lemma check."""

    lemma: str
    holds: bool
    detail: str

    def require(self) -> "LemmaReport":
        """Raise :class:`InvariantViolationError` unless the lemma holds."""
        if not self.holds:
            raise InvariantViolationError(f"{self.lemma}: {self.detail}")
        return self


def check_retirement_lemma(counter: TreeCounter) -> LemmaReport:
    """No node retires more than once during a single inc operation."""
    per_op_node: Counter[tuple[int, int]] = Counter()
    for event in counter.retirements:
        if event.op_index == NO_OP:
            continue
        per_op_node[(event.op_index, event.node)] += 1
    worst = max(per_op_node.values(), default=0)
    offenders = [key for key, count in per_op_node.items() if count > 1]
    return LemmaReport(
        lemma="Retirement Lemma",
        holds=worst <= 1,
        detail=(
            "every (operation, node) pair retired at most once"
            if worst <= 1
            else f"double retirements at {offenders[:5]}"
        ),
    )


def check_tenure_bound(counter: TreeCounter, slack: int = 2) -> LemmaReport:
    """Node age at retirement stays within threshold + per-message slack.

    A handler increments the age by at most two (receive + send) before
    the retirement check runs, so the recorded age can overshoot the
    threshold by at most *slack*.
    """
    threshold = counter.policy.retire_threshold
    if threshold is None:
        return LemmaReport(
            lemma="Tenure bound",
            holds=True,
            detail="retirement disabled; tenure is unbounded by design",
        )
    worst = max(
        (event.age_at_retirement for event in counter.retirements), default=0
    )
    return LemmaReport(
        lemma="Tenure bound (Grow Old / Inner Node Work)",
        holds=worst <= threshold + slack,
        detail=f"max age at retirement {worst} vs threshold {threshold}+{slack}",
    )


def check_number_of_retirements(counter: TreeCounter) -> LemmaReport:
    """Level-``i`` nodes retire at most ``arity^(depth-i) − 1`` times.

    (That is: every node stays within its preallocated replacement
    interval, the executable content of the Number of Retirements
    Lemma.)  The root is checked against its walk budget instead.
    """
    geometry = counter.geometry
    offenders: list[str] = []
    for role in counter.registry.all_roles():
        if role.is_root:
            budget = geometry.root_walk_budget()
        else:
            budget = len(geometry.id_interval(role.node)) - 1
        if role.retire_count > budget:
            offenders.append(
                f"node {role.node} retired {role.retire_count}x (budget {budget})"
            )
    return LemmaReport(
        lemma="Number of Retirements Lemma",
        holds=not offenders,
        detail="all nodes within interval budgets" if not offenders
        else "; ".join(offenders[:5]),
    )


def pure_leaves(counter: TreeCounter) -> set[ProcessorId]:
    """Processors that never worked for any inner node during the run."""
    ever_workers: set[ProcessorId] = set()
    geometry = counter.geometry
    for role in counter.registry.all_roles():
        if role.is_root:
            ever_workers.update(range(1, counter.registry.root_ids_used() + 1))
            ever_workers.add(geometry.initial_worker(role.node))
        else:
            interval = geometry.id_interval(role.node)
            used = min(len(interval), role.retire_count + 1)
            ever_workers.update(interval[offset] for offset in range(used))
    return set(range(1, geometry.leaf_count + 1)) - ever_workers


def check_leaf_work(counter: TreeCounter, result: RunResult) -> LemmaReport:
    """Pure-leaf load ≤ 2 (its own inc) + retirements of its leaf parent."""
    geometry = counter.geometry
    retire_count_by_node: Counter[int] = Counter(
        event.node for event in counter.retirements
    )
    incs_by_pid: Counter[ProcessorId] = Counter(
        outcome.initiator for outcome in result.outcomes
    )
    offenders: list[str] = []
    for pid in pure_leaves(counter):
        load = result.trace.load(pid)
        parent_retires = retire_count_by_node[geometry.leaf_parent(pid)]
        budget = 2 * incs_by_pid[pid] + parent_retires
        if load > budget:
            offenders.append(f"leaf {pid}: load {load} > budget {budget}")
    return LemmaReport(
        lemma="Leaf Node Work Lemma",
        holds=not offenders,
        detail="all pure leaves within budget" if not offenders
        else "; ".join(offenders[:5]),
    )


def check_bottleneck_theorem(
    counter: TreeCounter, result: RunResult, constant: float = 24.0
) -> LemmaReport:
    """Max load ≤ ``constant · k`` — the Bottleneck Theorem's O(k).

    The default constant 24 comfortably covers the implementation's
    measured ≈18.5·k (two tenures at threshold 4k plus hand-off traffic
    plus the leaf's own messages); the benchmark suite tracks the exact
    constant across k.
    """
    bound = constant * counter.k
    observed = result.bottleneck_load()
    return LemmaReport(
        lemma="Bottleneck Theorem",
        holds=observed <= bound,
        detail=f"max load {observed} vs {constant}·k = {bound:.0f}",
    )


def check_all(counter: TreeCounter, result: RunResult) -> list[LemmaReport]:
    """Run every lemma check; returns the reports (none raised)."""
    return [
        check_retirement_lemma(counter),
        check_tenure_bound(counter),
        check_number_of_retirements(counter),
        check_leaf_work(counter, result),
        check_bottleneck_theorem(counter, result),
    ]


def require_all(counter: TreeCounter, result: RunResult) -> None:
    """Run every lemma check, raising on the first failure."""
    for report in check_all(counter, result):
        report.require()
