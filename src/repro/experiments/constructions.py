"""E1 and E2: the paper's §2 constructions, regenerated.

* E1 (Figures 1–2): one inc as a communication DAG and as a
  topologically sorted list, with the construction invariants checked
  on real traces.
* E2 (Hot Spot Lemma): successive-operation footprints intersect for
  every counter, order and delivery policy.
"""

from __future__ import annotations

from collections import Counter

from repro.analysis import build_dag, build_list
from repro.experiments.base import ExperimentResult, make_table
from repro.lowerbound import check_hot_spot
from repro.registry import RunSession, parse_spec
from repro.sim.policies import RandomDelay, UnitDelay
from repro.workloads import one_shot, run_sequence, shuffled


def run_e1(n: int = 64, probe_op: int | None = None) -> ExperimentResult:
    """E1: DAG/list construction invariants on a mid-sequence inc."""
    if probe_op is None:
        probe_op = (n * 5) // 8
    specs = ["central", "static-tree", "ww-tree", "combining-tree"]
    rows = []
    for spec in specs:
        # FULL by name: the DAG and the list are rebuilt from records.
        counter = RunSession(spec, n, trace_level="FULL").counter
        result = run_sequence(counter, one_shot(n))
        outcome = result.outcomes[probe_op]
        dag = build_dag(result.trace, outcome.op_index, outcome.initiator)
        lst = build_list(result.trace, outcome.op_index, outcome.initiator)
        per_label_arcs = Counter(lst.labels[1:])
        per_pid_dag = Counter(receiver.pid for _, receiver in dag.graph.edges())
        list_bounded = all(
            per_label_arcs[pid] <= per_pid_dag.get(pid, 0)
            for pid in per_label_arcs
        )
        rows.append(
            [
                counter.name,
                dag.message_count,
                lst.length,
                dag.depth(),
                len(dag.participants()),
                "yes" if dag.is_acyclic() else "NO",
                "yes" if lst.length == dag.message_count else "NO",
                "yes" if list_bounded else "NO",
            ]
        )
    return ExperimentResult(
        experiment_id="E1",
        claim="the communication list models the DAG: one arc per message, "
        "no processor gains load",
        tables=(
            make_table(
                f"E1 (Fig 1+2): inc #{probe_op} as DAG and communication "
                f"list (n={n})",
                [
                    "counter", "dag msgs", "list arcs", "dag depth", "|I_p|",
                    "acyclic", "arcs==msgs", "list<=dag load",
                ],
                rows,
            ),
        ),
    )


def run_e2(n: int = 64, seeds: tuple[int, ...] = (1, 2)) -> ExperimentResult:
    """E2: Hot Spot Lemma over every counter, order and policy."""
    specs = [
        "central",
        "static-tree",
        "ww-tree",
        "combining-tree",
        "counting-network",
        "diffracting-tree",
        "quorum[maekawa]",
    ]
    orders = [one_shot(n)] + [shuffled(n, seed=s) for s in seeds]
    rows = []
    for name in specs:
        ref = parse_spec(name)
        pairs = 0
        minimum = None
        holds = True
        for order in orders:
            for policy in (UnitDelay(), RandomDelay(seed=3)):
                session = RunSession(ref, n, policy=policy)
                result = session.run_sequence(list(order))
                report = check_hot_spot(result)
                pairs += report.pairs_checked
                holds = holds and report.holds
                if minimum is None or report.min_intersection < minimum:
                    minimum = report.min_intersection
        rows.append([name, pairs, minimum, "yes" if holds else "NO"])
    return ExperimentResult(
        experiment_id="E2",
        claim="successive inc footprints always intersect (I_p ∩ I_q ≠ ∅)",
        tables=(
            make_table(
                f"E2 (Hot Spot Lemma): successive-footprint intersection (n={n})",
                ["counter", "pairs checked", "min |I_p ∩ I_q|", "lemma holds"],
                rows,
            ),
        ),
    )
