"""E4, E5, E9, E10, E12: the paper's counter, measured every which way.

* E4 (Bottleneck Theorem): O(k) across n = k^(k+1).
* E5 (retirement lemmas): per-level accounting + lemma checker verdicts.
* E9 (ablation): retirement-threshold sweep.
* E10 (ablation): tree-shape sweep at fixed n.
* E12 (extension): steady state over repeated rounds.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from repro.analysis import LoadProfile
from repro.core import IntervalMode, TreeCounter, TreeGeometry, TreePolicy
from repro.core.invariants import check_all, pure_leaves
from repro.counters import CentralCounter
from repro.errors import SimulationLimitError
from repro.experiments.base import ExperimentResult, ExperimentTable, make_table
from repro.sim.network import Network
from repro.workloads import SweepPoint, SweepRunner, one_shot, run_sequence


def run_e4(
    ks: tuple[int, ...] = (2, 3, 4, 5),
    runner: SweepRunner | None = None,
) -> ExperimentResult:
    """E4: the headline O(k) sweep.

    The grid runs through *runner* (serial by default); a parallel
    :class:`~repro.workloads.SweepRunner` produces the same table.
    """
    if runner is None:
        runner = SweepRunner()
    points = [SweepPoint(counter="ww-tree", n=k ** (k + 1)) for k in ks]
    rows = []
    for k, outcome in zip(ks, runner.run(points)):
        n = k ** (k + 1)
        profile = LoadProfile(
            loads=outcome.loads, population=max(n, len(outcome.loads), 1)
        )
        rows.append(
            [
                k,
                n,
                outcome.bottleneck_load,
                f"{outcome.bottleneck_load / k:.1f}",
                f"{profile.mean_load:.2f}",
                f"{outcome.messages_per_op:.2f}",
                outcome.extras["retirements"],
                outcome.extras["root_ids_used"],
                outcome.extras["forwarded"],
            ]
        )
    return ExperimentResult(
        experiment_id="E4",
        claim="the tree counter's bottleneck is O(k) over the one-shot "
        "workload",
        tables=(
            make_table(
                "E4 (Bottleneck Theorem): O(k) bottleneck across n = k^(k+1)",
                [
                    "k", "n=k^(k+1)", "bottleneck m_b", "m_b / k", "mean load",
                    "msgs/op", "retirements", "root ids used", "forwarded",
                ],
                rows,
            ),
        ),
    )


def _e5_table(k: int) -> ExperimentTable:
    n = k ** (k + 1)
    network = Network()
    counter = TreeCounter(network, n)
    result = run_sequence(counter, one_shot(n))
    geometry = counter.geometry
    retires_by_node: Counter[int] = Counter()
    worst_age: defaultdict[int, int] = defaultdict(int)
    for event in counter.retirements:
        retires_by_node[event.node] += 1
        level = geometry.level_of(event.node)
        worst_age[level] = max(worst_age[level], event.age_at_retirement)
    rows = []
    for level in geometry.inner_levels():
        on_level = [retires_by_node[node] for node in geometry.level_nodes(level)]
        level_retires = sum(on_level)
        worst_node = max(on_level)
        budget = (
            geometry.root_walk_budget()
            if level == 0
            else geometry.arity ** (geometry.depth - level) - 1
        )
        rows.append(
            [
                level,
                geometry.nodes_on_level(level),
                level_retires,
                worst_node,
                budget,
                worst_age.get(level, 0),
                counter.policy.retire_threshold,
            ]
        )
    leaves = pure_leaves(counter)
    max_leaf_load = max((result.trace.load(pid) for pid in leaves), default=0)
    lemmas = "\n".join(
        f"  [{'OK' if r.holds else 'FAIL'}] {r.lemma}: {r.detail}"
        for r in check_all(counter, result)
    )
    note = (
        f"pure leaves: {len(leaves)}/{n}, max pure-leaf load: {max_leaf_load} "
        f"(lemma bound: 2 + parent retirements)\n{lemmas}"
    )
    return make_table(
        f"E5: per-level retirement accounting (k={k}, n={n})",
        [
            "level", "nodes", "retirements", "worst/node", "budget/node",
            "worst age", "threshold",
        ],
        rows,
        note=note,
    )


def run_e5(ks: tuple[int, ...] = (3, 4)) -> ExperimentResult:
    """E5: the §4 lemmas with per-level retirement accounting."""
    return ExperimentResult(
        experiment_id="E5",
        claim="the Retirement / Grow-Old / Number-of-Retirements / "
        "Leaf-Work lemmas hold as measured",
        tables=tuple(_e5_table(k) for k in ks),
    )


def run_e9(
    k: int = 3, factors: tuple[int, ...] = (2, 3, 4, 6, 8)
) -> ExperimentResult:
    """E9: the retirement-threshold ablation."""
    from repro.core.invariants import check_number_of_retirements

    n = k ** (k + 1)
    geometry = TreeGeometry.paper_shape(k)
    rows = []
    for factor in factors:
        policy = TreePolicy(
            retire_threshold=factor * k, interval_mode=IntervalMode.WRAP
        )
        network = Network(event_limit=2_000_000)
        counter = TreeCounter(network, n, geometry=geometry, policy=policy)
        try:
            result = run_sequence(counter, one_shot(n))
        except SimulationLimitError:
            rows.append([f"{factor}k", factor * k, "EXPLODES", "-", "-", "-"])
            continue
        budgets_ok = check_number_of_retirements(counter).holds
        rows.append(
            [
                f"{factor}k",
                factor * k,
                result.bottleneck_load(),
                len(counter.retirements),
                f"{result.average_messages_per_op():.2f}",
                "yes" if budgets_ok else "OVERRUN",
            ]
        )
    network = Network()
    counter = TreeCounter(
        network, n, geometry=geometry, policy=TreePolicy.never_retire()
    )
    result = run_sequence(counter, one_shot(n))
    rows.append(
        [
            "∞ (static)", "-", result.bottleneck_load(), 0,
            f"{result.average_messages_per_op():.2f}", "yes",
        ]
    )
    return ExperimentResult(
        experiment_id="E9",
        claim="threshold 3k-4k is the sweet spot; 2k overruns the paper's "
        "interval budgets; ∞ degenerates to Θ(n)",
        tables=(
            make_table(
                f"E9: retirement-threshold ablation (k={k}, n={n}; paper "
                "interval widths, wrap on overrun)",
                [
                    "factor", "threshold", "bottleneck m_b", "retirements",
                    "msgs/op", "budgets ok",
                ],
                rows,
            ),
        ),
    )


def run_e10(
    n: int = 1024,
    shapes: tuple[tuple[int, int], ...] = ((2, 9), (4, 4), (8, 2), (32, 1)),
) -> ExperimentResult:
    """E10: the tree-shape ablation at fixed client count."""
    rows = []
    for arity, depth in shapes:
        geometry = TreeGeometry(arity=arity, depth=depth)
        while geometry.leaf_count < n:
            depth += 1
            geometry = TreeGeometry(arity=arity, depth=depth)
        policy = TreePolicy(
            retire_threshold=4 * arity, interval_mode=IntervalMode.WRAP
        )
        network = Network()
        counter = TreeCounter(network, n, geometry=geometry, policy=policy)
        result = run_sequence(counter, one_shot(n))
        reserve = max(0, geometry.processor_requirement() - geometry.leaf_count)
        rows.append(
            [
                f"{arity}^{depth + 1}",
                arity,
                depth + 1,
                geometry.leaf_count,
                result.bottleneck_load(),
                f"{result.average_messages_per_op():.2f}",
                len(counter.retirements),
                reserve,
            ]
        )
    return ExperimentResult(
        experiment_id="E10",
        claim="the paper's arity = depth = k shape is where the id space "
        "closes exactly at n",
        tables=(
            make_table(
                f"E10: tree-shape ablation at n={n} clients (threshold 4·arity)",
                [
                    "shape", "arity", "levels to leaves", "leaves",
                    "bottleneck m_b", "msgs/op", "retirements", "reserve ids",
                ],
                rows,
            ),
        ),
    )


def run_e12(k: int = 3, rounds: int = 5) -> ExperimentResult:
    """E12: repeated rounds in wrap mode vs the central counter."""
    n = k ** (k + 1)

    def marks(counter, network):
        out = []
        op_index = 0
        for _ in range(rounds):
            for pid in one_shot(n):
                counter.begin_inc(pid, op_index)
                network.run_until_quiescent()
                op_index += 1
            out.append(network.trace.bottleneck()[1])
        return out

    tree_network = Network()
    tree = TreeCounter(
        tree_network,
        n,
        policy=TreePolicy(retire_threshold=4 * k, interval_mode=IntervalMode.WRAP),
    )
    tree_marks = marks(tree, tree_network)
    central_network = Network()
    central_marks = marks(CentralCounter(central_network, n), central_network)

    rows = []
    for index in range(rounds):
        tree_delta = tree_marks[index] - (tree_marks[index - 1] if index else 0)
        central_delta = central_marks[index] - (
            central_marks[index - 1] if index else 0
        )
        rows.append(
            [
                index + 1,
                tree_marks[index],
                tree_delta,
                central_marks[index],
                central_delta,
                f"{central_marks[index] / tree_marks[index]:.1f}x",
            ]
        )
    return ExperimentResult(
        experiment_id="E12",
        claim="amortized per-round bottleneck stays O(k) in steady state",
        tables=(
            make_table(
                f"E12: repeated one-shot rounds (k={k}, n={n}, wrap mode)",
                [
                    "round", "tree cum m_b", "tree Δ/round",
                    "central cum m_b", "central Δ/round", "ratio",
                ],
                rows,
                note=f"tree value after {rounds} rounds: {tree.value} "
                f"(= {rounds}·{n}); retirements: {len(tree.retirements)}",
            ),
        ),
    )
