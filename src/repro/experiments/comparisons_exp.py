"""E6, E7, E13, E17: cross-counter comparisons.

* E6: message-optimal (central) vs bottleneck-optimal (tree).
* E7: all baselines against the k(n) curve, sequential and concurrent.
* E13: order sensitivity (the arrow counter) — why the theorem
  quantifies over orders.
* E17: completion time under store-and-forward congestion.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult, make_table
from repro.lowerbound import GreedyAdversary, lower_bound_k
from repro.registry import RunSession, parse_spec
from repro.sim import CongestedDelay
from repro.workloads import SweepPoint, SweepRunner, one_shot, shuffled

BASELINES = (
    "central",
    "static-tree",
    "combining-tree",
    "counting-network",
    "diffracting-tree",
    "ww-tree",
)
"""Canonical registry names of the cross-counter comparison set."""


def _sequential_bottleneck(spec: str, n: int):
    # FULL by name: E6's latency profiles are read from records.
    return RunSession(spec, n, trace_level="FULL").run_sequence()


def run_e6(ns: tuple[int, ...] = (8, 27, 81, 256, 1024, 3125)) -> ExperimentResult:
    """E6: the §1 trade-off, with its crossover."""
    from repro.analysis import LatencyProfile

    rows = []
    crossover = None
    for n in ns:
        central = _sequential_bottleneck("central", n)
        tree = _sequential_bottleneck("ww-tree", n)
        ratio = central.bottleneck_load() / tree.bottleneck_load()
        if crossover is None and ratio > 1.0:
            crossover = n
        rows.append(
            [
                n,
                f"{lower_bound_k(n):.2f}",
                central.bottleneck_load(),
                f"{central.average_messages_per_op():.2f}",
                f"{LatencyProfile.from_run(central).worst:.0f}",
                tree.bottleneck_load(),
                f"{tree.average_messages_per_op():.2f}",
                f"{LatencyProfile.from_run(tree).worst:.0f}",
                f"{ratio:.2f}x",
            ]
        )
    return ExperimentResult(
        experiment_id="E6",
        claim="the central counter is message optimal but its server is a "
        "Θ(n) bottleneck; the tree wins from the crossover on",
        tables=(
            make_table(
                "E6: message-optimal (central) vs bottleneck-optimal (tree)",
                [
                    "n", "k(n)", "central m_b", "central msgs/op",
                    "central worst latency", "tree m_b", "tree msgs/op",
                    "tree worst latency", "central/tree m_b",
                ],
                rows,
                note=(
                    f"crossover (tree wins) at n = {crossover}.  The tree "
                    "pays ~3k messages and ~k+2 time units\nper op (plus "
                    "bounded retirement bursts) to cut the bottleneck from "
                    "2(n-1) to ~18.5k."
                ),
            ),
        ),
    )


def run_e7(
    ns: tuple[int, ...] = (64, 256, 1024),
    concurrent_n: int = 256,
    runner: SweepRunner | None = None,
) -> ExperimentResult:
    """E7: baseline sweep (sequential regime) + one concurrent batch.

    The whole grid runs through *runner* (serial by default); pass a
    parallel or cached :class:`~repro.workloads.SweepRunner` to fan it
    out — the tables are identical either way.
    """
    if runner is None:
        runner = SweepRunner()
    names = list(BASELINES)
    sequential_ns = tuple(ns) if concurrent_n in ns else tuple(ns) + (concurrent_n,)
    points = [
        SweepPoint(counter=name, n=n) for name in names for n in sequential_ns
    ] + [
        SweepPoint(counter=name, n=concurrent_n, workload="one-shot-concurrent")
        for name in names
    ]
    outcomes = {
        (point.counter, point.n, point.workload): outcome
        for point, outcome in zip(points, runner.run(points))
    }
    sequential_rows = []
    for name in names:
        cells: list[object] = [name]
        for n in ns:
            cells.append(outcomes[(name, n, "one-shot")].bottleneck_load)
        cells.append(f"{cells[-1] / cells[1]:.1f}x")
        sequential_rows.append(cells)
    sequential_rows.append(
        ["k(n) lower bound"]
        + [f"{lower_bound_k(n):.2f}" for n in ns]
        + [f"{lower_bound_k(ns[-1]) / lower_bound_k(ns[0]):.1f}x"]
    )
    concurrent_rows = []
    for name in names:
        sequential = outcomes[(name, concurrent_n, "one-shot")]
        concurrent = outcomes[(name, concurrent_n, "one-shot-concurrent")]
        concurrent_rows.append(
            [
                name,
                sequential.bottleneck_load,
                concurrent.bottleneck_load,
                f"{sequential.bottleneck_load / concurrent.bottleneck_load:.1f}x",
                concurrent.total_messages,
            ]
        )
    return ExperimentResult(
        experiment_id="E7",
        claim="only the paper's counter tracks k(n) sequentially; "
        "combining/diffracting structures shine under concurrency instead",
        tables=(
            make_table(
                "E7a: sequential one-shot bottleneck (the lower bound's regime)",
                ["counter"] + [f"m_b @ n={n}" for n in ns]
                + [f"growth {ns[0]}->{ns[-1]}"],
                sequential_rows,
            ),
            make_table(
                f"E7b: one fully concurrent batch of n={concurrent_n} incs",
                [
                    "counter", "sequential m_b", "concurrent m_b",
                    "relief", "concurrent msgs",
                ],
                concurrent_rows,
            ),
        ),
    )


def run_e13(n: int = 64, adversary_n: int = 16) -> ExperimentResult:
    """E13: bottleneck vs operation order on the arrow counter."""
    ping_pong = [1 if i % 2 == 0 else n for i in range(n)]
    orders = [
        ("identity", one_shot(n)),
        ("shuffled", shuffled(n, seed=1)),
        ("ping-pong", ping_pong),
    ]
    rows = []
    for name, spec in (
        ("arrow", "arrow"),
        ("ww-tree (wrap)", "ww-tree?interval_mode=wrap"),
        ("central", "central"),
    ):
        ref = parse_spec(spec)
        cells: list[object] = [name]
        for _, order in orders:
            session = RunSession(ref, n)
            cells.append(session.run_sequence(list(order)).bottleneck_load())
        cells.append(GreedyAdversary(ref, adversary_n).run().bottleneck_load)
        rows.append(cells)
    return ExperimentResult(
        experiment_id="E13",
        claim="the theorem's ∃-order quantifier is necessary: the arrow "
        "counter is cheap on friendly orders and Θ(n) on adversarial ones",
        tables=(
            make_table(
                f"E13: bottleneck vs operation order (n={n}, "
                f"k(n) = {lower_bound_k(n):.2f})",
                ["counter"] + [f"m_b {name}" for name, _ in orders]
                + [f"adversary (n={adversary_n})"],
                rows,
            ),
        ),
    )


def run_e17(n: int = 256) -> ExperimentResult:
    """E17: wall-clock completion under unit-service congestion."""
    specs = (
        ("central", "central"),
        ("combining-tree", "combining-tree?window=3.0"),
        ("counting-network", "counting-network"),
        ("diffracting-tree", "diffracting-tree?prism_wait=3.0"),
        ("ww-tree", "ww-tree"),
    )
    rows = []
    for name, spec in specs:
        session = RunSession(
            spec, n, policy=CongestedDelay(latency=1.0, service=1.0)
        )
        network = session.network
        result = session.run_concurrent()
        max_received = max(
            network.trace.received_by(p)
            for p in range(1, network.processor_count + 1)
        )
        rows.append(
            [
                name,
                f"{network.now:.0f}",
                max_received,
                f"{network.now / max_received:.2f}",
                result.total_messages,
                result.bottleneck_load(),
            ]
        )
    return ExperimentResult(
        experiment_id="E17",
        claim="completion time of a concurrent batch is gated by the "
        "hottest receiver's load",
        tables=(
            make_table(
                f"E17: one concurrent batch of n={n} incs under unit-service "
                "congestion",
                [
                    "counter", "completion time", "max receive load",
                    "time / load", "total msgs", "m_b",
                ],
                rows,
            ),
        ),
    )
