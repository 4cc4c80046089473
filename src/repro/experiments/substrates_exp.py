"""E8, E11, E14, E15: the substrates and measures around the core result.

* E8: quorum systems — loads, floors, and the quorum counter.
* E11: the §2 remark — the O(k) structure hosts any sequentially
  dependent ADT.
* E14: O(log n)-bit messages, measured.
* E15: counting vs linearizable counting (HSW).
"""

from __future__ import annotations

import math
from functools import partial

from repro.analysis import (
    BitLoadAnalyzer,
    check_linearizable_counting,
    run_staggered_timed,
)
from repro.counters import BitonicCountingNetwork
from repro.counters.counting_network import step_property_holds
from repro.datatypes import (
    DELETE_MIN,
    FLIP,
    INSERT,
    WRITE_MAX,
    DistributedFlipBit,
    DistributedMaxRegister,
    DistributedPriorityQueue,
    run_ops,
)
from repro.experiments.base import ExperimentResult, make_table
from repro.registry import RunSession, assemble_run, parse_spec
from repro.quorum import (
    CrumblingWall,
    MaekawaGrid,
    ProjectivePlaneQuorum,
    QuorumCounter,
    RotatingMajorityQuorum,
    SingletonQuorum,
    TreePathQuorum,
    WheelQuorum,
    fault_tolerance,
    naor_wool_floor,
    optimal_load,
    probe_complexity,
    uniform_load,
)
from repro.sim.policies import DeliveryPolicy, RandomDelay
from repro.workloads import one_shot, run_sequence


def run_e8(n: int = 64, fpp_order: int = 7) -> ExperimentResult:
    """E8: quorum systems and the quorum counter."""
    systems = [
        ("singleton", SingletonQuorum(n)),
        ("projective-plane*", ProjectivePlaneQuorum(fpp_order)),
        ("majority", RotatingMajorityQuorum(n)),
        ("maekawa-grid", MaekawaGrid(n)),
        ("tree-paths", TreePathQuorum(n)),
        ("wheel", WheelQuorum(n)),
        ("crumbling-wall", CrumblingWall(n)),
    ]
    analysis_rows = []
    counter_rows = []
    for name, system in systems:
        analysis_rows.append(
            [
                name,
                system.quorum_count(),
                system.max_quorum_size(),
                f"{uniform_load(system).system_load:.3f}",
                f"{optimal_load(system).system_load:.3f}",
                f"{naor_wool_floor(system):.3f}",
                "yes" if system.verify_intersection() else "NO",
            ]
        )
        # The counter runs on the very system the row analyses (the
        # projective plane has no spec).
        factory = partial(QuorumCounter, system=system)
        counter = assemble_run(factory, system.n).counter
        result = run_sequence(counter, one_shot(system.n))
        counter_rows.append(
            [
                name,
                result.bottleneck_load(),
                f"{result.average_messages_per_op():.1f}",
                result.total_messages,
            ]
        )
    small_systems = [
        ("singleton", SingletonQuorum(7)),
        ("tree-paths", TreePathQuorum(7)),
        ("wheel", WheelQuorum(7)),
        ("fano-plane", ProjectivePlaneQuorum(2)),
        ("majority", RotatingMajorityQuorum(9)),
        ("maekawa-grid", MaekawaGrid(9)),
    ]
    structure_rows = [
        [
            name,
            system.n,
            system.max_quorum_size(),
            fault_tolerance(system),
            probe_complexity(system),
        ]
        for name, system in small_systems
    ]
    return ExperimentResult(
        experiment_id="E8",
        claim="quorum intersection structures realize the Hot Spot "
        "Lemma's trade-offs; none approaches O(k)",
        tables=(
            make_table(
                f"E8a: quorum systems over n={n} (load = hottest pick "
                "probability; * = n set by the plane's order)",
                [
                    "system", "quorums", "max |Q|", "uniform load",
                    "optimal load", "NW floor", "intersects",
                ],
                analysis_rows,
            ),
            make_table(
                "E8b: the quorum counter's measured bottleneck (one-shot)",
                ["system", "counter m_b", "msgs/op", "total msgs"],
                counter_rows,
            ),
            make_table(
                "E8c: structural costs on small instances (exact search)",
                [
                    "system", "n", "max |Q|", "fault tolerance",
                    "probe complexity",
                ],
                structure_rows,
                note=(
                    "Peleg–Wool's snoop theme, reproduced exactly: the "
                    "wheel's quorums have size 2\nbut certifying "
                    "availability can take n probes."
                ),
            ),
        ),
    )


def run_e11(ks: tuple[int, ...] = (3, 4)) -> ExperimentResult:
    """E11: ADTs on the unchanged tree share the counter's bottleneck."""
    rows = []
    for k in ks:
        n = k ** (k + 1)
        result = RunSession("ww-tree", n).run_sequence()
        rows.append(["counter (inc)", k, n, result.bottleneck_load(),
                     f"{result.bottleneck_load() / k:.1f}"])
        bit = assemble_run(DistributedFlipBit, n).counter
        adt = run_ops(bit, [(pid, FLIP) for pid in one_shot(n)])
        rows.append(["flip-bit (flip)", k, n, adt.bottleneck_load(),
                     f"{adt.bottleneck_load() / k:.1f}"])
        queue = assemble_run(DistributedPriorityQueue, n).counter
        half = n // 2
        ops = [(pid, (INSERT, n - pid)) for pid in range(1, half + 1)]
        ops += [(pid, (DELETE_MIN,)) for pid in range(half + 1, n + 1)]
        adt = run_ops(queue, ops)
        rows.append(["priority-queue (ins/delmin)", k, n, adt.bottleneck_load(),
                     f"{adt.bottleneck_load() / k:.1f}"])
        register = assemble_run(DistributedMaxRegister, n).counter
        adt = run_ops(register, [(pid, (WRITE_MAX, pid)) for pid in one_shot(n)])
        rows.append(["max-register (write_max)", k, n, adt.bottleneck_load(),
                     f"{adt.bottleneck_load() / k:.1f}"])
    return ExperimentResult(
        experiment_id="E11",
        claim="the O(k) bound is a property of the communication "
        "structure, not of counting",
        tables=(
            make_table(
                "E11: one-shot bottleneck of sequentially dependent ADTs",
                ["structure (op)", "k", "n", "bottleneck m_b", "m_b / k"],
                rows,
            ),
        ),
    )


def run_e14(ns: tuple[int, ...] = (81, 1024)) -> ExperimentResult:
    """E14: message sizes and bit bottlenecks."""
    specs = [
        "central",
        "static-tree",
        "ww-tree",
        "combining-tree",
        "counting-network",
        "diffracting-tree",
        "arrow",
    ]
    rows = []
    for name in specs:
        ref = parse_spec(name)
        cells: list[object] = [name]
        for n in ns:
            # FULL by name: the analyzer meters every sent payload.
            session = RunSession(ref, n, trace_level="FULL")
            analyzer = BitLoadAnalyzer(n)
            analyzer.attach(session.network)
            session.run_sequence()
            cells.append(analyzer.max_message_bits)
            cells.append(analyzer.bit_bottleneck()[1])
        cells.append(f"{cells[3] / cells[1]:.2f}x")
        rows.append(cells)
    headers = ["counter"]
    for n in ns:
        headers += [f"max msg bits @{n}", f"bit m_b @{n}"]
    headers.append("msg-size growth")
    return ExperimentResult(
        experiment_id="E14",
        claim="all messages stay O(log n) bits; nobody smuggles load "
        "into bulk",
        tables=(
            make_table(
                "E14: message sizes and bit bottlenecks (one-shot workload)",
                headers,
                rows,
                note=f"log2({ns[0]}) = {math.log2(ns[0]):.1f}, "
                f"log2({ns[-1]}) = {math.log2(ns[-1]):.1f}",
            ),
        ),
    )


class _StallFirstToken(DeliveryPolicy):
    """Scripted adversary for E15's deterministic counterexample."""

    def delay(self, message):
        if (
            message.kind == "cn-token"
            and message.payload.get("origin") == 1
            and message.payload.get("layer") == 1
        ):
            return 100.0
        return 1.0


def run_e15(scan_n: int = 16, seeds: int = 10) -> ExperimentResult:
    """E15: the HSW counterexample plus a statistical scan."""
    session = RunSession(
        "counting-network?width=2", 4, policy=_StallFirstToken()
    )
    ops = run_staggered_timed(session.counter, [1, 2, 3], gap=5.0)
    report = check_linearizable_counting(ops)
    example_rows = [
        [op.op_index, op.initiator, f"{op.request_time:g}",
         f"{op.response_time:g}", op.value]
        for op in ops
    ]
    note = (
        f"counts correctly: {sorted(op.value for op in ops) == [0, 1, 2]}; "
        f"linearizable: {report.linearizable}\n"
        + "\n".join(f"  inversion: {inv}" for inv in report.inversions)
    )
    scan_rows = []
    for name, spec in (
        ("central", "central"),
        ("counting-network w=4", "counting-network?width=4"),
    ):
        ref = parse_spec(spec)
        linearizable = 0
        precedence = 0
        steps_ok = True
        for seed in range(seeds):
            c = RunSession(
                ref, scan_n, policy=RandomDelay(seed=seed, low=0.5, high=20.0)
            ).counter
            timed = run_staggered_timed(c, list(range(1, scan_n + 1)), gap=2.0)
            rep = check_linearizable_counting(timed)
            linearizable += int(rep.linearizable)
            precedence += rep.precedence_pairs
            if isinstance(c, BitonicCountingNetwork):
                steps_ok = steps_ok and step_property_holds(c.exit_counts)
        scan_rows.append(
            [name, f"{linearizable}/{seeds}", precedence,
             "yes" if steps_ok else "NO"]
        )
    return ExperimentResult(
        experiment_id="E15",
        claim="counting networks count but are not linearizable (HSW)",
        tables=(
            make_table(
                "E15a: deterministic HSW counterexample on Bitonic[2]",
                ["op", "initiator", "request t", "response t", "value"],
                example_rows,
                note=note,
            ),
            make_table(
                f"E15b: staggered concurrent runs (n={scan_n}, "
                f"{seeds} random-delay seeds)",
                ["counter", "linearizable runs", "precedence pairs",
                 "step property"],
                scan_rows,
            ),
        ),
    )
