"""E18–E21: robustness — schedules, skew, and injected faults.

* E18 — delivery robustness: the paper's quantities are message counts,
  which should barely move under different asynchronous schedules.
  Measured: bottleneck mean ± std over random-delay seeds per counter.
* E19 — skewed initiators: the paper restricts its lower bound to one
  inc per processor because "the amount of achievable distribution is
  limited if many operations are initiated by a single processor".
  Measured: bottleneck under Zipf-skewed initiator sequences as the
  skew grows, split into the hottest *initiator's* own load vs the
  hottest *non-initiator* — showing the residual bottleneck is the
  workload's, not the structure's.
* E20 — loss tolerance: the paper's model is failure-free, but its
  bottleneck claim is about *message counts*, which survive a lossy
  network once a reliable transport restores exactly-once delivery.
  Measured: every one-shot completes with correct values at increasing
  drop rates, and the bottleneck ordering (central ≫ trees) persists —
  retransmissions inflate loads roughly uniformly, they do not
  redistribute them.
* E21 — graceful degradation: duplication storms, a crashed window on a
  hot processor, and compound loss+crash scenarios on the tree
  counters.  Measured: completion, retransmit overhead, and bottleneck
  against the clean baseline.
"""

from __future__ import annotations

from repro.analysis.stats import summarize_over_seeds
from repro.experiments.base import ExperimentResult, make_table
from repro.registry import RunSession, parse_spec
from repro.sim.policies import RandomDelay
from repro.workloads import zipf_sequence

ROBUSTNESS_COUNTERS = (
    "central",
    "static-tree",
    "ww-tree",
    "combining-tree",
    "counting-network",
    "diffracting-tree",
    "arrow",
)
"""Canonical registry names of the schedule-robustness comparison set."""


def run_e18(n: int = 81, seeds: tuple[int, ...] = tuple(range(8))) -> ExperimentResult:
    """E18: bottleneck spread over random-delivery seeds."""
    rows = []
    for name in ROBUSTNESS_COUNTERS:
        ref = parse_spec(name)

        def measure(seed: int, ref=ref) -> float:
            session = RunSession(ref, n, policy=RandomDelay(seed=seed))
            return session.run_sequence().bottleneck_load()

        summary = summarize_over_seeds(measure, seeds)
        rows.append(
            [
                name,
                f"{summary.mean:.1f}",
                f"{summary.std:.1f}",
                int(summary.minimum),
                int(summary.maximum),
                f"{100 * summary.spread:.1f}%",
            ]
        )
    return ExperimentResult(
        experiment_id="E18",
        claim="message-count measurements are robust to asynchronous "
        "schedule choice",
        tables=(
            make_table(
                f"E18: one-shot bottleneck over {len(seeds)} random-delay "
                f"seeds (n={n})",
                ["counter", "mean m_b", "std", "min", "max", "spread"],
                rows,
                note=(
                    "Sequential operations make message counts schedule-"
                    "independent for every\nprotocol except the ww-tree, "
                    "whose few-percent spread is exactly its\nretirement "
                    "handshake (which forwarded/deferred messages occur "
                    "depends on\narrival order) — the overhead the paper "
                    "allows as 'a constant number of\nextra messages'."
                ),
            ),
        ),
    )


def run_e19(
    n: int = 81,
    length: int = 243,
    skews: tuple[float, ...] = (0.0, 0.8, 1.4, 2.2),
) -> ExperimentResult:
    """E19: Zipf-skewed initiators — the regime the paper excludes."""
    ref = parse_spec("ww-tree?interval_mode=wrap")
    rows = []
    for skew in skews:
        if skew == 0.0:
            order = [(i % n) + 1 for i in range(length)]
        else:
            order = zipf_sequence(n, length=length, skew=skew, seed=1)
        session = RunSession(ref, n)
        counter = session.counter
        result = session.run_sequence(order)
        geometry = counter.geometry
        initiators = set(order)
        hottest_initiator = max(
            result.trace.load(pid) for pid in initiators
        )
        non_initiators = [
            pid
            for pid in range(1, geometry.processor_requirement() + 1)
            if pid not in initiators
        ]
        hottest_other = max(
            (result.trace.load(pid) for pid in non_initiators), default=0
        )
        top_share = max(order.count(pid) for pid in initiators) / length
        rows.append(
            [
                f"{skew:.1f}",
                f"{100 * top_share:.0f}%",
                result.bottleneck_load(),
                hottest_initiator,
                hottest_other,
            ]
        )
    return ExperimentResult(
        experiment_id="E19",
        claim="with skewed initiators the residual bottleneck is the "
        "initiator itself — the workload's hot spot, not the structure's",
        tables=(
            make_table(
                f"E19: ww-tree under Zipf-skewed initiators (n={n}, "
                f"{length} ops, wrap mode)",
                [
                    "zipf skew",
                    "top initiator share",
                    "bottleneck m_b",
                    "hottest initiator load",
                    "hottest non-initiator load",
                ],
                rows,
                note=(
                    "As skew grows, the hottest *initiator* (who must send "
                    "and receive its own ops'\nmessages) dominates while "
                    "non-initiating workers stay flat — the paper's reason "
                    "for\nstating the bound at one inc per processor."
                ),
            ),
        ),
    )


LOSS_COUNTERS = (
    "central",
    "static-tree",
    "ww-tree",
    "quorum[majority]",
    "quorum[maekawa]",
)
"""Counters of the loss-tolerance comparison (n=25 keeps maekawa legal)."""


def run_e20(
    n: int = 25,
    drops: tuple[float, ...] = (0.0, 0.02, 0.05, 0.1),
    seed: int = 3,
) -> ExperimentResult:
    """E20: one-shot completion and bottleneck under increasing loss."""
    rows = []
    for name in LOSS_COUNTERS:
        for drop in drops:
            session = RunSession(
                name,
                n,
                policy="random",
                seed=seed,
                faults=f"drop={drop}" if drop else None,
                reliable=True,
            )
            # check_values=True: a wrong or missing value raises, so a
            # printed row *is* the completion proof.
            result = session.run_sequence()
            stats = session.transport_stats()
            assert session.transport is not None
            rows.append(
                [
                    name,
                    f"{drop:.2f}",
                    result.bottleneck_load(),
                    stats["retransmissions"],
                    f"{session.transport.overhead_ratio():.3f}",
                    "yes",
                ]
            )
    return ExperimentResult(
        experiment_id="E20",
        claim="behind a reliable transport every counter completes "
        "correctly under message loss, and the bottleneck ordering of the "
        "failure-free model persists",
        tables=(
            make_table(
                f"E20: one-shot under drop rates (n={n}, random delays, "
                f"seed={seed}, reliable transport)",
                [
                    "counter",
                    "drop",
                    "bottleneck m_b",
                    "retransmits",
                    "overhead",
                    "all correct",
                ],
                rows,
                note=(
                    "Per counter, the bottleneck grows by roughly the "
                    "retransmit overhead factor\nand no more — loss "
                    "changes constants, not which processor is hot or "
                    "why.\ndrop=0.00 rows show the transport itself is "
                    "free of spurious retransmits\n(overhead exactly "
                    "1.000)."
                ),
            ),
        ),
    )


DEGRADATION_SCENARIOS = (
    ("clean", None),
    ("duplication", "dup=0.05x2"),
    ("crash window", "crash=2@t40-t120"),
    ("loss + crash", "drop=0.05,crash=2@t40-t120"),
)
"""E21 scenarios: label → fault spec (processor 2 is a hot inner node)."""


def run_e21(
    n: int = 27,
    seed: int = 5,
    counters: tuple[str, ...] = ("static-tree", "ww-tree"),
) -> ExperimentResult:
    """E21: graceful degradation of the tree counters under compound faults."""
    rows = []
    for name in counters:
        baseline: int | None = None
        for label, faults in DEGRADATION_SCENARIOS:
            session = RunSession(
                name,
                n,
                policy="random",
                seed=seed,
                faults=faults,
                reliable=True,
            )
            result = session.run_sequence()
            stats = session.transport_stats()
            assert session.transport is not None
            bottleneck = result.bottleneck_load()
            if baseline is None:
                baseline = bottleneck
            injected = (
                session.fault_plan.counts if session.fault_plan else {}
            )
            rows.append(
                [
                    name,
                    label,
                    bottleneck,
                    f"{bottleneck / baseline:.2f}x",
                    stats["retransmissions"],
                    f"{session.transport.overhead_ratio():.3f}",
                    sum(injected.values()),
                ]
            )
    return ExperimentResult(
        experiment_id="E21",
        claim="tree counters degrade gracefully: duplication, a crashed "
        "window on a hot node, and compound loss+crash slow them down but "
        "never corrupt the count",
        tables=(
            make_table(
                f"E21: degradation scenarios (n={n}, random delays, "
                f"seed={seed}, reliable transport)",
                [
                    "counter",
                    "scenario",
                    "bottleneck m_b",
                    "vs clean",
                    "retransmits",
                    "overhead",
                    "faults injected",
                ],
                rows,
                note=(
                    "Processor 2 is an inner tree node in both wirings; "
                    "while it is down the\ntransport keeps retrying with "
                    "capped backoff and delivery resumes on recovery.\n"
                    "Duplicates are absorbed by sequence-number "
                    "suppression, so values stay exact\nin every scenario "
                    "(rows only print if check_values passed)."
                ),
            ),
        ),
    )
