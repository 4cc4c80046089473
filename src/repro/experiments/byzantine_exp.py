"""E25: Byzantine resilience — the agreement/validity matrix and its price.

The paper's model lets processors fail only by stopping; E25 asks what
counting costs when they *lie*.  Two tables:

* the **resilience matrix** over {family} × {f} × {adversary strategy}:
  unprotected families (central, ww-tree) are run through the schedule
  explorer under a budget-f adversary and violate agreement, validity,
  or the run harness itself at f = 1, while the phase-king
  ``byz-counter`` completes with agreement and validity intact for
  every strategy at every admissible f < n/3;
* the **resilience cost**: msgs/op of ``byz-counter`` vs the ww-tree
  with no adversary active (f = 0 faults) — the price of voting on
  every increment is a Θ(n²·f) message blow-up per op, the overhead a
  deployment pays even when nobody lies — and, per f, the lockstep
  rounds the run takes under the synchronous runtime, clean and with a
  budget-f ``mixed`` adversary active.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult, make_table
from repro.registry import RunSession
from repro.sim.faults import BYZANTINE_STRATEGIES

E25_N = 7
"""Matrix population: n = 7 admits f ∈ {1, 2} (both below n/3)."""

E25_UNPROTECTED = ("central", "ww-tree")
"""Families without ``tolerates_byzantine`` (explored to violation)."""


def _explore_unprotected(
    family: str, f: int, strategy: str, seed: int
) -> str:
    """Explore *family* under a budget-f adversary; name what broke."""
    from repro.explore import ExploreConfig, Explorer

    report = Explorer(
        ExploreConfig(
            counter=family,
            n=4,
            seed=seed,
            strategy="guided:5,random:5",
            budget=5,
            faults=f"byz={f}@{strategy}",
            workload="sequential",
            shrink=False,
            max_failures=10,
        )
    ).run()
    if report.ok:
        return "no violation found"
    oracles = sorted({failure.oracle for failure in report.failures})
    return "violates " + "+".join(oracles)


def _run_tolerant(f: int, strategy: str, seed: int) -> str:
    """Run byz-counter under the adversary; verify agreement+validity."""
    session = RunSession(
        f"byz-counter?f={f}",
        E25_N,
        policy="random",
        seed=seed,
        faults=f"byz={f}@{strategy}",
    )
    result = session.run_sequence()
    byz = session.fault_plan.byzantine_pids
    honest = [o.value for o in result.outcomes if o.initiator not in byz]
    assert len(honest) == E25_N - f, f"byz-counter f={f}: honest inc lost"
    assert len(set(honest)) == len(honest), "agreement: duplicate value"
    counts = {
        pid: count
        for pid, count in session.counter.replica_counts().items()
        if pid not in byz
    }
    assert len(set(counts.values())) == 1, "agreement: replicas diverge"
    bound = E25_N + max(
        (
            sum(c for origin, c in tally.items() if origin in byz)
            for pid, tally in session.counter.commit_origins().items()
            if pid not in byz
        ),
        default=0,
    )
    assert all(0 <= v < bound for v in honest), "validity: invented value"
    return "agreement+validity hold"


def _msgs_per_op(spec: str, n: int) -> float:
    session = RunSession(spec, n, policy="random", seed=3, trace_level="FULL")
    session.run_sequence()
    return len(session.network.trace.records) / n


def _sync_cost(f: int, faults: str | None) -> tuple[int, float]:
    """(lockstep rounds, msgs/op) of byz-counter under the sync runtime."""
    session = RunSession(
        f"byz-counter?f={f}",
        E25_N,
        policy="random",
        seed=3,
        faults=faults,
        runtime="sync",
        trace_level="FULL",
    )
    result = session.run_sequence(check_values=faults is None)
    byz = session.fault_plan.byzantine_pids if faults else frozenset()
    honest = [o.value for o in result.outcomes if o.initiator not in byz]
    assert len(honest) == E25_N - len(byz), f"f={f}: honest inc lost"
    assert len(set(honest)) == len(honest), f"f={f}: duplicate value"
    return session.runtime.rounds, len(session.network.trace.records) / E25_N


def run_e25(seed: int = 9) -> ExperimentResult:
    """E25: Byzantine resilience matrix and the cost of tolerance."""
    matrix_rows = []
    for family in E25_UNPROTECTED:
        for strategy in BYZANTINE_STRATEGIES:
            matrix_rows.append(
                [
                    family,
                    1,
                    strategy,
                    _explore_unprotected(family, 1, strategy, seed=seed),
                ]
            )
    for f in (1, 2):
        for strategy in BYZANTINE_STRATEGIES:
            matrix_rows.append(
                [
                    "byz-counter",
                    f,
                    strategy,
                    _run_tolerant(f, strategy, seed=seed),
                ]
            )

    tree = _msgs_per_op("ww-tree", E25_N)
    cost_rows = []
    cost_rows.append(["ww-tree", "-", f"{tree:.1f}", "1.0x", "-", "-", "-"])
    for f in (1, 2):
        rounds, cost = _sync_cost(f, None)
        mixed_rounds, mixed_cost = _sync_cost(f, f"byz={f}@mixed")
        cost_rows.append(
            [
                "byz-counter",
                f,
                f"{cost:.1f}",
                f"{cost / tree:.0f}x",
                rounds,
                f"{mixed_cost:.1f}",
                mixed_rounds,
            ]
        )

    return ExperimentResult(
        experiment_id="E25",
        claim="unprotected families violate agreement/validity at f = 1 "
        "while byz-counter survives every adversary strategy at f < n/3 — "
        "at a message cost orders of magnitude above the tree",
        tables=(
            make_table(
                f"E25a: resilience matrix (explorer at n=4 for unprotected "
                f"families; byz-counter at n={E25_N}, seed={seed})",
                ["family", "f", "adversary", "outcome"],
                matrix_rows,
                note=(
                    "Unprotected rows are explored (guided+random, "
                    "sequential workload) until an\noracle names the broken "
                    "invariant; 'runtime' means the protocol could not "
                    "even\ncomplete under the adversary.  byz-counter rows "
                    "are direct runs with agreement\nand validity asserted "
                    "on the honest evidence."
                ),
            ),
            make_table(
                f"E25b: resilience cost (n={E25_N}; clean runs, then a "
                f"budget-f mixed adversary)",
                [
                    "family",
                    "f",
                    "msgs/op",
                    "vs ww-tree",
                    "rounds",
                    "mixed msgs/op",
                    "mixed rounds",
                ],
                cost_rows,
                note=(
                    "The phase-king counter broadcasts echo and vote "
                    "rounds among all n replicas\nfor every single "
                    "increment (f + 1 phases of 3 all-to-all steps), so "
                    "its per-op\nmessage count is Θ(n²·f) against the "
                    "tree's Θ(log n) — the paper's bottleneck\nhierarchy "
                    "priced in fault-model strength.  Rounds are counted "
                    "by the lockstep\n(synchronous) runtime; the mixed "
                    "columns repeat the run with f replicas lying."
                ),
            ),
        ),
    )
