"""E24: open-loop saturation — latency vs offered load, knee per family.

Closed-loop driving (every client immediately re-arms) can never show a
counter falling behind: clients slow down with the service.  E24 drives
every concurrent-capable counter family with *open-loop* Poisson
arrivals — injection times fixed before the run — and sweeps the offered
rate.  Below capacity, mean latency sits at the unloaded service time;
past it, the backlog grows for the whole run and latency climbs without
bound.  The experiment reports the detected saturation knee
(:func:`~repro.analysis.latency.detect_knee`) per family, the
Little's-law capacity prediction it tracks, and the hotspot message
count per operation at the top rate — the paper's bottleneck measure,
which separates the families even where their time capacity is similar.

The same knee shows in *wall-clock* time against the live TCP service:
``repro serve <spec> --time-scale 0.005`` plus ``repro loadgen --rates``.
"""

from __future__ import annotations

from repro.analysis.latency import detect_knee
from repro.experiments.base import ExperimentResult, make_table
from repro.registry import RunSession

E24_FAMILIES = (
    "central",
    "static-tree",
    "ww-tree?interval_mode=wrap",
    "combining-tree",
    "counting-network",
    "diffracting-tree",
)
"""Every concurrent-capable family (ww-tree in wrap mode: open-loop
arrivals reuse client ids, which strict mode forbids by design)."""

E24_RATES = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
"""The swept offered rates (operations per unit of simulated time)."""


def run_e24(
    n: int = 16,
    ops: int = 192,
    rates: tuple[float, ...] = E24_RATES,
    turnaround: float = 1.0,
) -> ExperimentResult:
    """E24: saturation knees under open-loop load, per counter family."""
    rows = []
    for spec in E24_FAMILIES:
        means: list[float] = []
        top = None
        for rate in rates:
            session = RunSession(spec, n)
            result = session.run_open_loop(
                ops=ops, rate=rate, turnaround=turnaround
            )
            means.append(result.mean_latency)
            top = result
        assert top is not None
        knee = detect_knee(list(rates), means)
        assert knee is not None, (
            f"E24 {spec}: no knee within rates {rates}; the top rate "
            "does not saturate this configuration"
        )
        unloaded = means[0]
        capacity = n / (unloaded + turnaround)
        hotspot = max(top.trace.loads().values())
        rows.append(
            [
                spec,
                f"{unloaded:.2f}",
                f"{capacity:.1f}",
                f"{knee:g}",
                f"{means[-1]:.1f}",
                f"{hotspot / ops:.2f}",
            ]
        )
    return ExperimentResult(
        experiment_id="E24",
        claim="open-loop arrivals make counter capacity visible as a "
        "latency knee at the Little's-law rate n/(S+turnaround), while "
        "the hotspot message count per operation — the paper's bottleneck "
        "measure — still separates the families",
        tables=(
            make_table(
                f"E24: open-loop saturation (n={n}, {ops} Poisson arrivals "
                f"per rate, turnaround={turnaround:g}, rates "
                f"{rates[0]:g}..{rates[-1]:g})",
                [
                    "counter",
                    "unloaded latency S",
                    "capacity n/(S+1)",
                    "knee rate",
                    "latency @ top rate",
                    "hotspot msgs/op",
                ],
                rows,
                note=(
                    "The knee is the first swept rate whose mean latency "
                    "exceeds 3x the lowest rate's,\nso it lands one or two "
                    "grid steps past the capacity estimate — degradation "
                    "at\ncapacity is gradual, divergence beyond it is not.  "
                    "In the uniform-delay model\nmessage *processing* is "
                    "free, so time capacity is client-bound and similar\n"
                    "across families; the hotspot column is where they "
                    "differ structurally: the\nstatic relay root funnels "
                    ">4 messages per op, central ~1.7 at its server, "
                    "while\ncombining keeps the maximum under 1 — the "
                    "bottleneck argument in open-loop form.\n`repro serve "
                    "--time-scale 0.005` + `repro loadgen --rates` shows "
                    "the same knee\nin wall-clock time against the live "
                    "TCP service."
                ),
            ),
        ),
    )
