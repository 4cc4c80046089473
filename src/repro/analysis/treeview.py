"""ASCII visualizations: the communication tree and load distributions.

Terminal-friendly renderings used by the examples and handy in a REPL:

* :func:`render_tree` — the paper's Figure 4 for a live counter: one row
  per level with worker/retirement/age aggregates;
* :func:`render_load_bars` — horizontal bars for the hottest processors;
* :func:`render_histogram` — the load distribution as a bar chart.
"""

from __future__ import annotations

from repro.analysis.load import LoadProfile
from repro.core.tree.counter import TreeCounter

_BAR = "█"


def render_tree(counter: TreeCounter) -> str:
    """Render the tree's levels with live role statistics.

    One row per inner level: node count, total retirements so far, the
    worker-id range currently in use, and the maximum node age — a
    whole-tree health snapshot in a few lines regardless of n.
    """
    geometry = counter.geometry
    registry = counter.registry
    lines = [
        f"communication tree: arity=depth={geometry.arity}, "
        f"{geometry.leaf_count} leaves, {geometry.total_inner_nodes()} inner nodes"
    ]
    retire_counts = registry.retirement_counts_by_level()
    for level in geometry.inner_levels():
        roles = [registry.role(node) for node in geometry.level_nodes(level)]
        workers = [role.worker for role in roles]
        max_age = max(role.age for role in roles)
        label = "root " if level == 0 else f"lvl {level}"
        lines.append(
            f"  {label}: {len(roles):>5} nodes | retired "
            f"{retire_counts[level]:>5}x | workers "
            f"{min(workers)}..{max(workers)} | max age {max_age}"
        )
    lines.append(f"  leaves: {geometry.leaf_count} processors (ids 1..{geometry.leaf_count})")
    return "\n".join(lines)


def render_load_bars(
    profile: LoadProfile, top: int = 10, width: int = 40
) -> str:
    """Horizontal bars for the *top* most loaded processors."""
    hottest = profile.top(top)
    if not hottest:
        return "(no load recorded)"
    peak = hottest[0][1]
    lines = [f"hottest {len(hottest)} processors (bar = load, peak {peak}):"]
    for pid, load in hottest:
        bar = _BAR * max(1, round(width * load / peak))
        lines.append(f"  p{pid:>6} {load:>6}  {bar}")
    return "\n".join(lines)


def render_histogram(
    profile: LoadProfile, bins: int = 8, width: int = 40
) -> str:
    """The load distribution over the whole population as bars."""
    histogram = profile.histogram(bins=bins)
    peak = max(count for _, _, count in histogram)
    if peak == 0:
        return "(empty histogram)"
    lines = [f"load histogram over {profile.population} processors:"]
    for low, high, count in histogram:
        bar = _BAR * round(width * count / peak)
        lines.append(f"  {low:>5}-{high:<5} {count:>6}  {bar}")
    return "\n".join(lines)
