"""Operation latency: the paper's §1 time-complexity measure.

"The time complexity of a distributed algorithm in an asynchronous
setting measures the worst case time from the start of a run to its
completion, based on the assumption that each message takes only one
time unit."  Under :class:`~repro.sim.UnitDelay` this module computes
exactly that per operation: the span from the operation's first send to
its last delivery.

The latency lens completes the cost picture the benchmarks paint:
the central counter answers in 2 time units but funnels all load; the
tree answers in ~k+1 units (its request must climb k+1 levels) —
decentralization's latency price is the tree's depth, which is also
O(log n / log log n).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.messages import OpIndex
from repro.sim.trace import Trace
from repro.workloads.driver import RunResult
from repro.workloads.sequences import percentile


def op_latency(trace: Trace, op_index: OpIndex) -> float:
    """Time from an operation's first send to its last delivery.

    Zero for operations that needed no messages (a server incrementing
    its own counter answers instantly).
    """
    records = trace.records_for_op(op_index)
    if not records:
        return 0.0
    first_send = min(record.send_time for record in records)
    last_delivery = max(record.deliver_time for record in records)
    return last_delivery - first_send


@dataclass(frozen=True, slots=True)
class LatencyProfile:
    """Per-operation latencies of one run, with the usual summaries."""

    latencies: tuple[float, ...]

    @classmethod
    def from_run(cls, result: RunResult) -> "LatencyProfile":
        """Latency of every completed operation of *result*."""
        return cls(
            latencies=tuple(
                op_latency(result.trace, outcome.op_index)
                for outcome in result.outcomes
            )
        )

    @property
    def worst(self) -> float:
        """The paper's worst-case time over the operation sequence."""
        return max(self.latencies, default=0.0)

    @property
    def mean(self) -> float:
        """Average operation latency."""
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)

    def percentile(self, q: float) -> float:
        """Latency at quantile *q* in [0, 1] (nearest-rank)."""
        return percentile(self.latencies, q)


def detect_knee(
    rates: "list[float] | tuple[float, ...]",
    latencies: "list[float] | tuple[float, ...]",
    threshold: float = 3.0,
) -> float | None:
    """The saturation knee of a latency-vs-offered-load sweep.

    Given ascending offered *rates* and the measured latency at each,
    returns the first rate whose latency exceeds *threshold* times the
    unloaded baseline (the latency at the lowest rate) — the classic
    operational definition of the saturation point.  Returns ``None``
    when no point crosses, i.e. the sweep never saturated the system.

    This is how the paper's bottleneck shows up in a service: below the
    knee a structure's depth sets latency; at the knee its most loaded
    processor (the paper's ``m_b``) runs out of capacity and queueing
    delay takes over.
    """
    if len(rates) != len(latencies):
        raise ValueError(
            f"got {len(rates)} rates but {len(latencies)} latencies"
        )
    if threshold <= 1.0:
        raise ValueError(f"threshold must exceed 1.0, got {threshold}")
    if not rates:
        return None
    if list(rates) != sorted(rates):
        raise ValueError("rates must be ascending")
    baseline = latencies[0]
    if baseline <= 0:
        # A zero-latency baseline (all ops local) saturates as soon as
        # any queueing at all appears.
        for rate, latency in zip(rates, latencies):
            if latency > 0:
                return rate
        return None
    for rate, latency in zip(rates, latencies):
        if latency > threshold * baseline:
            return rate
    return None
