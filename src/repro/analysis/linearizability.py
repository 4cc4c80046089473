"""Linearizability of concurrent counting runs (HSW related work).

The paper cites Herlihy/Shavit/Waarts, *Linearizable counting networks*:
plain counting networks hand out each value exactly once (they count)
but are **not linearizable** — an operation that finished strictly
before another began can receive the *larger* value.  This module
measures exactly that on recorded concurrent runs.

For a counter whose sequential spec returns the number of prior incs,
a concurrent run (with unique returned values) is linearizable iff the
value order extends the real-time precedence order:

    response(A) < request(B)  ⇒  value(A) < value(B)

(The values totally order the operations; any inversion against
real-time precedence makes a legal linearization impossible, and absent
inversions the value order itself is one.)

This module judges recorded runs and drives nothing: the
:class:`TimedOp` records come from :mod:`repro.workloads.driver`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import ProtocolError

# The timed drivers live with every other driver; re-exported because
# this module is where callers have always found them.
from repro.workloads.driver import (  # noqa: F401
    TimedOp,
    run_concurrent_timed,
    run_staggered_timed,
)


@dataclass(frozen=True, slots=True)
class Inversion:
    """A pair witnessing non-linearizability."""

    earlier: TimedOp
    later: TimedOp

    def __str__(self) -> str:
        return (
            f"op {self.earlier.op_index} (value {self.earlier.value}) finished "
            f"at t={self.earlier.response_time:g} before op "
            f"{self.later.op_index} began at t={self.later.request_time:g}, "
            f"yet got the larger value ({self.later.value} < {self.earlier.value})"
        )


@dataclass(frozen=True, slots=True)
class LinearizabilityReport:
    """Result of a linearizability check on one concurrent run."""

    operations: int
    precedence_pairs: int
    inversions: tuple[Inversion, ...]

    @property
    def linearizable(self) -> bool:
        """True iff no real-time inversion exists."""
        return not self.inversions


def check_linearizable_counting(ops: Sequence[TimedOp]) -> LinearizabilityReport:
    """Check the real-time/value-order consistency of *ops*.

    O(m log m): sort by value and keep the running maximum response
    time; op ``B`` is inverted iff some op with a larger value finished
    before ``B`` began.
    """
    values = sorted(op.value for op in ops)
    if len(set(values)) != len(values):
        raise ProtocolError("returned values are not unique; not a counting run")
    by_value = sorted(ops, key=lambda op: op.value)
    # Precedence pair count (for reporting): pairs with response<request.
    responses = sorted(op.response_time for op in ops)
    precedence_pairs = 0
    for op in ops:
        import bisect

        precedence_pairs += bisect.bisect_left(responses, op.request_time)
    inversions: list[Inversion] = []
    # Scan values descending, tracking the earliest-finishing op with a
    # larger value via running min response; an inversion exists for op
    # B if min_{value>value(B)} response < request(B).
    best_earlier: TimedOp | None = None
    for op in reversed(by_value):
        if best_earlier is not None and best_earlier.response_time < op.request_time:
            inversions.append(Inversion(earlier=best_earlier, later=op))
        if best_earlier is None or op.response_time < best_earlier.response_time:
            best_earlier = op
    inversions.reverse()
    return LinearizabilityReport(
        operations=len(ops),
        precedence_pairs=precedence_pairs,
        inversions=tuple(inversions),
    )
