"""The paper's communication-tree counter, decomposed.

* :mod:`~repro.core.tree.geometry` — tree shape and the identifier
  intervals of §4's replacement scheme.
* :mod:`~repro.core.tree.policy` — retirement knobs (threshold, interval
  exhaustion behaviour).
* :mod:`~repro.core.tree.roles` — migrating node state and the registry
  enforcing the id discipline.
* :mod:`~repro.core.tree.protocol` — wire format of the four message
  kinds.
* :mod:`~repro.core.tree.worker` — the per-processor program.
* :mod:`~repro.core.tree.counter` — the assembled
  :class:`~repro.api.DistributedCounter`.
"""

from repro.core.tree.counter import TreeCounter
from repro.core.tree.geometry import (
    TreeGeometry,
    lower_bound_k,
    paper_k_for,
)
from repro.core.tree.policy import IntervalMode, TreePolicy
from repro.core.tree.roles import NodeRole, RetirementEvent, RoleRegistry

__all__ = [
    "IntervalMode",
    "NodeRole",
    "RetirementEvent",
    "RoleRegistry",
    "TreeCounter",
    "TreeGeometry",
    "TreePolicy",
    "lower_bound_k",
    "paper_k_for",
]
