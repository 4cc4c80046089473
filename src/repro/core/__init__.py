"""The paper's primary contribution: the bottleneck-optimal tree counter.

Re-exports the public pieces of :mod:`repro.core.tree` plus the lemma
checkers of :mod:`repro.core.invariants`.
"""

from repro.core.tree import (
    IntervalMode,
    NodeRole,
    RetirementEvent,
    RoleRegistry,
    TreeCounter,
    TreeGeometry,
    TreePolicy,
    lower_bound_k,
    paper_k_for,
)

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
