"""Load analysis of quorum systems (Naor–Wool style).

A *strategy* is a probability distribution over a system's quorums; the
*load* of element ``p`` under a strategy is the probability that a
quorum containing ``p`` is picked, and the *system load* is the max over
elements, minimized over strategies.  Load is the quorum-world analogue
of the paper's bottleneck measure: it lower-bounds how evenly any access
scheme can spread work.

Two computations are provided:

* :func:`uniform_load` — the load under the uniform strategy over the
  enumerated family (what the rotating quorum counter approximates);
* :func:`optimal_load` — the exact LP optimum via :mod:`scipy.optimize`
  (minimize ``t`` s.t. the picking probabilities sum to 1 and each
  element's incidence mass is ≤ ``t``).

``numpy`` and ``scipy`` are imported inside :func:`optimal_load`, their
only user: ``import repro`` reaches this module, and a serving process
should not pay ~60 MB and half a second for an LP solver it never calls.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.quorum.systems import QuorumSystem
from repro.sim.messages import ProcessorId


@dataclass(frozen=True, slots=True)
class LoadAnalysis:
    """Loads of a quorum system under some strategy."""

    system_load: float
    element_loads: dict[ProcessorId, float]
    strategy: tuple[float, ...]

    def hottest(self) -> tuple[ProcessorId, float]:
        """The most loaded element and its load."""
        pid = max(self.element_loads, key=lambda p: (self.element_loads[p], -p))
        return pid, self.element_loads[pid]


def uniform_load(system: QuorumSystem) -> LoadAnalysis:
    """Load profile when every enumerated quorum is equally likely."""
    family = list(system.quorums())
    count = len(family)
    loads: dict[ProcessorId, float] = {p: 0.0 for p in system.universe}
    for quorum in family:
        for element in quorum:
            loads[element] += 1.0 / count
    return LoadAnalysis(
        system_load=max(loads.values()),
        element_loads=loads,
        strategy=tuple([1.0 / count] * count),
    )


def optimal_load(system: QuorumSystem) -> LoadAnalysis:
    """LP-optimal load: the best any strategy can do for this family.

    Variables: one picking probability per quorum plus the bound ``t``.
    Minimize ``t`` subject to ``Σ_Q x_Q = 1``, ``x ≥ 0`` and, for every
    element ``p``, ``Σ_{Q ∋ p} x_Q − t ≤ 0``.
    """
    import numpy as np
    from scipy.optimize import linprog

    family = list(system.quorums())
    count = len(family)
    elements = sorted(system.universe)
    element_index = {p: i for i, p in enumerate(elements)}
    # Incidence matrix: rows = elements, columns = quorums.
    incidence = np.zeros((len(elements), count))
    for q_index, quorum in enumerate(family):
        for element in quorum:
            incidence[element_index[element], q_index] = 1.0
    # Objective: minimize t (the last variable).
    cost = np.zeros(count + 1)
    cost[-1] = 1.0
    # Σ_{Q∋p} x_Q - t <= 0 for all p.
    a_ub = np.hstack([incidence, -np.ones((len(elements), 1))])
    b_ub = np.zeros(len(elements))
    # Σ x_Q = 1.
    a_eq = np.zeros((1, count + 1))
    a_eq[0, :count] = 1.0
    b_eq = np.ones(1)
    bounds = [(0.0, None)] * count + [(0.0, None)]
    outcome = linprog(
        cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds,
        method="highs",
    )
    if not outcome.success:  # pragma: no cover - scipy failure is exotic
        raise RuntimeError(f"load LP failed: {outcome.message}")
    strategy = tuple(float(x) for x in outcome.x[:count])
    loads = {
        p: float(incidence[element_index[p]] @ outcome.x[:count])
        for p in elements
    }
    return LoadAnalysis(
        system_load=float(outcome.x[-1]),
        element_loads=loads,
        strategy=strategy,
    )


def fault_tolerance(system: QuorumSystem, search_limit: int = 6) -> int:
    """Structural fault tolerance: crash failures the family survives.

    Equals ``|minimum hitting set of the quorum family| - 1``: an
    adversary that crashes a set intersecting *every* quorum kills the
    system, so the largest survivable crash count is one less than the
    smallest such set.  (Purely combinatorial — the execution model
    itself is failure-free, as in the paper.)

    Exact search over candidate sets up to *search_limit* elements,
    restricted to elements that actually appear in quorums; raises if
    the minimum hitting set is larger than the limit (exponential blow-up
    guard).
    """
    from itertools import combinations

    family = [set(q) for q in system.quorums()]
    if not family:
        return 0
    elements = sorted(set().union(*family))
    for size in range(1, min(search_limit, len(elements)) + 1):
        for candidate in combinations(elements, size):
            chosen = set(candidate)
            if all(chosen & quorum for quorum in family):
                return size - 1
    raise RuntimeError(
        f"minimum hitting set exceeds search limit {search_limit}; "
        "raise search_limit for this family"
    )


def capacity(system: QuorumSystem) -> float:
    """Naor–Wool capacity: sustainable accesses per step = 1 / load.

    Under the optimal strategy each element is busy a ``load`` fraction
    of the time, so the system completes ``1/load`` quorum accesses per
    unit of element work — the throughput face of the load coin.
    """
    return 1.0 / optimal_load(system).system_load


def naor_wool_floor(system: QuorumSystem) -> float:
    """The universal load lower bound ``max(1/c(S), c(S)/n)``.

    ``c(S)`` is the size of the smallest quorum; Naor & Wool showed the
    optimal load is at least ``1/c(S)`` and at least ``c(S)/n``, hence at
    least ``1/√n`` for every quorum system — the quorum-world echo of the
    paper's "some processor must be hit often".
    """
    smallest = min(len(q) for q in system.quorums())
    return max(1.0 / smallest, smallest / system.n)
