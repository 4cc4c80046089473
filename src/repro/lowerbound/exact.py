"""Exhaustive order search: the true worst case over operation orders.

The greedy adversary of :mod:`repro.lowerbound.adversary` realizes the
proof's *construction*; this module computes the quantity the theorem
actually bounds — ``max over orders`` of the bottleneck load — by
enumerating (or branch-and-bound pruning) every permutation of the
one-shot workload.  Feasible for small ``n`` only (the search runs
``O(n!)`` full simulations before pruning), it serves two purposes:

* calibrate the greedy adversary: how close does longest-list greed get
  to the exhaustive worst case (benchmark E16)?
* validate the theorem at its own quantifier: ``exact ≥ ⌊k(n)⌋`` on
  every implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import CounterFactory
from repro.errors import ConfigurationError
from repro.lowerbound.adversary import _trial
from repro.sim.messages import ProcessorId
from repro.sim.network import Network
from repro.sim.policies import DeliveryPolicy


@dataclass(frozen=True, slots=True)
class ExactAdversaryResult:
    """Outcome of the exhaustive order search."""

    n: int
    worst_order: tuple[ProcessorId, ...]
    worst_bottleneck: int
    orders_explored: int
    orders_pruned_by_symmetry: int


class ExactAdversary:
    """Search every one-shot order for the maximum bottleneck load.

    Args:
        factory: counter under attack — a registry spec string, a
            :class:`~repro.registry.CounterRef`, or a plain factory.
        n: workload size.  Guarded at ≤ 9 — beyond that the factorial
            search is not a tool, it is a space heater.
        policy: delivery policy (trials inherit copies).
        symmetry_prefix: if True, prune first-choice symmetry by trying
            only the distinct *behaviours* of the first pick, detected
            via the trial trace signature.  Sound for implementations
            whose clients are interchangeable up to renaming; disable
            for full exhaustiveness.
    """

    def __init__(
        self,
        factory: CounterFactory | str,
        n: int,
        policy: DeliveryPolicy | None = None,
        max_n: int = 9,
    ) -> None:
        from repro.registry import resolve_factory

        if n > max_n:
            raise ConfigurationError(
                f"exact search over {n}! orders is infeasible (limit {max_n})"
            )
        self._factory = resolve_factory(factory)
        self._n = n
        self._policy = policy

    def run(self) -> ExactAdversaryResult:
        """Explore the order tree; return the worst order found."""
        # FULL tracing on purpose: branch evaluation reads record history,
        # which the fast trace levels do not keep.
        network = Network(policy=self._policy)
        counter = self._factory(network, self._n)
        best = {
            "order": (),
            "bottleneck": -1,
            "explored": 0,
            "pruned": 0,
        }
        self._search(network, counter, chosen=[], remaining=list(range(1, self._n + 1)), best=best)
        return ExactAdversaryResult(
            n=self._n,
            worst_order=tuple(best["order"]),
            worst_bottleneck=best["bottleneck"],
            orders_explored=best["explored"],
            orders_pruned_by_symmetry=best["pruned"],
        )

    def _search(self, network, counter, chosen, remaining, best) -> None:
        if not remaining:
            bottleneck = network.trace.bottleneck()[1]
            best["explored"] += 1
            if bottleneck > best["bottleneck"]:
                best["bottleneck"] = bottleneck
                best["order"] = list(chosen)
            return
        op_index = len(chosen)
        seen_signatures: set = set()
        for pid in remaining:
            network_copy, counter_copy = _trial(network, counter, pid, op_index)
            # Symmetry pruning: two candidates whose incs touch the
            # same multiset of (relabelled-self) endpoints from the
            # same state lead to isomorphic futures; keep one.
            signature = self._signature(network_copy, op_index, pid)
            if signature in seen_signatures:
                best["pruned"] += 1
                continue
            seen_signatures.add(signature)
            chosen.append(pid)
            self._search(
                network_copy,
                counter_copy,
                chosen,
                [p for p in remaining if p != pid],
                best,
            )
            chosen.pop()

    @staticmethod
    def _signature(network, op_index, pid):
        """Trace signature of one trial inc, with the initiator masked.

        Two first-moves with equal signatures produce states identical
        up to swapping the initiators' ids, so exploring both only
        renames the remainder of the search tree.
        """
        records = network.trace.records_for_op(op_index)
        mask = lambda p: -1 if p == pid else p  # noqa: E731
        footprint = tuple(
            sorted((mask(r.sender), mask(r.receiver), r.kind) for r in records)
        )
        loads = tuple(
            sorted(
                (mask(p), load)
                for p, load in network.trace.loads().items()
            )
        )
        return (footprint, loads)
