"""Generalized tree-backed data structures (the paper's §2 remark).

    "Note that the argument in the Hot Spot Lemma can be made for the
    family of all distributed data structures in which an operation
    depends on the operation that immediately precedes it.  Examples for
    such data structures are a bit that can be accessed and flipped and
    a priority queue."

This module makes the remark concrete: a :class:`TreeDataStructure` is
the paper's communication tree — identical geometry, identifier
intervals, retirement protocol, O(k) bottleneck machinery — with the
root's semantics swapped out.  Subclasses override
:meth:`~repro.core.TreeCounter.apply_at_root` with any sequential state
machine; the Hot Spot Lemma and the load bounds carry over because the
communication structure is untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.core.tree.counter import TreeCounter
from repro.errors import ProtocolError
from repro.sim.messages import OpIndex, ProcessorId
from repro.sim.trace import Trace
from repro.workloads.driver import Received, observing


class TreeDataStructure(TreeCounter):
    """A sequentially dependent ADT hosted on the paper's tree.

    Subclasses override :meth:`apply_at_root` (and usually
    :meth:`initial_state`).  Operations are opaque *requests* interpreted
    only at the root, so inner nodes stay oblivious relays — exactly the
    property that lets the paper's load analysis apply verbatim.
    """

    name = "tree-adt"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.registry.root().value = self.initial_state()

    def initial_state(self) -> Any:
        """The root's starting state (the counter's is 0)."""
        return 0

    @property
    def state(self) -> Any:
        """Current root state (test introspection)."""
        return self.registry.root().value

    def begin_op(self, pid: ProcessorId, op_index: OpIndex, request: Any) -> None:
        """Inject operation *request* at processor *pid*."""
        self.begin_inc(pid, op_index, request)


@dataclass(frozen=True, slots=True)
class AdtOutcome:
    """One completed ADT operation."""

    op_index: OpIndex
    initiator: ProcessorId
    request: Any
    reply: Any
    messages: int


@dataclass(slots=True)
class AdtRunResult:
    """Everything measured about one ADT workload execution."""

    name: str
    n: int
    trace: Trace
    outcomes: list[AdtOutcome] = field(default_factory=list)

    def replies(self) -> list[Any]:
        """Replies in operation order."""
        return [outcome.reply for outcome in self.outcomes]

    def bottleneck_load(self) -> int:
        """The paper's ``m_b`` for this run."""
        return self.trace.bottleneck()[1]

    @property
    def total_messages(self) -> int:
        """Messages delivered over the whole run."""
        return self.trace.total_messages


def run_ops(
    structure: TreeDataStructure,
    ops: Sequence[tuple[ProcessorId, Any]],
) -> AdtRunResult:
    """Run ``(pid, request)`` operations sequentially with quiescence.

    The ADT analogue of :func:`repro.workloads.run_sequence`: operation
    ``i+1`` starts only after operation ``i``'s process terminated, the
    paper's sequential-timing assumption.
    """
    network = structure.network
    result = AdtRunResult(name=structure.name, n=structure.n, trace=network.trace)
    received = Received(network)
    with observing(structure, received.add):
        for op_index, (pid, request) in enumerate(ops):
            structure.begin_op(pid, op_index, request)
            network.run_until_quiescent()
            replies = received.take().get(pid, ())
            if len(replies) != 1:
                raise ProtocolError(
                    f"operation {op_index}: processor {pid} received "
                    f"{len(replies)} replies instead of 1"
                )
            result.outcomes.append(
                AdtOutcome(
                    op_index=op_index,
                    initiator=pid,
                    request=request,
                    reply=replies[0][0],
                    messages=network.trace.messages_for_op(op_index),
                )
            )
    return result
