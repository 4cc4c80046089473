"""Communication DAGs — §2's picture of an ``inc`` process, executable.

The paper visualizes the process of one ``inc`` as a directed acyclic
graph: nodes are *communication events* labelled with processor ids, and
an arc from a node labelled ``p1`` to a node labelled ``p2`` is a message
from ``p1`` to ``p2`` (Figure 1).  §3 then replaces the DAG by a
*communication list* — a topologically sorted linearization whose
consecutive-node arcs stand in for the DAG's messages (Figure 2).

This module rebuilds both objects from a recorded trace.  The DAG is
exact: each delivered message produces one arc from the sender's latest
event to a fresh receiver event, so causality is represented faithfully
(a processor's consecutive events are implicitly ordered by its local
execution).  The list is the canonical linearization by delivery order,
which in this simulator is a topological order by construction.

``networkx`` is imported when the first :class:`CommunicationDag` is
built, not with this module: ``import repro`` reaches it, and only DAG
reconstruction needs a graph library.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.sim.messages import MessageRecord, OpIndex, ProcessorId
from repro.sim.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - networkx loads on first use
    import networkx as nx


def _empty_graph() -> "nx.DiGraph":
    import networkx as nx

    return nx.DiGraph()


@dataclass(frozen=True, slots=True)
class DagNode:
    """One communication event: the *occurrence*-th event at *pid*."""

    pid: ProcessorId
    occurrence: int

    def __str__(self) -> str:
        return f"{self.pid}#{self.occurrence}"


@dataclass(slots=True)
class CommunicationDag:
    """The communication DAG of one operation.

    Attributes:
        op_index: which operation this is the DAG of.
        initiator: the processor that requested the ``inc``.
        graph: a :class:`networkx.DiGraph` whose nodes are
            :class:`DagNode` and whose edges carry the message uid.
    """

    op_index: OpIndex
    initiator: ProcessorId
    graph: nx.DiGraph = field(default_factory=_empty_graph)

    @property
    def message_count(self) -> int:
        """Messages in the process = arcs in the DAG."""
        return self.graph.number_of_edges()

    def participants(self) -> frozenset[ProcessorId]:
        """All processor labels appearing in the DAG (the paper's I_p)."""
        return frozenset(node.pid for node in self.graph.nodes)

    def is_acyclic(self) -> bool:
        """Sanity: a causal graph must be acyclic."""
        import networkx as nx

        return nx.is_directed_acyclic_graph(self.graph)

    def source(self) -> DagNode:
        """The initiator's first event — the source of the DAG."""
        return DagNode(self.initiator, 0)

    def depth(self) -> int:
        """Longest path length — the operation's causal latency in hops."""
        if self.graph.number_of_nodes() == 0:
            return 0
        import networkx as nx

        return int(nx.dag_longest_path_length(self.graph))

    def to_ascii(self) -> str:
        """A small human-readable rendering (for the examples)."""
        lines = [f"inc by processor {self.initiator} (op {self.op_index}):"]
        for sender, receiver, data in self.graph.edges(data=True):
            lines.append(f"  {sender} --msg#{data.get('uid', '?')}--> {receiver}")
        return "\n".join(lines)


def build_dag(trace: Trace, op_index: OpIndex, initiator: ProcessorId) -> CommunicationDag:
    """Reconstruct the communication DAG of *op_index* from *trace*.

    Each record adds an arc from the sender's most recent event to a new
    event at the receiver.  "Most recent event of the sender" is the
    receiver event of the last message the sender received (or sent — a
    send is performed within the handler of the event that caused it), or
    the processor's initial event if it has not communicated yet within
    this operation.
    """
    dag = CommunicationDag(op_index=op_index, initiator=initiator)
    latest_event: dict[ProcessorId, DagNode] = {}
    occurrences: dict[ProcessorId, int] = {}

    def event_for(pid: ProcessorId, fresh: bool) -> DagNode:
        if not fresh and pid in latest_event:
            return latest_event[pid]
        occurrence = occurrences.get(pid, 0)
        occurrences[pid] = occurrence + 1
        node = DagNode(pid, occurrence)
        latest_event[pid] = node
        dag.graph.add_node(node)
        return node

    event_for(initiator, fresh=True)  # the initiation event (Figure 1's source)
    for record in trace.records_for_op(op_index):
        sender_event = event_for(record.sender, fresh=False)
        receiver_event = event_for(record.receiver, fresh=True)
        dag.graph.add_edge(sender_event, receiver_event, uid=record.uid)
    return dag


@dataclass(frozen=True, slots=True)
class CommunicationList:
    """§3's communication list: a linearized process.

    ``labels[0]`` is the initiator; each subsequent label is the receiver
    of one message, in a topological (here: delivery) order.  The list
    *length* — the number of arcs, i.e. ``len(labels) - 1`` — equals the
    number of messages in the process, the paper's ``L_i``.
    """

    op_index: OpIndex
    labels: tuple[ProcessorId, ...]

    @property
    def length(self) -> int:
        """Number of arcs in the list — the paper's ``L_i`` / ``l_i``."""
        return max(0, len(self.labels) - 1)

    @property
    def initiator(self) -> ProcessorId:
        """The first label — the paper's ``p_{i,1} = q``."""
        return self.labels[0]

    def label(self, position: int) -> ProcessorId:
        """The paper's ``p_{i,j}`` with 1-based *position*."""
        return self.labels[position - 1]

    def participants(self) -> frozenset[ProcessorId]:
        """Distinct processors on the list."""
        return frozenset(self.labels)

    def __str__(self) -> str:
        return " -> ".join(str(label) for label in self.labels)


def build_list(
    trace: Trace, op_index: OpIndex, initiator: ProcessorId
) -> CommunicationList:
    """Linearize the process of *op_index* into a communication list.

    Delivery order is a topological order of the communication DAG in
    this simulator (messages are only sent from within delivered events),
    so ``[initiator] + [receiver of each record in delivery order]`` is a
    valid linearization with exactly one arc per message — "by counting
    each arc in the list just once we get a lower bound" (§3).
    """
    labels = [initiator]
    labels.extend(
        record.receiver for record in trace.records_for_op(op_index)
    )
    return CommunicationList(op_index=op_index, labels=tuple(labels))


def lists_for_run(trace: Trace, outcomes) -> list[CommunicationList]:
    """Communication lists for every completed operation of a run."""
    return [
        build_list(trace, outcome.op_index, outcome.initiator)
        for outcome in outcomes
    ]
