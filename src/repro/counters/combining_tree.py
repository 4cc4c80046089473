"""Combining tree counter — message-passing port of YTL87 / GVW89.

Combining trees were "the first to explicitly aim at avoiding a
bottleneck" (paper §1, related work).  Requests climb a fixed tree; a
node that holds several pending requests *combines* them into a single
upward request, and the root answers with an interval of counter values
that is split on the way back down.

Port to message passing: every tree node is a role hosted on a client
processor (round-robin over ids 1..n, so no extra processors exist — the
same pool the paper's counter draws from).  Combining needs simultaneity,
so a node holding a fresh request arms a local *combining window* timer
and batches every request that arrives before it fires.

Behaviour to expect (and what the benchmarks show):

* sequential one-shot workload — no two requests are ever concurrent, no
  combining happens, every operation reaches the root: the root host is a
  Θ(n) bottleneck, exactly the paper's point that combining alone does
  not remove the inherent bottleneck *for sequences of dependent
  operations*;
* concurrent batches — combining collapses whole subtrees into one
  message and the root load drops to Θ(#batches).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from repro.api import Capabilities, DistributedCounter
from repro.errors import ConfigurationError, ProtocolError
from repro.sim.messages import Message, OpIndex, ProcessorId
from repro.sim.network import Network
from repro.sim.processor import Processor

KIND_REQUEST = "combine-request"
KIND_GRANT = "combine-grant"
KIND_CLIENT_GRANT = "combine-grant-client"

DEFAULT_WINDOW = 0.75
"""Default combining-window length in simulated time units (< 1 unit
message delay, so sequential unit-delay operations never combine by
accident but same-batch concurrent requests do).  Tune upward for
slower delivery models (e.g. the congestion policy), where requests
take longer to meet at a node."""


@dataclass(slots=True)
class _NodeState:
    """Combining state of one tree node role."""

    node: int
    parent: int | None
    pending: list[tuple[str, int, int, int]] = field(default_factory=list)
    """Pending requests: ``(requester_kind, requester_id, count, batch)``
    where requester_kind is ``"client"`` or ``"node"`` and batch is the
    requester's batch id (0 for clients)."""
    batches: dict[int, list[tuple[str, int, int, int]]] = field(
        default_factory=dict
    )
    """Batches sent upward, awaiting grants, keyed by batch id.  Explicit
    ids (not FIFO matching) keep grants correct under non-FIFO delivery."""
    next_batch_id: int = 0
    window_armed: bool = False


class _CombiningHost(Processor):
    """A processor hosting zero or more combining-tree node roles."""

    def __init__(self, pid: ProcessorId, counter: "CombiningTreeCounter") -> None:
        super().__init__(pid)
        self._counter = counter
        # host_of's modulus, kept here: every node-bound message is sent
        # to ``node % n + 1``.
        self._n = counter.n
        self._nodes: dict[int, _NodeState] = {}

    # -- client side ---------------------------------------------------
    def request_inc(self) -> None:
        """Initiate one ``inc``: ask this client's leaf-side node."""
        entry_node = self._counter.entry_node_of(self.pid)
        host = self._counter.host_of(entry_node)
        self.send(
            host,
            KIND_REQUEST,
            {"node": entry_node, "from_kind": "client", "from_id": self.pid, "count": 1},
        )

    # -- node side -----------------------------------------------------
    def on_message(self, message: Message) -> None:
        if message.kind == KIND_REQUEST:
            self._on_request(message)
        elif message.kind == KIND_GRANT:
            self._on_grant(message)
        elif message.kind == KIND_CLIENT_GRANT:
            self._on_client_grant(message.payload)
        else:
            raise ProtocolError(
                f"combining tree: unknown message kind {message.kind!r}"
            )

    def _on_client_grant(self, payload: dict) -> None:
        self._counter.deliver_result(self.pid, payload["value"])

    def _on_request(self, message: Message) -> None:
        payload = message.payload
        node_id = payload["node"]
        if node_id == -1:
            # The virtual root: hand out an interval of counter values.
            base = self._counter.take_values(payload["count"])
            self._grant("node", payload["reply_node"], payload["batch"], base)
            return
        self._pend(
            node_id,
            (
                payload["from_kind"],
                payload["from_id"],
                payload["count"],
                payload.get("batch", 0),
            ),
        )

    def _pend(self, node_id: int, entry: tuple[str, int, int, int]) -> None:
        """Queue *entry* at node *node_id*, arming its combining window."""
        state = self._nodes.get(node_id) or self._node(node_id)
        state.pending.append(entry)
        if not state.window_armed:
            state.window_armed = True
            network = self._network
            network.inject(
                partial(self._close_window, state),
                op_index=network.active_op,
                delay=self._counter.window,
            )

    def _close_window(self, state: _NodeState) -> None:
        """Combining window elapsed: ship the batch upward as one request."""
        state.window_armed = False
        if not state.pending:
            return
        batch_id = state.next_batch_id
        state.next_batch_id += 1
        state.batches[batch_id] = state.pending
        state.pending = []
        self._ship(state, batch_id)

    def _ship(self, state: _NodeState, batch_id: int) -> None:
        """Send batch *batch_id* of *state* upward as one request."""
        total = sum(count for _, _, count, _ in state.batches[batch_id])
        if state.parent is None:
            # Top node talks to the root-value holder.
            self.send(
                self._counter.root_host,
                KIND_REQUEST,
                {
                    "node": -1,
                    "count": total,
                    "reply_node": state.node,
                    "batch": batch_id,
                },
            )
        else:
            self.send(
                state.parent % self._n + 1,  # host_of(state.parent)
                KIND_REQUEST,
                {
                    "node": state.parent,
                    "from_kind": "node",
                    "from_id": state.node,
                    "count": total,
                    "batch": batch_id,
                },
            )

    def _on_grant(self, message: Message) -> None:
        """Split a granted interval among the batch that requested it."""
        payload = message.payload
        state = self._node(payload["node"])
        batch = state.batches.pop(payload["batch"], None)
        if batch is None:
            raise ProtocolError(
                f"combining node {state.node} got a grant for unknown "
                f"batch {payload['batch']}"
            )
        base = payload["base"]
        for from_kind, from_id, count, from_batch in batch:
            self._grant(from_kind, from_id, from_batch, base)
            base += count

    def _grant(self, kind: str, requester: int, batch: int, base: int) -> None:
        """Hand *base* on to one requester: a node's batch, or a client
        (one message unless the client is this host)."""
        if kind == "node":
            self.send(
                requester % self._n + 1,  # host_of(requester)
                KIND_GRANT,
                {"node": requester, "base": base, "batch": batch},
            )
        elif requester == self.pid:
            self._counter.deliver_result(requester, base)
        else:
            self.send(requester, KIND_CLIENT_GRANT, {"value": base})

    def _node(self, node_id: int) -> _NodeState:
        """The combining state of *node_id*, created on first use.

        The topology is arithmetic (see
        :meth:`CombiningTreeCounter.parent_of`), so hosting is a range
        check plus the round-robin rule — node states materialize only
        for nodes that actually see traffic, which keeps building an
        n=10^5 tree O(n) instead of O(nodes) object churn.
        """
        state = self._nodes.get(node_id)
        if state is not None:
            return state
        counter = self._counter
        if 0 <= node_id < counter.node_count and counter.host_of(node_id) == self.pid:
            state = _NodeState(node=node_id, parent=counter.parent_of(node_id))
            self._nodes[node_id] = state
            return state
        raise ProtocolError(
            f"processor {self.pid} does not host combining node {node_id}"
        )


class CombiningTreeCounter(DistributedCounter):
    """Software combining tree over the client processors.

    Args:
        network: simulator to wire into.
        n: number of clients (ids 1..n).
        arity: tree fan-in (default 2, the classic binary combining tree).
        window: combining-window length (see :data:`DEFAULT_WINDOW`).
    """

    name = "combining-tree"
    capabilities = Capabilities()

    #: Host processor class — subclasses (e.g. the crash-bypassing
    #: variant) override this to wrap node/client behaviour.
    host_class: type[_CombiningHost] = _CombiningHost

    def __init__(
        self,
        network: Network,
        n: int,
        arity: int = 2,
        window: float = DEFAULT_WINDOW,
    ) -> None:
        super().__init__(network, n)
        if arity < 2:
            raise ConfigurationError(f"combining arity must be >= 2, got {arity}")
        if window <= 0:
            raise ConfigurationError(f"combining window must be positive: {window}")
        self.arity = arity
        self.window = window
        self._value = 0
        self._hosts: dict[ProcessorId, _CombiningHost] = {}
        for pid in self.client_ids():
            host = self.host_class(pid, self)
            network.register(host)
            self._hosts[pid] = host
        self._build_tree()

    def _build_tree(self) -> None:
        """Lay out the tree arithmetically: layer sizes and offsets only.

        Node ids are dense integers, leaves first: layer 0 holds the
        ``ceil(n/arity)`` leaf-side nodes (client *pid* enters at node
        ``(pid-1)//arity``), each upper layer fans the one below in by
        *arity*, and the top combining node is ``node_count - 1``.  Only
        the per-layer start offsets are materialized — parents and entry
        nodes are computed on demand (:meth:`parent_of`,
        :meth:`entry_node_of`) and node *states* are created lazily by
        the hosts on first traffic, so construction is O(layers), not
        O(nodes).
        """
        arity = self.arity
        sizes = [(self.n + arity - 1) // arity]
        while sizes[-1] > 1:
            sizes.append((sizes[-1] + arity - 1) // arity)
        starts = [0]
        for size in sizes:
            starts.append(starts[-1] + size)
        #: ``_layer_starts[i]`` is the id of layer *i*'s first node; the
        #: final entry is the total node count.
        self._layer_starts: list[int] = starts
        self.node_count = starts[-1]
        # The root-value holder lives with the top node's host.
        self.root_host = self.host_of(self.node_count - 1)

    # ------------------------------------------------------------------
    # Topology helpers
    # ------------------------------------------------------------------
    def host_of(self, node: int) -> ProcessorId:
        """Processor hosting tree node *node* (round-robin over clients)."""
        return (node % self.n) + 1

    def parent_of(self, node: int) -> int | None:
        """Parent of tree node *node* (``None`` for the top node).

        Pure arithmetic over the layer offsets: a node at index *j* of
        layer *i* reports to index ``j // arity`` of layer *i + 1*.
        """
        starts = self._layer_starts
        if node == self.node_count - 1:
            return None
        layer = 0
        while node >= starts[layer + 1]:
            layer += 1
        return starts[layer + 1] + (node - starts[layer]) // self.arity

    def entry_node_of(self, pid: ProcessorId) -> int:
        """The leaf-side node client *pid* sends its requests to."""
        if not 1 <= pid <= self.n:
            raise KeyError(pid)
        return (pid - 1) // self.arity

    # ------------------------------------------------------------------
    # Value management (root side)
    # ------------------------------------------------------------------
    def take_values(self, count: int) -> int:
        """Reserve *count* consecutive values; return the first."""
        base = self._value
        self._value += count
        return base

    @property
    def value(self) -> int:
        """Current counter value (test introspection)."""
        return self._value

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def begin_inc(self, pid: ProcessorId, op_index: OpIndex) -> None:
        if pid not in self._hosts:
            raise ConfigurationError(f"processor {pid} is not a client (1..{self.n})")
        host = self._hosts[pid]
        self.network.inject(host.request_inc, op_index=op_index)
