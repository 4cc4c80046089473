"""Arrow-protocol counter: token mobility via path reversal (Raymond 89).

A different point in the design space: instead of a fixed value-holder,
the counter value travels with a *token*.  A binary tree spans the
processors; every node keeps an *arrow* pointing toward the current
token owner.  An ``inc`` request climbs along arrows, reversing each
arrow to point back toward the requester as it passes; when it reaches
the owner, the token (carrying the value) is sent directly to the
requester, who increments and becomes the new owner.

Why it belongs in this reproduction: the protocol's load is *order
sensitive*.  Requests between nearby leaves never reach the top of the
tree, so the friendly identity order produces O(1) load on the root
host — seemingly beating the paper's bound.  It does not, of course:
the Lower Bound Theorem quantifies over operation orders, and an
adversarial order (alternating across the root) drives the root host
straight back to Θ(n).  Benchmark E13 plays both orders plus the §3
greedy adversary against it.

Restriction: like the paper's model, operations are sequential (one
``inc`` finishes before the next starts).  Concurrent requests would
need Raymond's request queues; the sequential reproduction keeps the
protocol minimal and raises on overlap instead of misbehaving silently.
"""

from __future__ import annotations

from repro.api import Capabilities, DistributedCounter
from repro.errors import ConfigurationError, ProtocolError
from repro.sim.messages import Message, OpIndex, ProcessorId
from repro.sim.network import Network
from repro.sim.processor import Processor

KIND_REQUEST = "arrow-request"
KIND_TOKEN = "arrow-token"

_HERE = -1
"""Arrow value meaning: the token is at (or below, via the leaf) this node."""


class _ArrowHost(Processor):
    """A processor hosting tree-node arrow state and its own leaf."""

    def __init__(self, pid: ProcessorId, counter: "ArrowCounter") -> None:
        super().__init__(pid)
        self._counter = counter
        # Arrow per hosted tree node: node -> neighbour node id, or _HERE.
        self.arrows: dict[int, int] = {}
        # Leaf-side state.
        self.has_token = False
        self.value_in_token = 0

    # -- client side -----------------------------------------------------
    def request_inc(self) -> None:
        if self.has_token:
            # Owner increments locally: no messages, like the central
            # counter's server case.
            value = self.value_in_token
            self.value_in_token += 1
            self._counter.deliver_result(self.pid, value)
            return
        # The entry leaf is co-hosted with the client: its step is a
        # local action, not a message (the first message is the hop to
        # the parent's host).
        entry = self._counter.leaf_node_of(self.pid)
        self._counter.host_step(self, node=entry, origin=self.pid, came_from=None)

    # -- node side -------------------------------------------------------
    def on_message(self, message: Message) -> None:
        if message.kind == KIND_REQUEST:
            self._counter.host_step(
                self,
                node=message.payload["node"],
                origin=message.payload["origin"],
                came_from=message.payload["came_from"],
            )
        elif message.kind == KIND_TOKEN:
            self.has_token = True
            self.value_in_token = message.payload["value"]
            value = self.value_in_token
            self.value_in_token += 1
            self._counter.deliver_result(self.pid, value)
        else:
            raise ProtocolError(f"arrow counter: unknown kind {message.kind!r}")


class ArrowCounter(DistributedCounter):
    """Token-mobile counter on a binary spanning tree with path reversal.

    Args:
        network: simulator to wire into.
        n: number of client processors (1..n).
        initial_owner: leaf that starts with the token (and value 0).
    """

    name = "arrow"
    capabilities = Capabilities(
        sequential_only=True,
        restriction=(
            "the arrow protocol serializes operations: overlapping incs "
            "would need Raymond-style request queues, which the paper's "
            "sequential model does not include"
        ),
    )

    def __init__(
        self, network: Network, n: int, initial_owner: ProcessorId = 1
    ) -> None:
        super().__init__(network, n)
        if not 1 <= initial_owner <= n:
            raise ConfigurationError(
                f"initial owner {initial_owner} outside 1..{n}"
            )
        self.initial_owner = initial_owner
        self._hosts: dict[ProcessorId, _ArrowHost] = {}
        for pid in self.client_ids():
            host = _ArrowHost(pid, self)
            network.register(host)
            self._hosts[pid] = host
        self._build_tree()
        self._in_flight = False

    # ------------------------------------------------------------------
    # Topology: a heap-shaped binary tree with one leaf node per client.
    # Node ids: 1..(2^ceil(log2 n) * 2 - 1) heap indices; leaves at the
    # bottom level map to clients (extra leaves unused).
    # ------------------------------------------------------------------
    def _build_tree(self) -> None:
        leaves = 1
        while leaves < self.n:
            leaves *= 2
        self.leaf_base = leaves  # heap index of the first leaf
        self.node_count = 2 * leaves - 1
        # Arrows: every node initially points toward the initial owner's
        # leaf node.
        owner_leaf = self.leaf_node_of(self.initial_owner)
        owner_path = set(self._path_to_root(owner_leaf))
        for node in range(1, self.node_count + 1):
            host = self._hosts[self.host_of(node)]
            if node in owner_path:
                # Point down toward the owner (child on the path), or
                # _HERE at the owner's leaf itself.
                if node == owner_leaf:
                    host.arrows[node] = _HERE
                else:
                    child = self._child_toward(node, owner_leaf)
                    host.arrows[node] = child
            else:
                host.arrows[node] = self._parent(node)
        self._hosts[self.initial_owner].has_token = True
        self._hosts[self.initial_owner].value_in_token = 0

    def _parent(self, node: int) -> int:
        return node // 2

    def _child_toward(self, node: int, descendant: int) -> int:
        child = descendant
        while child // 2 != node:
            child //= 2
        return child

    def _path_to_root(self, node: int) -> list[int]:
        path = []
        while node >= 1:
            path.append(node)
            node //= 2
        return path

    def leaf_node_of(self, pid: ProcessorId) -> int:
        """Heap index of client *pid*'s leaf node."""
        return self.leaf_base + pid - 1

    def host_of(self, node: int) -> ProcessorId:
        """Processor hosting tree node *node*.

        Leaves are hosted by their own client; inner nodes round-robin.
        """
        if node >= self.leaf_base:
            pid = node - self.leaf_base + 1
            return pid if pid <= self.n else ((pid - 1) % self.n) + 1
        return ((node - 1) % self.n) + 1

    # ------------------------------------------------------------------
    # Protocol step, executed inside host handlers
    # ------------------------------------------------------------------
    def host_step(
        self,
        at: _ArrowHost,
        node: int,
        origin: ProcessorId,
        came_from: int | None,
    ) -> None:
        """One hop of a climbing request at *node* (hosted by *at*)."""
        arrow = at.arrows.get(node)
        if arrow is None:
            raise ProtocolError(f"host {at.pid} does not own node {node}")
        # Reverse: the arrow now points back toward the requester.
        if came_from is None:
            # The request entered at the origin's own leaf.
            at.arrows[node] = _HERE if node >= self.leaf_base else came_from
        else:
            at.arrows[node] = came_from
        if arrow == _HERE:
            # This node is the owner's leaf: the owner hands the token
            # directly to the requester.
            owner_pid = node - self.leaf_base + 1
            owner_host = self._hosts[owner_pid]
            if not owner_host.has_token:
                raise ProtocolError(
                    f"arrow pointed HERE at {node} but processor "
                    f"{owner_pid} has no token"
                )
            owner_host.has_token = False
            if owner_pid == origin:
                # Degenerate self-request (cannot happen: owners answer
                # locally), kept as a guard.
                raise ProtocolError("owner requested the token it holds")
            at.send(origin, KIND_TOKEN, {"value": owner_host.value_in_token})
            return
        # Forward along the old arrow.
        at.send(
            self.host_of(arrow),
            KIND_REQUEST,
            {"node": arrow, "origin": origin, "came_from": node},
        )

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def begin_inc(self, pid: ProcessorId, op_index: OpIndex) -> None:
        if pid not in self._hosts:
            raise ConfigurationError(f"processor {pid} is not a client (1..{self.n})")
        host = self._hosts[pid]
        self.network.inject(host.request_inc, op_index=op_index)

    @property
    def owner(self) -> ProcessorId:
        """The client currently holding the token (test introspection)."""
        for pid, host in self._hosts.items():
            if host.has_token:
                return pid
        raise ProtocolError("no processor holds the token")

    @property
    def value(self) -> int:
        """Current counter value, read from the token."""
        return self._hosts[self.owner].value_in_token
