"""Bitonic counting network — message-passing port of AHS91.

A counting network is a layered network of *balancers*: two-input,
two-output toggles that send the 1st, 3rd, 5th… token to their top output
wire and the rest to the bottom.  The bitonic network ``Bitonic[w]`` is
the comparator structure of Batcher's bitonic sorting network with every
comparator replaced by a balancer; its outputs satisfy the *step
property* in every quiescent state: ``0 <= y_i - y_j <= 1`` for
``i < j``.  Hanging a local counter on output wire ``i`` that hands out
values ``i, i+w, i+2w, …`` turns it into a counter.

Port to message passing: every balancer is a role hosted on a client
processor (round-robin, no extra processors), one traversal hop = one
message.  Each token crosses ``O(log² w)`` balancers, and the load of a
balancer host is proportional to the tokens crossing its balancers —
width trades total messages against per-host load, but for the paper's
sequential one-shot workload the bottleneck never drops to O(k): the
benchmarks show the crossover structure.
"""

from __future__ import annotations

from repro.api import Capabilities, DistributedCounter
from repro.errors import ConfigurationError, ProtocolError
from repro.sim.messages import Message, OpIndex, ProcessorId
from repro.sim.network import Network
from repro.sim.processor import Processor

KIND_TOKEN = "cn-token"
KIND_VALUE = "cn-value"

Balancer = tuple[int, int]
"""A balancer as ``(top_wire, bottom_wire)``: odd tokens exit on top."""


def bitonic_layers(width: int) -> list[list[Balancer]]:
    """Balancer layers of ``Bitonic[width]`` (width a power of two).

    Uses the iterative bitonic construction: phases ``k = 2, 4, …, w``;
    within a phase, distances ``j = k/2, k/4, …, 1``.  A comparator
    ``(i, i^j)`` is ascending (min exits on the lower wire) when
    ``i & k == 0`` and descending otherwise; the balancer's top output is
    wherever the comparator's minimum went, which is what makes the
    token-count isomorphism to the sorting network work.
    """
    if width < 1 or width & (width - 1):
        raise ConfigurationError(f"width must be a power of two, got {width}")
    layers: list[list[Balancer]] = []
    k = 2
    while k <= width:
        j = k // 2
        while j >= 1:
            layer: list[Balancer] = []
            for i in range(width):
                partner = i ^ j
                if partner > i:
                    if i & k == 0:
                        layer.append((i, partner))
                    else:
                        layer.append((partner, i))
            layers.append(sorted(layer, key=min))
            j //= 2
        k *= 2
    return layers


def step_property_holds(counts: list[int]) -> bool:
    """True if *counts* satisfies the step property of AHS91."""
    return all(
        0 <= counts[i] - counts[j] <= 1
        for i in range(len(counts))
        for j in range(i + 1, len(counts))
    )


class _BalancerHost(Processor):
    """A processor hosting balancer roles and/or output-wire counters."""

    def __init__(self, pid: ProcessorId, counter: "BitonicCountingNetwork") -> None:
        super().__init__(pid)
        self._counter = counter

    def request_inc(self) -> None:
        """Inject a token on this client's input wire."""
        wire = (self.pid - 1) % self._counter.width
        self._counter.route_token(self, origin=self.pid, layer=0, wire=wire)

    def on_message(self, message: Message) -> None:
        if message.kind == KIND_TOKEN:
            self._counter.handle_token(
                self,
                origin=message.payload["origin"],
                layer=message.payload["layer"],
                wire=message.payload["wire"],
            )
        elif message.kind == KIND_VALUE:
            self._counter.deliver_result(self.pid, message.payload["value"])
        else:
            raise ProtocolError(
                f"counting network: unknown message kind {message.kind!r}"
            )


class BitonicCountingNetwork(DistributedCounter):
    """``Bitonic[width]`` with per-wire exit counters, over ``n`` clients.

    Args:
        network: simulator to wire into.
        n: number of clients (ids 1..n).
        width: network width ``w`` (power of two); 0, the default,
            picks the largest power of two ≤ √n — a balanced default
            for the sweep.
    """

    name = "counting-network"
    capabilities = Capabilities()

    def __init__(self, network: Network, n: int, width: int = 0) -> None:
        super().__init__(network, n)
        if width == 0:
            width = 1
            while width * width * 4 <= n:
                width *= 2
            width = max(2, width)
        self.width = width
        self.layers = bitonic_layers(width)
        # Toggle state per (layer, balancer-index-in-layer).
        self._toggles: dict[tuple[int, int], int] = {}
        # Map (layer, wire) -> balancer index in that layer.
        self._wire_to_balancer: list[dict[int, int]] = []
        for layer in self.layers:
            index: dict[int, int] = {}
            for b_index, (top, bottom) in enumerate(layer):
                index[top] = b_index
                index[bottom] = b_index
            self._wire_to_balancer.append(index)
        self.exit_counts = [0] * width
        self._hosts: dict[ProcessorId, _BalancerHost] = {}
        for pid in self.client_ids():
            host = _BalancerHost(pid, self)
            network.register(host)
            self._hosts[pid] = host

    # ------------------------------------------------------------------
    # Hosting layout
    # ------------------------------------------------------------------
    def balancer_host(self, layer: int, b_index: int) -> ProcessorId:
        """Processor hosting balancer *b_index* of *layer*."""
        global_index = layer * (self.width // 2) + b_index
        return (global_index % self.n) + 1

    def wire_counter_host(self, wire: int) -> ProcessorId:
        """Processor hosting the exit counter of output *wire*."""
        offset = len(self.layers) * (self.width // 2)
        return ((offset + wire) % self.n) + 1

    # ------------------------------------------------------------------
    # Token plumbing (executed inside host message handlers)
    # ------------------------------------------------------------------
    def route_token(
        self, at: _BalancerHost, origin: ProcessorId, layer: int, wire: int
    ) -> None:
        """Send a token toward the balancer at (*layer*, *wire*)."""
        if layer == len(self.layers):
            target = self.wire_counter_host(wire)
            at.send(target, KIND_TOKEN, {"origin": origin, "layer": layer, "wire": wire})
            return
        b_index = self._wire_to_balancer[layer][wire]
        target = self.balancer_host(layer, b_index)
        at.send(target, KIND_TOKEN, {"origin": origin, "layer": layer, "wire": wire})

    def handle_token(
        self, at: _BalancerHost, origin: ProcessorId, layer: int, wire: int
    ) -> None:
        """Pass a token through one balancer (or the exit counter)."""
        if layer == len(self.layers):
            value = wire + self.width * self.exit_counts[wire]
            self.exit_counts[wire] += 1
            if at.pid == origin:
                self.deliver_result(origin, value)
            else:
                at.send(origin, KIND_VALUE, {"value": value})
            return
        b_index = self._wire_to_balancer[layer][wire]
        top, bottom = self.layers[layer][b_index]
        toggle = self._toggles.get((layer, b_index), 0)
        out_wire = top if toggle % 2 == 0 else bottom
        self._toggles[(layer, b_index)] = toggle + 1
        self.route_token(at, origin, layer + 1, out_wire)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def begin_inc(self, pid: ProcessorId, op_index: OpIndex) -> None:
        if pid not in self._hosts:
            raise ConfigurationError(f"processor {pid} is not a client (1..{self.n})")
        host = self._hosts[pid]
        self.network.inject(host.request_inc, op_index=op_index)
