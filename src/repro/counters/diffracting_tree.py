"""Diffracting tree counter — message-passing port of SZ94.

A diffracting tree is a binary tree of balancers.  Two tokens that meet
at a node can *diffract*: one goes left, one goes right, and neither
touches the node's toggle.  A *prism* — an array of rendezvous slots in
front of each toggle — makes such meetings likely under concurrency.
Leaves are exit counters handing out ``leaf + L·j`` (``L`` leaves).

Port to message passing: each node's prism slots and toggle are roles
hosted on client processors (spread round-robin).  A token picks a
random prism slot of the node; if another token is already waiting there
the pair diffracts immediately; otherwise the token waits for a short
window and then falls through to the node's toggle host.

Expected behaviour (shown by the benchmarks): sequential one-shot
operations never meet, so every token visits every toggle on its path —
the root toggle host is a Θ(n) bottleneck; concurrent batches diffract
at the prisms and spread the load.
"""

from __future__ import annotations

import random
from functools import partial

from repro.api import Capabilities, DistributedCounter
from repro.errors import ConfigurationError, ProtocolError
from repro.sim.messages import Message, OpIndex, ProcessorId
from repro.sim.network import Network
from repro.sim.processor import Processor

KIND_PRISM = "dt-prism"
KIND_TOGGLE = "dt-toggle"
KIND_EXIT = "dt-exit"
KIND_VALUE = "dt-value"

DEFAULT_PRISM_WAIT = 0.75
"""Default wait of a lone token in a prism slot before it falls through
to the toggle (< 1 unit message delay: sequential tokens never pair,
concurrent ones can).  Tune upward for slower delivery models."""


class _DiffractingHost(Processor):
    """A processor hosting prism slots, toggles and/or exit counters."""

    def __init__(self, pid: ProcessorId, counter: "DiffractingTreeCounter") -> None:
        super().__init__(pid)
        self._counter = counter
        # Waiting token per prism slot key (node, slot):
        # (origin, seq) or None.
        self._waiting: dict[tuple[int, int], tuple[int, int] | None] = {}

    def request_inc(self) -> None:
        """Inject a token at the root node's prism."""
        self._counter.send_to_prism(self, origin=self.pid, node=1)

    def on_message(self, message: Message) -> None:
        payload = message.payload
        if message.kind == KIND_PRISM:
            self._on_prism_token(
                node=payload["node"],
                slot=payload["slot"],
                origin=payload["origin"],
                seq=payload["seq"],
            )
        elif message.kind == KIND_TOGGLE:
            self._counter.pass_toggle(self, node=payload["node"], origin=payload["origin"])
        elif message.kind == KIND_EXIT:
            self._counter.exit_token(self, leaf=payload["leaf"], origin=payload["origin"])
        elif message.kind == KIND_VALUE:
            self._counter.deliver_result(self.pid, payload["value"])
        else:
            raise ProtocolError(
                f"diffracting tree: unknown message kind {message.kind!r}"
            )

    # -- prism ----------------------------------------------------------
    def _on_prism_token(self, node: int, slot: int, origin: int, seq: int) -> None:
        key = (node, slot)
        waiting = self._waiting.get(key)
        if waiting is not None:
            # Diffraction: the pair splits without touching the toggle.
            self._waiting[key] = None
            other_origin, _other_seq = waiting
            self._counter.forward_to_child(self, node=node, origin=other_origin, side=0)
            self._counter.forward_to_child(self, node=node, origin=origin, side=1)
            return
        self._waiting[key] = (origin, seq)
        self.network.inject(
            partial(self._prism_timeout, key, origin, seq),
            op_index=self.network.active_op,
            delay=self._counter.prism_wait,
        )

    def _prism_timeout(self, key: tuple[int, int], origin: int, seq: int) -> None:
        """The window closed with no partner: fall through to the toggle."""
        if self._waiting.get(key) != (origin, seq):
            return  # already diffracted
        self._waiting[key] = None
        node = key[0]
        self.send(
            self._counter.toggle_host(node),
            KIND_TOGGLE,
            {"node": node, "origin": origin},
        )


class DiffractingTreeCounter(DistributedCounter):
    """Diffracting tree of depth ``d`` with ``2^d`` exit counters.

    Args:
        network: simulator to wire into.
        n: number of clients (ids 1..n).
        depth: tree depth; 0, the default, picks ``log2(n)/2``
            rounded, ≥ 1 — a balanced prism/width default.
        prism_size: rendezvous slots per node (default 4).
        seed: seed for the clients' random slot choices.
    """

    name = "diffracting-tree"
    capabilities = Capabilities()

    def __init__(
        self,
        network: Network,
        n: int,
        depth: int = 0,
        prism_size: int = 4,
        seed: int = 0,
        prism_wait: float = DEFAULT_PRISM_WAIT,
    ) -> None:
        super().__init__(network, n)
        if depth == 0:
            depth = max(1, n.bit_length() // 2 - 1)
        if depth < 1:
            raise ConfigurationError(f"depth must be >= 1, got {depth}")
        if prism_size < 1:
            raise ConfigurationError(f"prism size must be >= 1, got {prism_size}")
        if prism_wait <= 0:
            raise ConfigurationError(f"prism wait must be positive: {prism_wait}")
        self.prism_wait = prism_wait
        self.depth = depth
        self.prism_size = prism_size
        self.leaf_count = 1 << depth
        self.exit_counts = [0] * self.leaf_count
        self._toggles: dict[int, int] = {}
        self._rng = random.Random(seed)
        self._hosts: dict[ProcessorId, _DiffractingHost] = {}
        for pid in self.client_ids():
            host = _DiffractingHost(pid, self)
            network.register(host)
            self._hosts[pid] = host
        self._next_seq = 0

    # ------------------------------------------------------------------
    # Hosting layout (spread roles round-robin over clients)
    # ------------------------------------------------------------------
    def prism_host(self, node: int, slot: int) -> ProcessorId:
        """Processor hosting prism slot (*node*, *slot*)."""
        return ((node * self.prism_size + slot) % self.n) + 1

    def toggle_host(self, node: int) -> ProcessorId:
        """Processor hosting the toggle of internal node *node*."""
        return ((node * 7919) % self.n) + 1

    def exit_host(self, leaf: int) -> ProcessorId:
        """Processor hosting exit counter *leaf* (0-based)."""
        return ((leaf * 104729 + 13) % self.n) + 1

    # ------------------------------------------------------------------
    # Token plumbing
    # ------------------------------------------------------------------
    def send_to_prism(self, at: _DiffractingHost, origin: ProcessorId, node: int) -> None:
        """Route a token to a random prism slot of *node*."""
        slot = self._rng.randrange(self.prism_size)
        seq = self._next_seq
        self._next_seq += 1
        at.send(
            self.prism_host(node, slot),
            KIND_PRISM,
            {"node": node, "slot": slot, "origin": origin, "seq": seq},
        )

    def forward_to_child(
        self, at: _DiffractingHost, node: int, origin: ProcessorId, side: int
    ) -> None:
        """Move a token to child *side* (0/1) of *node*."""
        child = 2 * node + side
        if child >= self.leaf_count * 2:
            raise ProtocolError(f"node {node} has no child {side}")
        if child >= self.leaf_count:
            leaf = child - self.leaf_count
            at.send(self.exit_host(leaf), KIND_EXIT, {"leaf": leaf, "origin": origin})
        else:
            self.send_to_prism(at, origin, child)

    def pass_toggle(self, at: _DiffractingHost, node: int, origin: ProcessorId) -> None:
        """A token passes a node's toggle (no diffraction happened)."""
        toggle = self._toggles.get(node, 0)
        self._toggles[node] = toggle + 1
        self.forward_to_child(at, node=node, origin=origin, side=toggle % 2)

    def exit_rank(self, leaf: int) -> int:
        """Value offset of exit *leaf*: its bit-reversed index.

        A tree of toggles delivers sequential tokens to leaves in
        bit-reversed order (root alternates the top bit, each level the
        next bit down), so leaf ``b_{d-1}…b_0`` is the
        ``reverse(b)``-th exit in token order.
        """
        rank = 0
        for bit in range(self.depth):
            rank = (rank << 1) | ((leaf >> bit) & 1)
        return rank

    def exit_token(self, at: _DiffractingHost, leaf: int, origin: ProcessorId) -> None:
        """A token reached exit counter *leaf*: assign its value."""
        value = self.exit_rank(leaf) + self.leaf_count * self.exit_counts[leaf]
        self.exit_counts[leaf] += 1
        if at.pid == origin:
            self.deliver_result(origin, value)
        else:
            at.send(origin, KIND_VALUE, {"value": value})

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def begin_inc(self, pid: ProcessorId, op_index: OpIndex) -> None:
        if pid not in self._hosts:
            raise ConfigurationError(f"processor {pid} is not a client (1..{self.n})")
        host = self._hosts[pid]
        self.network.inject(host.request_inc, op_index=op_index)
