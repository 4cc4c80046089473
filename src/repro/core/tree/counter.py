"""The paper's distributed counter: a communication tree with retirement.

This is the matching upper bound of §4.  The root holds the counter
value; leaves are the processors that request ``inc``; inner nodes relay
requests rootward; and every node retires its current processor after a
bounded amount of traffic, replacing it with the next id of a statically
preallocated interval.  Over the paper's workload — each of the ``n``
processors increments exactly once — every processor sends and receives
O(k) messages, where ``k·kᵏ = n`` (Bottleneck Theorem), matching the
lower bound of §3.
"""

from __future__ import annotations

from repro.api import Capabilities, DistributedCounter
from repro.core.tree.geometry import TreeGeometry
from repro.core.tree.policy import TreePolicy
from repro.core.tree.roles import RetirementEvent, RoleRegistry
from repro.core.tree.worker import TreeWorker
from repro.errors import ConfigurationError
from repro.sim.messages import OpIndex, ProcessorId
from repro.sim.network import Network


class TreeCounter(DistributedCounter):
    """Wattenhofer–Widmayer communication-tree counter.

    Args:
        network: simulator to wire into.
        n: number of client processors (1..n may initiate ``inc``).  If
            *n* is not of the form ``k^(k+1)`` the tree is built for the
            next such size, exactly as the paper prescribes ("otherwise
            simply increase n to the next higher value of the form
            k·kᵏ"); the extra leaves simply never increment.
        geometry: explicit tree shape (defaults to the smallest paper
            shape covering *n*; the E10 ablation passes custom shapes).
        policy: retirement policy (defaults to
            :meth:`TreePolicy.paper_default` for the shape's arity).
    """

    name = "ww-tree"
    capabilities = Capabilities(supports_retirement=True)

    def __init__(
        self,
        network: Network,
        n: int,
        geometry: TreeGeometry | None = None,
        policy: TreePolicy | None = None,
    ) -> None:
        super().__init__(network, n)
        self.geometry = geometry or TreeGeometry.for_processors(n)
        if n > self.geometry.leaf_count:
            raise ConfigurationError(
                f"tree with {self.geometry.leaf_count} leaves cannot serve "
                f"n={n} clients"
            )
        self.policy = policy or TreePolicy.paper_default(self.geometry.arity)
        self.registry = RoleRegistry(self.geometry, self.policy)
        # Every id the tree may touch is registered at once; a worker is
        # built the first time its id is addressed.  The paper rounds n
        # up to the next k^(k+1) and preallocates whole replacement
        # intervals, so most ids never receive a message.
        network.register_lazy(
            range(1, self.geometry.processor_requirement() + 1), self._make_worker
        )

    def _make_worker(self, pid: ProcessorId) -> TreeWorker:
        """Build processor *pid*'s program (the network calls this on
        first contact; subclasses substitute their worker class here)."""
        return TreeWorker(pid, self)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def k(self) -> int:
        """The paper's parameter k (the tree arity)."""
        return self.geometry.arity

    def worker(self, pid: ProcessorId) -> TreeWorker:
        """The worker program of processor *pid* (test introspection).

        Workers live in the network's processor table only; asking for
        one that no message has reached yet builds it, in its initial
        state.
        """
        return self.network.processor(pid)

    def _built_workers(self) -> list[TreeWorker]:
        """The workers that exist — the only ones that can hold state."""
        network = self.network
        limit = self.geometry.processor_requirement()
        return [
            network.processor(pid)
            for pid in network.materialised_ids()
            if pid <= limit
        ]

    @property
    def value(self) -> int:
        """Current counter value, read off the root role."""
        value = self.registry.root().value
        assert value is not None
        return value

    @property
    def retirements(self) -> list[RetirementEvent]:
        """All retirement events so far, chronologically."""
        return self.registry.retirements

    def total_forwarded(self) -> int:
        """Messages re-sent due to stale addressing (handshake overhead)."""
        return sum(worker.forwarded_messages for worker in self._built_workers())

    def total_deferred(self) -> int:
        """Messages that arrived before their role's hand-off did."""
        return sum(worker.deferred_messages for worker in self._built_workers())

    # ------------------------------------------------------------------
    # Root semantics (overridden by the generalized data structures)
    # ------------------------------------------------------------------
    def apply_at_root(self, role, request: object) -> object:
        """Apply one operation at the root; return the reply.

        The counter's semantics: return the current value, then
        increment (§2's test-and-increment).  Subclasses in
        :mod:`repro.datatypes` override this to realize the other
        sequentially dependent data types the paper's §2 mentions; the
        whole tree/retirement machinery is shared.
        """
        assert role.value is not None
        value = role.value
        role.value = value + 1
        return value

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def begin_inc(self, pid: ProcessorId, op_index: OpIndex) -> None:
        if not 1 <= pid <= self.n:
            raise ConfigurationError(
                f"processor {pid} is not a client of this counter (1..{self.n})"
            )
        self.network.inject(self.worker(pid).request_inc, op_index=op_index)
