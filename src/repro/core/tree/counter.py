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

from collections.abc import Sequence
from functools import partial

from repro.api import Capabilities, DistributedCounter
from repro.core.tree.geometry import TreeGeometry
from repro.core.tree.policy import TreePolicy
from repro.core.tree.roles import RetirementEvent, RoleRegistry
from repro.core.tree.worker import LeafProgram, TreeWorker
from repro.errors import ConfigurationError
from repro.sim.messages import Message, OpIndex, ProcessorId
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
        self.leaves = LeafProgram(self)
        """The one program of every processor that holds no role."""
        # The stale-addressing paths are rare, so their state is the
        # counter's, not a slot of every worker: the two totals, and the
        # messages deferred until a hand-off arrives, by (worker, node).
        self._forwarded = 0
        self._deferred = 0
        self._pending: dict[tuple[ProcessorId, int], list[Message]] = {}
        # Every id the tree may touch is registered at once; its program
        # is chosen the first time the id is addressed.  The paper rounds
        # n up to the next k^(k+1) and preallocates whole replacement
        # intervals, so most ids never receive a message.
        network.register_lazy(
            range(1, self.geometry.processor_requirement() + 1), self._program
        )

    def _program(self, pid: ProcessorId) -> TreeWorker | LeafProgram:
        """Processor *pid*'s program on first contact: a worker if the
        scheme starts it on an inner node, else the shared leaf program
        (which promotes the id when an inner role reaches it)."""
        if pid == 1 or self.geometry.initially_worked_node(pid) is not None:
            return self._make_worker(pid)
        return self.leaves

    def _make_worker(self, pid: ProcessorId) -> TreeWorker:
        """Build processor *pid*'s worker (subclasses substitute their
        worker class here)."""
        return TreeWorker(pid, self)

    def _promote(self, pid: ProcessorId) -> TreeWorker:
        """Give leaf *pid* a worker of its own, entered in the network's
        processor table in place of the leaf program."""
        return self.network.replace(self._make_worker(pid))

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
        state, and so does asking for a pure leaf's (its leaf state is
        the counter's, so the worker behaves as the leaf did).
        """
        program = self.network.processor(pid)
        return self._promote(pid) if program is self.leaves else program

    @property
    def value(self) -> int:
        """Current counter value, read off the root role."""
        value = self.registry.root().value
        assert value is not None
        return value

    @property
    def retirements(self) -> Sequence[RetirementEvent]:
        """All retirement events so far, chronologically (read-only)."""
        return self.registry.retirements

    def total_forwarded(self) -> int:
        """Messages re-sent due to stale addressing (handshake overhead)."""
        return self._forwarded

    def total_deferred(self) -> int:
        """Messages that arrived before their role's hand-off did."""
        return self._deferred

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
    def begin_inc(
        self, pid: ProcessorId, op_index: OpIndex, request: object = None
    ) -> None:
        """Inject an operation at leaf *pid*: the counter's ``inc``, or a
        :mod:`repro.datatypes` *request* (materialising *pid* first: a
        transport needs its endpoint)."""
        if not 1 <= pid <= self.n:
            raise ConfigurationError(
                f"processor {pid} is not a client of this counter (1..{self.n})"
            )
        network = self._network
        network.processor(pid)
        network.inject(partial(self.leaves.request_inc, pid, request), op_index)
