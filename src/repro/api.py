"""The abstract data type *distributed counter* (§2 of the paper).

A distributed counter encapsulates an integer ``val`` and supports one
operation, ``inc``: it returns the current value to the requesting
processor and increments the counter by one.  The paper proves its lower
bound already for this minimal test-and-increment interface.

Implementations in this library are *protocol wirings*: constructing a
counter registers processor programs with a :class:`~repro.sim.Network`,
and :meth:`DistributedCounter.begin_inc` injects an operation request at
the initiating processor.  All communication goes through the network, so
message loads are measured, never self-reported.  Each returned value
leaves through the one observer slot and the counter keeps no history.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, ClassVar

from repro.errors import ConfigurationError
from repro.sim.messages import OpIndex, ProcessorId
from repro.sim.network import Network


@dataclass(frozen=True, slots=True)
class Capabilities:
    """What a counter implementation can (and cannot) do.

    Declared as a class attribute on every
    :class:`DistributedCounter` subclass and surfaced through the
    counter registry (:mod:`repro.registry`), so drivers, sweeps and the
    CLI can reject impossible pairings *before* running anything.

    Attributes:
        sequential_only: the protocol is only correct when one ``inc``
            finishes before the next starts (the paper's §2 timing
            assumption); the concurrent driver refuses such counters.
        supports_retirement: the implementation moves hot roles between
            processors (the paper's §4 retirement mechanism).
        needs_power_of_two_n: the wiring requires ``n`` to be a power of
            two.
        needs_square_n: the wiring requires ``n`` to be a perfect square
            (e.g. the Maekawa-grid quorum counter).
        tolerates_message_loss: operations still complete correctly when
            the network may drop messages.  Most bare protocols in this
            repo do not (the paper's model is failure-free); the flag
            becomes true when a counter runs behind
            :class:`~repro.sim.transport.ReliableTransport` or builds
            end-to-end retries into its own protocol, and the registry
            refuses lossy fault plans on counters without it.
        tolerates_crash: operations still complete correctly when a
            processor crashes (its links go permanently or transiently
            dead mid-run).  Requires protocol-level redundancy — a
            replica or a bypass route — plus failure detection; the
            recoverable variants in :mod:`repro.counters.recoverable`
            declare it, and the registry refuses permanent-crash fault
            plans on counters without it (a reliable transport alone
            cannot resurrect state parked on a dead processor).
        tolerates_byzantine: operations still complete correctly for
            honest processors when up to ``f`` processors are
            *Byzantine* — they corrupt, equivocate on, or withhold
            their own messages (``byz=f@strategy`` fault plans).
            Requires protocol-level agreement machinery (quorum echo
            rounds, value filtering); the ``byz-counter`` family in
            :mod:`repro.counters.byzantine` declares it, and the
            registry refuses Byzantine fault plans on counters without
            it — a lying processor defeats both retransmission and
            checkpoint recovery.
        explorable: the protocol remains correct under *any* legal
            reordering of equal-time events and any per-message delay —
            i.e. it bakes no hidden timing assumption beyond what
            :class:`Capabilities` already declares — so the schedule
            explorer (:mod:`repro.explore`) may drive it through
            adversarial interleavings and treat every oracle failure as
            a genuine protocol bug rather than an out-of-contract run.
            Defaults to ``True``; a counter that is only correct for
            specific delay regimes must opt out.
        restriction: one human-readable sentence naming the reason for
            the strongest restriction; used verbatim in
            :class:`~repro.errors.CapabilityError` messages.
    """

    sequential_only: bool = False
    supports_retirement: bool = False
    needs_power_of_two_n: bool = False
    needs_square_n: bool = False
    tolerates_message_loss: bool = False
    tolerates_crash: bool = False
    tolerates_byzantine: bool = False
    explorable: bool = True
    restriction: str = ""

    @property
    def supports_concurrent(self) -> bool:
        """Whether overlapping operations are allowed (dual of
        :attr:`sequential_only`)."""
        return not self.sequential_only

    def flags(self) -> tuple[str, ...]:
        """Short labels of every non-default capability (CLI listings)."""
        labels = []
        if self.sequential_only:
            labels.append("sequential-only")
        if self.supports_retirement:
            labels.append("retirement")
        if self.needs_power_of_two_n:
            labels.append("n=2^i")
        if self.needs_square_n:
            labels.append("n=i^2")
        if self.tolerates_message_loss:
            labels.append("loss-tolerant")
        if self.tolerates_crash:
            labels.append("crash-tolerant")
        if self.tolerates_byzantine:
            labels.append("byzantine-tolerant")
        if not self.explorable:
            labels.append("not-explorable")
        return tuple(labels)


class DistributedCounter(ABC):
    """Base class for distributed counter implementations.

    Subclasses register all their processors in ``__init__`` and implement
    :meth:`begin_inc`.  Returned values are delivered asynchronously,
    through :attr:`on_result`; the counter keeps no history of them.

    Attributes:
        on_result: the one observer slot — ``None``, or a callable
            ``(pid, value)`` invoked from :meth:`deliver_result` the
            moment a value is returned.  Whoever drives the counter (a
            workload driver, a serving shard or service) sets it and
            keeps the only record of the results.  Make it a bound
            method (or a :func:`functools.partial` over one) of a record
            object, not a closure: a deep copy of the counter taken
            mid-run then delivers into its own copy of the record.
        name: short human-readable implementation name; for registered
            implementations this equals the canonical registry key, so
            report tables, sweep cache keys and BENCH JSON agree.
        capabilities: the :class:`Capabilities` record drivers and the
            registry check before running anything.
    """

    name: str = "counter"
    capabilities: ClassVar[Capabilities] = Capabilities()

    def __init__(self, network: Network, n: int) -> None:
        if n <= 0:
            raise ConfigurationError(f"need at least one processor, got n={n}")
        self._network = network
        self._n = n
        self.on_result: Callable[[ProcessorId, int], None] | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def network(self) -> Network:
        """The network this counter is wired into."""
        return self._network

    @property
    def n(self) -> int:
        """Number of client processors that may request ``inc``."""
        return self._n

    def client_ids(self) -> range:
        """Processor ids allowed to initiate ``inc`` (the paper's 1..n)."""
        return range(1, self._n + 1)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    @abstractmethod
    def begin_inc(self, pid: ProcessorId, op_index: OpIndex) -> None:
        """Inject an ``inc`` request at processor *pid*.

        The request is the paper's operation initiation: a local event, not
        a message.  All messages it causes are attributed to *op_index*.
        """

    def deliver_result(self, pid: ProcessorId, value: int) -> None:
        """Hand *value* to *pid*: the moment its ``inc`` returns.

        Called by protocol code when the initiating processor receives
        its answer, and passed straight on to :attr:`on_result`.  The
        counter keeps no record of it: whoever asked keeps the result.
        """
        if self.on_result is not None:
            self.on_result(pid, value)


CounterFactory = Callable[[Network, int], DistributedCounter]
"""Builds a counter for ``n`` clients on a network — the sweep interface.

Factories let harnesses (benchmarks, the adversary, property tests) treat
all implementations uniformly: construct a fresh network, call the factory,
drive the workload, analyze the trace.
"""
