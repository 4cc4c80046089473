"""Execution traces: the ledger of delivered messages, at a chosen fidelity.

The trace is the single source of truth for the paper's quantities:

* the *message load* ``m_p`` of processor ``p`` — how many messages ``p``
  sent or received (§3);
* the *footprint* ``I_p`` of an ``inc`` — the processors that sent or
  received a message during that operation (§2, used by the Hot Spot
  Lemma);
* the per-operation message lists that the communication-DAG and
  communication-list constructions of §3 consume.

Deliveries are all a trace records.  Injected faults live in the fault
plan's ledger, suspicions and restores in the failure detector's, and
recoveries, failovers and checkpoints in the recovery manager's: each
event once, in the ledger of the component that made it.

A trace is append-only during the simulation and read-only afterwards.
All analysis (loads, bottleneck, DAGs, lemma checkers) happens on the
trace, never inside protocol code, so no counter implementation can skew
its own accounting.

Tracing is tiered by :class:`TraceLevel` because record keeping dominates
the simulator's per-message cost at scale:

* ``FULL`` — every delivered message becomes a
  :class:`~repro.sim.messages.MessageRecord`, with per-operation record
  lists.  Required by DAG/list reconstruction, latency profiles,
  linearizability checks, ``load_snapshot`` and the lower-bound
  adversaries.
* ``LOADS`` — columnar counters only: per-processor sent/received (hence
  ``m_p``) as two int columns indexed by pid, per-operation message
  counts and footprints, total messages.  No record list.  Sufficient
  for every load/bottleneck measurement.
* ``OFF`` — nothing is kept; the simulator runs at full speed as a pure
  executor.

Querying a view the level did not capture raises
:class:`~repro.errors.TraceCapabilityError` naming the level required.
Under ``LOADS``, untracked traffic (``NO_OP``) still counts toward loads
and totals but is not entered in the per-operation views — by definition
it belongs to no tracked operation.
"""

from __future__ import annotations

import enum
import hashlib
from array import array
from collections import Counter, defaultdict
from itertools import compress
from operator import add, indexOf, itemgetter
from typing import Iterable, Iterator

from repro.errors import TraceCapabilityError
from repro.sim.columns import reach
from repro.sim.messages import NO_OP, MessageRecord, OpIndex, ProcessorId

INT_MAX = 2**31 - 1
"""The largest count an ``array("i")`` load column holds; no count
exceeds the trace's total, so the columns widen to ``"q"`` before the
total can pass it."""


class TraceLevel(enum.Enum):
    """How much of an execution the trace retains (fidelity vs speed)."""

    FULL = "full"
    """Keep every delivered-message record plus all columnar counters."""

    LOADS = "loads"
    """Keep columnar counters only: loads, per-op counts, footprints."""

    OFF = "off"
    """Keep nothing; the trace answers no queries."""

    @classmethod
    def coerce(cls, value: "TraceLevel | str") -> "TraceLevel":
        """Accept a :class:`TraceLevel` or its case-insensitive name/value."""
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            raise ValueError(
                f"unknown trace level {value!r}; "
                f"expected one of {[level.value for level in cls]}"
            ) from None


class Trace:
    """Delivered-message ledger with incrementally maintained indexes.

    At ``FULL`` level records are stored in delivery order with secondary
    indexes (per-processor load, per-operation record lists, per-operation
    footprints) kept incrementally, so post-run analysis of large
    simulations does not re-scan the record list per query.  At ``LOADS``
    level only the columnar counters exist; at ``OFF`` nothing does.
    """

    def __init__(self, level: TraceLevel = TraceLevel.FULL) -> None:
        self._level = level
        self._total = 0
        self._records: list[MessageRecord] = []
        # m_p's two halves, indexed by pid (pids are dense 1..n).  Both
        # are sized at the first count (Network._drain sizes them to its
        # id bound; record() to the ids it meets) and grow together.
        self._sent = array("i")
        self._received = array("i")
        self._op_counts: defaultdict[OpIndex, int] = defaultdict(int)
        self._by_op: defaultdict[OpIndex, list[MessageRecord]] = defaultdict(list)
        self._footprints: dict[OpIndex, set[ProcessorId]] = {}
        # Sealed operations, packed: op i's entry is the message count
        # then the footprint's ids, _sealed[_sealed_at[i]:][:_sealed_width[i]]
        # in one flat column; width 0 means "not sealed".
        self._sealed = array("i")
        self._sealed_at = array("i")
        self._sealed_width = array("i")

    # ------------------------------------------------------------------
    # Level introspection
    # ------------------------------------------------------------------
    @property
    def level(self) -> TraceLevel:
        """The fidelity this trace was captured at."""
        return self._level

    @property
    def keeps_records(self) -> bool:
        """True if per-message records are retained (``FULL`` only)."""
        return self._level is TraceLevel.FULL

    @property
    def keeps_loads(self) -> bool:
        """True if load counters are retained (``FULL`` or ``LOADS``)."""
        return self._level is not TraceLevel.OFF

    def _require_records(self, what: str) -> None:
        if self._level is not TraceLevel.FULL:
            raise TraceCapabilityError(
                f"{what} needs per-message records, but this trace was "
                f"captured at TraceLevel.{self._level.name}; rerun the "
                "simulation with trace_level=TraceLevel.FULL"
            )

    def _require_loads(self, what: str) -> None:
        if self._level is TraceLevel.OFF:
            raise TraceCapabilityError(
                f"{what} needs load counters, but this trace was captured "
                "at TraceLevel.OFF; rerun the simulation with "
                "trace_level=TraceLevel.LOADS or TraceLevel.FULL"
            )

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, record: MessageRecord) -> None:
        """Enter one delivered message, updating the level's indexes.

        The one definition of what a delivery does to a trace:
        ``LOADS`` updates the columnar counters — ``NO_OP`` traffic
        counts toward loads and totals but not the per-operation views;
        ``FULL`` also keeps the record and indexes every message, ``NO_OP``
        included, per operation; ``OFF`` keeps nothing.  The network's
        delivery loop (:meth:`Network._drain
        <repro.sim.network.Network._drain>`) inlines exactly this.
        """
        level = self._level
        if level is TraceLevel.OFF:
            return
        full = level is TraceLevel.FULL
        sender = record.sender
        receiver = record.receiver
        op_index = record.op_index
        size = len(self._sent)
        if not (0 <= sender < size and 0 <= receiver < size):
            self._reach(sender)
            self._reach(receiver)
        if self._total >= INT_MAX:
            self._widen()
        self._total += 1
        self._sent[sender] += 1
        self._received[receiver] += 1
        if op_index != NO_OP or full:
            if full:
                self._records.append(record)
                self._by_op[op_index].append(record)
            self._op_counts[op_index] += 1
            footprint = self._footprints.get(op_index)
            if footprint is None:
                self._footprints[op_index] = {sender, receiver}
            else:
                footprint.add(sender)
                footprint.add(receiver)

    def _fit(self, bound: ProcessorId) -> None:
        """Zero-extend both load columns to ``bound + 1`` slots (the
        network's registered id bound; never shrinks them).

        Empty columns are replaced by exactly sized ones (``frombytes``
        would over-allocate by 1/16); sized ones grow in place, since a
        drain in progress holds them.
        """
        sent = self._sent
        short = bound + 1 - len(sent)
        if short <= 0:
            return
        if not sent:
            zero = array(sent.typecode, (0,))
            self._sent = zero * short
            self._received = zero * short
        else:
            zeros = bytes(sent.itemsize * short)
            sent.frombytes(zeros)
            self._received.frombytes(zeros)

    def _reach(self, pid: ProcessorId) -> None:
        """Grow both load columns so *pid* indexes them — the rare path
        of an id past the end (an unregistered sender, or ``record`` on
        its own), doubling so a rising id costs amortised O(1)."""
        if pid < 0:
            raise ValueError(f"processor id {pid} is negative")
        reach(self._sent, pid)
        reach(self._received, pid)

    def _widen(self) -> None:
        """Re-type both load columns to 64-bit before a count can pass
        :data:`INT_MAX` (idempotent)."""
        if self._sent.typecode != "q":
            self._sent = array("q", self._sent)
            self._received = array("q", self._received)

    def seal_op(self, op_index: OpIndex) -> None:
        """Pack a finished operation's count and footprint into columns.

        The owner calls this at the operation's quiescence barrier: the
        entry ``count, *ids`` goes to the end of one flat column, its
        offset and width into two columns indexed by op (a set and a
        table entry per op cost ~5x as much).  The views answer from
        the sealed and the live part together, so a message that still
        arrives for a sealed op is counted; sealing again folds it in,
        each id once (appended anew; the old entry is left unread).
        ``NO_OP`` traffic is never sealed.
        """
        if op_index < 0:
            return
        live = self._footprints.pop(op_index, None)
        if not live:
            return
        count = self._op_counts.pop(op_index)
        flat, at, widths = self._sealed, self._sealed_at, self._sealed_width
        if op_index >= len(widths):
            reach(at, op_index)
            reach(widths, op_index)
        if widths[op_index]:
            start = at[op_index]
            count += flat[start]
            live.update(flat[start + 1 : start + widths[op_index]])
        at[op_index] = len(flat)
        widths[op_index] = 1 + len(live)
        flat.append(count)
        flat.extend(live)

    def _width(self, op_index: OpIndex) -> int:
        """The sealed width of *op_index*; 0 if it was never sealed."""
        widths = self._sealed_width
        return widths[op_index] if 0 <= op_index < len(widths) else 0

    def release_op(self, op_index: OpIndex) -> None:
        """Forget a finished operation's message count and footprint.

        For long-running owners that attribute messages to operations
        but never ask about them afterwards (a serving shard settles
        millions of batches): at ``LOADS`` the per-operation views are
        the only state that grows with the number of operations, and
        this bounds them.  A sealed op is unmarked (its entry stays
        behind, unread; such owners do not seal).  Loads
        and totals are untouched.  At ``FULL`` nothing is released — the
        record stream, and so the fingerprint, keeps every operation.
        """
        if self._level is TraceLevel.LOADS:
            self._op_counts.pop(op_index, None)
            self._footprints.pop(op_index, None)
            if self._width(op_index):
                self._sealed_width[op_index] = 0

    # ------------------------------------------------------------------
    # Whole-trace views
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        self._require_loads("len(trace)")
        return self._total

    def __iter__(self) -> Iterator[MessageRecord]:
        self._require_records("iterating a trace")
        return iter(self._records)

    @property
    def records(self) -> list[MessageRecord]:
        """All records in delivery order (do not mutate); ``FULL`` only."""
        self._require_records("Trace.records")
        return self._records

    @property
    def total_messages(self) -> int:
        """Total number of messages delivered."""
        self._require_loads("Trace.total_messages")
        return self._total

    def fingerprint(self) -> str:
        """Hex digest of the whole record stream (``FULL`` only).

        Two executions are trace-identical iff their fingerprints match
        — the equivalence tests and the checked-in golden table compare
        executions through this single value.  Hashes every
        field of every record in delivery order.
        """
        self._require_records("Trace.fingerprint")
        digest = hashlib.sha256()
        for record in self._records:
            digest.update(repr(record).encode())
            digest.update(b"\n")
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # Loads (the paper's m_p)
    # ------------------------------------------------------------------
    def load(self, pid: ProcessorId) -> int:
        """Messages sent plus received by *pid* — the paper's ``m_p``."""
        self._require_loads("Trace.load")
        if 0 <= pid < len(self._sent):
            return self._sent[pid] + self._received[pid]
        return 0

    def sent_by(self, pid: ProcessorId) -> int:
        """Messages sent by *pid*."""
        self._require_loads("Trace.sent_by")
        return self._sent[pid] if 0 <= pid < len(self._sent) else 0

    def received_by(self, pid: ProcessorId) -> int:
        """Messages received by *pid*."""
        self._require_loads("Trace.received_by")
        return self._received[pid] if 0 <= pid < len(self._received) else 0

    def loads(self) -> dict[ProcessorId, int]:
        """Mapping of processor id to load, for processors with load > 0,
        in ascending id order."""
        self._require_loads("Trace.loads")
        totals = enumerate(map(add, self._sent, self._received))
        return dict(filter(itemgetter(1), totals))

    def bottleneck(self) -> tuple[ProcessorId, int]:
        """The paper's bottleneck processor: ``argmax_p m_p`` and its load.

        Returns ``(0, 0)`` for an empty trace.  Ties are broken toward the
        smallest processor id so results are deterministic.  Two passes
        over the columns, neither of which builds a table.
        """
        self._require_loads("Trace.bottleneck")
        sent, received = self._sent, self._received
        best_load = max(map(add, sent, received), default=0)
        if not best_load:
            return (0, 0)
        return (indexOf(map(add, sent, received), best_load), best_load)

    # ------------------------------------------------------------------
    # Per-operation views
    # ------------------------------------------------------------------
    def op_indices(self) -> list[OpIndex]:
        """Sorted list of operation indices that produced traffic."""
        self._require_loads("Trace.op_indices")
        ops = set(compress(range(len(self._sealed_width)), self._sealed_width))
        ops.update(self._op_counts)
        ops.discard(NO_OP)
        return sorted(ops)

    def records_for_op(self, op_index: OpIndex) -> list[MessageRecord]:
        """Records attributed to operation *op_index*, in delivery order."""
        self._require_records("Trace.records_for_op")
        return list(self._by_op.get(op_index, []))

    def messages_for_op(self, op_index: OpIndex) -> int:
        """Number of messages attributed to operation *op_index*."""
        self._require_loads("Trace.messages_for_op")
        sealed = self._width(op_index) and self._sealed[self._sealed_at[op_index]]
        return sealed + self._op_counts.get(op_index, 0)

    def footprint(self, op_index: OpIndex) -> frozenset[ProcessorId]:
        """The paper's ``I_p``: processors touched by operation *op_index*.

        Includes every processor that sent or received at least one message
        during the operation (the initiator appears as soon as it sends its
        first message; an operation answered without any messages has an
        empty footprint).
        """
        self._require_loads("Trace.footprint")
        live = self._footprints.get(op_index, ())
        width = self._width(op_index)
        if not width:
            return frozenset(live)
        start = self._sealed_at[op_index]
        return frozenset(self._sealed[start + 1 : start + width]).union(live)

    def load_within_op(self, op_index: OpIndex) -> dict[ProcessorId, int]:
        """Per-processor message load restricted to one operation."""
        self._require_records("Trace.load_within_op")
        load: Counter[ProcessorId] = Counter()
        for record in self._by_op.get(op_index, []):
            load[record.sender] += 1
            load[record.receiver] += 1
        return dict(load)

    def load_snapshot(self, up_to_op: OpIndex) -> dict[ProcessorId, int]:
        """Loads counting only operations with index < *up_to_op*.

        This is the paper's ``m(p)`` "before the i-th inc operation" used by
        the weight function in the Lower Bound Theorem.  Untracked traffic
        (``NO_OP``) is excluded.
        """
        self._require_records("Trace.load_snapshot")
        load: Counter[ProcessorId] = Counter()
        for op_index, records in self._by_op.items():
            if op_index == NO_OP or op_index >= up_to_op:
                continue
            for record in records:
                load[record.sender] += 1
                load[record.receiver] += 1
        return dict(load)


def merge_loads(traces: Iterable[Trace]) -> dict[ProcessorId, int]:
    """Combine per-processor loads across several traces."""
    total: Counter[ProcessorId] = Counter()
    for trace in traces:
        total.update(trace.loads())
    return dict(total)
