"""Checkpoint/restore and role handoff for crash-tolerant counters.

The fault layer can crash a processor
(:class:`~repro.sim.faults.CrashRule`); the failure detector
(:mod:`repro.sim.failure_detector`) can notice.  This module closes the
loop: a :class:`RecoveryManager` owns the detector, a checkpoint store
modelling stable storage, and the fault plan's
:class:`~repro.sim.faults.RecoveryPoint` schedule, and drives a
:class:`Recoverable` counter through the resulting lifecycle:

* **suspect** — the detector stopped hearing from a critical processor;
  the counter hands its role elsewhere (standby promotion, tree bypass).
* **restore** — a suspicion turned out to be false (or the processor's
  links came back); the counter may reintegrate it.
* **recover** — a ``recover=PID@tT`` point fired: the manager re-delivers
  the processor's last checkpoint and the counter replays whatever the
  checkpoint predates (the increments the processor missed while down).

Checkpoints are plain dictionaries the counter chooses to save
(:meth:`RecoveryManager.save_checkpoint`); the manager deep-copies them,
which is the simulation analogue of writing to storage that survives the
crash.  Note the contrast with the fault layer's crash approximation:
``CrashRule`` only severs *links*, so in-memory state technically
survives — the recovery contract is that a :class:`Recoverable` counter
never reads its own pre-crash volatile state after a recovery, only the
checkpoint plus what the protocol re-sends.

Failovers are measured, not just performed: the manager timestamps each
role handoff against the crash window that caused it, giving experiments
the failover-latency metric directly.
"""

from __future__ import annotations

import copy
import math
from abc import ABC, abstractmethod
from functools import partial
from typing import Any, NamedTuple, Sequence

from repro.errors import ConfigurationError
from repro.sim.failure_detector import FailureDetector
from repro.sim.columns import Rows
from repro.sim.faults import FaultPlan, RecoveryPoint
from repro.sim.messages import ProcessorId
from repro.sim.network import Network

__all__ = ["Recoverable", "RecoveryEvent", "RecoveryManager"]


class RecoveryEvent(NamedTuple):
    """One entry of the recovery ledger.

    Attributes:
        time: simulated time of the event.
        kind: ``"recover"``, ``"failover"`` or ``"checkpoint"``.
        pid: the processor concerned (for failovers: the *old* role
            holder).
        detail: human-readable specifics.
    """

    time: float
    kind: str
    pid: ProcessorId
    detail: str = ""

    def __str__(self) -> str:
        return f"[t={self.time:g}] {self.kind} pid={self.pid} {self.detail}"


class _RecoveryLog(Rows):
    """The recovery ledger as columns, kind and detail interned."""

    __slots__ = ()
    schema = {"time": "d", "kind": "s", "pid": "i", "detail": "s"}
    row = RecoveryEvent


class Recoverable(ABC):
    """The counter-side contract of crash recovery.

    Counters that declare ``Capabilities.tolerates_crash`` implement
    this alongside :class:`~repro.api.DistributedCounter`; the
    :class:`RecoveryManager` drives the hooks.  All hooks run as
    simulation events (inside the event loop), so they may send
    messages and schedule work like any protocol handler.
    """

    @abstractmethod
    def critical_pids(self) -> Sequence[ProcessorId]:
        """Processors whose crash the protocol must survive (monitored)."""

    @abstractmethod
    def on_processor_suspected(self, pid: ProcessorId, time: float) -> None:
        """The detector suspects *pid*; hand its role elsewhere."""

    @abstractmethod
    def on_processor_restored(self, pid: ProcessorId, time: float) -> None:
        """A suspicion of *pid* was cleared (false alarm or links back)."""

    @abstractmethod
    def on_processor_recovered(
        self, pid: ProcessorId, time: float, checkpoint: Any
    ) -> None:
        """*pid* formally recovered with its last *checkpoint* restored.

        *checkpoint* is the most recent state saved via
        :meth:`RecoveryManager.save_checkpoint`, or ``None`` if the
        processor never checkpointed — the counter must then rebuild
        from its peers.
        """

    def attach_recovery(self, manager: "RecoveryManager") -> None:
        """Called once by the manager so the counter can checkpoint."""
        self._recovery_manager = manager


class RecoveryManager:
    """Owns failure detection, checkpoints and recovery scheduling.

    Args:
        network: the *raw* faulty network (not the reliable transport —
            heartbeats must be droppable or crashes are undetectable).
        counter: the :class:`Recoverable` counter to drive.
        plan: the installed fault plan; its crash rules size the
            monitoring horizon and its recovery points are scheduled as
            checkpoint restores.
        period / timeout: forwarded to the :class:`FailureDetector`.
        horizon: monitoring horizon override; by default derived from
            the plan — the latest interesting crash time (window starts,
            finite window ends, recovery points) plus ``timeout`` plus
            two periods, so every crash of interest is detectable and
            the run still quiesces.

    Call :meth:`start` once the counter is fully registered.
    """

    def __init__(
        self,
        network: Network,
        counter: Recoverable,
        plan: FaultPlan,
        *,
        period: float = 5.0,
        timeout: float = 15.0,
        horizon: float | None = None,
    ) -> None:
        if not isinstance(counter, Recoverable):
            raise ConfigurationError(
                f"counter {counter!r} does not implement Recoverable"
            )
        self._network = network
        self._counter = counter
        self._plan = plan
        if horizon is None:
            horizon = self.derive_horizon(plan, period=period, timeout=timeout)
        self._detector = FailureDetector(
            network,
            counter.critical_pids(),
            period=period,
            timeout=timeout,
            horizon=horizon,
        )
        self._detector.add_suspect_callback(counter.on_processor_suspected)
        self._detector.add_restore_callback(counter.on_processor_restored)
        self._checkpoints: dict[ProcessorId, Any] = {}
        self._events = _RecoveryLog()
        self._failover_latencies: list[float] = []
        self._started = False

    @staticmethod
    def derive_horizon(
        plan: FaultPlan, *, period: float = 5.0, timeout: float = 15.0
    ) -> float:
        """The default monitoring horizon for *plan*.

        Covers every crash window start, finite window end and recovery
        point, plus one timeout (so the last crash is suspectable) and
        two heartbeat periods (so the suspicion tick actually runs).
        """
        times = [0.0]
        for rule in plan.crash_rules:
            times.append(rule.start)
            if not math.isinf(rule.end):
                times.append(rule.end)
        times.extend(point.time for point in plan.recoveries)
        return max(times) + timeout + 2.0 * period

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start detection and schedule the plan's recovery points."""
        if self._started:
            raise ConfigurationError("recovery manager already started")
        self._started = True
        self._detector.start()
        self._counter.attach_recovery(self)
        now = self._network.now
        for point in self._plan.recoveries:
            if point.time < now:
                raise ConfigurationError(
                    f"recovery point {point} lies in the past (now={now:g})"
                )
            self._network.inject(
                partial(self._recover, point), delay=point.time - now
            )

    # ------------------------------------------------------------------
    # The checkpoint store (stable storage)
    # ------------------------------------------------------------------
    def save_checkpoint(self, pid: ProcessorId, state: Any) -> None:
        """Persist *state* as *pid*'s crash-surviving checkpoint."""
        self._checkpoints[pid] = copy.deepcopy(state)
        self._events.add(self._network.now, "checkpoint", pid, "")

    def checkpoint_for(self, pid: ProcessorId) -> Any:
        """The latest checkpoint of *pid* (a copy), or ``None``."""
        state = self._checkpoints.get(pid)
        return copy.deepcopy(state) if state is not None else None

    # ------------------------------------------------------------------
    # Measurement hooks (called by counters)
    # ------------------------------------------------------------------
    def note_failover(self, old_pid: ProcessorId, new_pid: ProcessorId) -> None:
        """Record that *new_pid* took over *old_pid*'s role now.

        The failover latency is measured from the *start* of the crash
        window that felled *old_pid* — the whole detection-plus-handoff
        cost, which is what an experiment comparing against a crash-free
        run wants.  A handoff away from a processor with no crash rule (a
        false suspicion) is logged but has no latency.
        """
        now = self._network.now
        starts = [
            rule.start
            for rule in self._plan.crash_rules
            if rule.pid == old_pid and rule.start <= now
        ]
        if starts:
            self._failover_latencies.append(now - min(starts))
        self._events.add(now, "failover", old_pid, f"role moved to {new_pid}")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def detector(self) -> FailureDetector:
        """The failure detector driving this manager."""
        return self._detector

    @property
    def events(self) -> Sequence[RecoveryEvent]:
        """The recovery ledger, in order: every recovery, failover and
        checkpoint, once, as a read-only sequence built on access from
        the ledger's columns."""
        return self._events

    def suspicion_count(self) -> int:
        """Total suspicion events raised by the detector."""
        return self._detector.suspicion_count()

    def failover_count(self) -> int:
        """Role handoffs performed so far, whatever caused them."""
        return sum(1 for event in self._events if event.kind == "failover")

    def failover_latency(self) -> float | None:
        """Crash-start → handoff latency of the first failover, if any."""
        return self._failover_latencies[0] if self._failover_latencies else None

    def recovery_count(self) -> int:
        """Recovery points executed so far."""
        return sum(1 for event in self._events if event.kind == "recover")

    # ------------------------------------------------------------------
    # Schedule plumbing
    # ------------------------------------------------------------------
    def _recover(self, point: RecoveryPoint) -> None:
        now = self._network.now
        checkpoint = self.checkpoint_for(point.pid)
        detail = "from checkpoint" if checkpoint is not None else "no checkpoint"
        self._events.add(now, "recover", point.pid, detail)
        self._counter.on_processor_recovered(point.pid, now, checkpoint)
