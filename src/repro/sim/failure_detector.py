"""A heartbeat-based eventually-perfect failure detector (◊P).

The paper's model has no failures, so it needs no detector.  Once
:class:`~repro.sim.faults.CrashRule` windows can take processors down,
any recovery mechanism needs to *notice* — and in an asynchronous system
it can only do so unreliably.  This module implements the classic
eventually-perfect detector abstraction of Chandra & Toueg over the
simulator's own message layer:

* every monitored processor emits a ``fd.heartbeat`` message to a hub
  processor once per ``period`` of simulated time;
* the hub tracks the last heartbeat *arrival* per processor and suspects
  any processor silent for longer than ``timeout``;
* a heartbeat arriving from a suspected processor clears the suspicion
  (a ``restore``), which is what makes the detector eventually perfect
  rather than perfect: transient slowness can cause false suspicions,
  but they are always corrected.

Heartbeats are ordinary :meth:`~repro.sim.network.Network.send` traffic
— the sender is the monitored pid itself — so the installed
:class:`~repro.sim.faults.FaultPlan` applies to them like any protocol
message: a crash window swallows the crashed processor's heartbeats,
drops can eat individual beats, partitions can isolate the hub.  That is
the whole design: the detector learns about crashes *only* through
silence on the wire, never by peeking at the fault plan.

Determinism and quiescence: the detector owns no randomness, and its
ticks are scheduled only up to a finite monitoring ``horizon`` (no
recurring timers — an eternally ticking detector would never let
:meth:`~repro.sim.network.Network.run_until_quiescent` terminate).  The
horizon is chosen by the caller to cover every crash window of interest;
:class:`~repro.sim.recovery.RecoveryManager` derives it from the fault
plan.

Suspicions and restores are first-class events: each becomes one
:class:`~repro.sim.faults.FaultRecord` (kinds ``"suspect"`` /
``"restore"``) in the detector's own ledger
(:attr:`FailureDetector.events`, their only record) and is fanned out to
registered callbacks — which is how role failover is triggered.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.errors import ConfigurationError
from repro.sim.faults import FaultRecord, _Ledger
from repro.sim.messages import _EMPTY_PAYLOAD, NO_OP, Message, ProcessorId
from repro.sim.network import Network
from repro.sim.processor import Processor

__all__ = ["FailureDetector", "HEARTBEAT_KIND"]

HEARTBEAT_KIND = "fd.heartbeat"
"""Message kind of the periodic I-am-alive beacon."""

SuspicionCallback = Callable[[ProcessorId, float], None]
"""Called as ``callback(pid, time)`` on suspicion / restore."""


class _FailureDetectorHub(Processor):
    """The processor that collects heartbeats.

    Registered on the raw network under a fresh id above every counter
    processor, so its mailbox exists without disturbing the counter's
    topology.  All logic lives in the owning :class:`FailureDetector`;
    the hub only forwards arrivals.
    """

    def __init__(self, pid: ProcessorId, detector: "FailureDetector") -> None:
        super().__init__(pid)
        self._detector = detector

    def on_message(self, message: Message) -> None:
        if message[2] == HEARTBEAT_KIND:
            self._detector._on_heartbeat(message[0])


class FailureDetector:
    """Eventually-perfect failure detection over simulated heartbeats.

    Args:
        network: the *raw* (possibly faulty) network — heartbeats must
            face the fault plan directly, not ride a reliable transport
            that would retransmit them and defeat crash detection.
        monitored: processor ids to watch (typically the counter's
            critical role holders, not every client).
        period: simulated time between heartbeats.
        timeout: silence (since last heartbeat *arrival*) after which a
            processor is suspected.  Must exceed ``period`` plus the
            policy's typical delay or everything is suspected at once.
        horizon: monitoring stops after this simulated time — the last
            tick is the first one past it.  Keeps runs quiescent.
        hub_pid: id for the hub processor; default is one above the
            highest currently registered id.

    Use :meth:`start` after every counter processor is registered (the
    default ``hub_pid`` is derived from the registration table), then
    run the workload normally.
    """

    def __init__(
        self,
        network: Network,
        monitored: Sequence[ProcessorId],
        *,
        period: float = 5.0,
        timeout: float = 15.0,
        horizon: float = 200.0,
        hub_pid: ProcessorId | None = None,
    ) -> None:
        if not monitored:
            raise ConfigurationError("failure detector needs monitored pids")
        if period <= 0:
            raise ConfigurationError(f"period must be positive, got {period}")
        if timeout <= period:
            raise ConfigurationError(
                f"timeout must exceed period, got timeout={timeout} <= "
                f"period={period}"
            )
        if horizon <= 0:
            raise ConfigurationError(
                f"horizon must be positive, got {horizon}"
            )
        self._network = network
        self._monitored = tuple(dict.fromkeys(monitored))
        self._period = float(period)
        self._timeout = float(timeout)
        self._horizon = float(horizon)
        self._hub_pid = hub_pid
        self._hub: _FailureDetectorHub | None = None
        self._last_heard: dict[ProcessorId, float] = {}
        self._suspected: set[ProcessorId] = set()
        self._events = _Ledger()
        self._on_suspect: list[SuspicionCallback] = []
        self._on_restore: list[SuspicionCallback] = []

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def add_suspect_callback(self, callback: SuspicionCallback) -> None:
        """Run ``callback(pid, time)`` whenever *pid* becomes suspected."""
        self._on_suspect.append(callback)

    def add_restore_callback(self, callback: SuspicionCallback) -> None:
        """Run ``callback(pid, time)`` whenever a suspicion is cleared."""
        self._on_restore.append(callback)

    def start(self) -> None:
        """Register the hub and schedule monitoring up to the horizon."""
        if self._hub is not None:
            raise ConfigurationError("failure detector already started")
        hub_pid = self._hub_pid
        if hub_pid is None:
            hub_pid = self._network.id_bound + 1
            self._hub_pid = hub_pid
        self._hub = _FailureDetectorHub(hub_pid, self)
        self._network.register(self._hub)
        now = self._network.now
        for pid in self._monitored:
            # Grace period: everyone counts as heard-from at start, so
            # nobody is suspected before a full timeout of real silence.
            self._last_heard[pid] = now
        self._network.inject(self._tick)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def hub_pid(self) -> ProcessorId | None:
        """The hub's processor id (``None`` before :meth:`start`)."""
        return self._hub_pid

    @property
    def monitored(self) -> tuple[ProcessorId, ...]:
        """The watched processor ids."""
        return self._monitored

    @property
    def period(self) -> float:
        """Simulated time between heartbeats."""
        return self._period

    @property
    def timeout(self) -> float:
        """Silence threshold for suspicion."""
        return self._timeout

    @property
    def horizon(self) -> float:
        """Simulated time monitoring stops."""
        return self._horizon

    @property
    def suspected(self) -> frozenset[ProcessorId]:
        """Currently suspected processors."""
        return frozenset(self._suspected)

    @property
    def events(self) -> Sequence[FaultRecord]:
        """Suspicions and restores, in order: a read-only sequence, each
        record built on access from the ledger's columns."""
        return self._events

    def is_suspected(self, pid: ProcessorId) -> bool:
        """True while *pid* is currently suspected."""
        return pid in self._suspected

    def suspicion_count(self) -> int:
        """Total suspicion events (restores not subtracted)."""
        return sum(1 for event in self._events if event.kind == "suspect")

    # ------------------------------------------------------------------
    # Mechanics
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        """One monitoring step: check timeouts, beat, reschedule."""
        now = self._network.now
        for pid in self._monitored:
            if pid in self._suspected:
                continue
            if now - self._last_heard[pid] > self._timeout:
                self._suspected.add(pid)
                self._record("suspect", pid, now)
                for callback in self._on_suspect:
                    callback(pid, now)
        hub_pid = self._hub_pid
        for pid in self._monitored:
            # The monitored processor is the sender, so its crash window
            # swallows the beat — silence is how crashes are detected.
            self._network.send(pid, hub_pid, HEARTBEAT_KIND, _EMPTY_PAYLOAD)
        if now + self._period <= self._horizon:
            self._network.inject(self._tick, delay=self._period)

    def _on_heartbeat(self, pid: ProcessorId) -> None:
        if pid not in self._last_heard:
            return  # not monitored; stray traffic
        now = self._network.now
        self._last_heard[pid] = now
        if pid in self._suspected:
            self._suspected.discard(pid)
            self._record("restore", pid, now)
            for callback in self._on_restore:
                callback(pid, now)

    def _record(self, kind: str, pid: ProcessorId, time: float) -> None:
        detail = f"silence > {self._timeout:g}" if kind == "suspect" else ""
        self._events.add(time, kind, pid, self._hub_pid or 0, NO_OP, -1, detail)
