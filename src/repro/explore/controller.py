"""The controlled scheduler: one object owning both decision points.

The simulator exposes exactly two degrees of scheduling freedom its
model permits: per-message delays (the delivery policy) and the order of
equal-time events (the queue's tie-break).  A
:class:`ScheduleController` plugs into both at once — it *is* a
:class:`~repro.sim.policies.DeliveryPolicy` (handed to the session's
network) and a :class:`~repro.sim.events.SchedulerHook` (installed on
the same network) — and funnels every choice through one strategy,
recording the decision stream as it goes.

Recording and replaying are the same code path: a
:class:`~repro.explore.strategies.ReplayStrategy` simply answers each
decision point from a fixed list.  The controller clamps every strategy
answer into range (modulo), so arbitrary integer lists — in particular
shrunk ones — are always legal schedules.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.sim.events import SchedulerHook
from repro.sim.messages import Message
from repro.sim.policies import DeliveryPolicy
from repro.sim.trace import Trace, TraceLevel
from repro.explore.schedule import DEFAULT_DELAY_MENU, Schedule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.explore.strategies import Strategy
    from repro.sim.network import Network


class ScheduleController(DeliveryPolicy, SchedulerHook):
    """Routes every scheduling decision of one episode through a strategy.

    Args:
        strategy: decision source (random walk, permutation, guided,
            replay...); already seeded/positioned for this episode.
        delay_menu: the delays a delay decision may index.

    The controller must be installed on *both* control points::

        controller = ScheduleController(strategy)
        session = RunSession(spec, n, policy=controller, ...)
        controller.attach(session.network)   # installs the tie-break hook

    After the run, :attr:`recorded` is the episode's full schedule.
    """

    constant_delay = None  # every delay is a decision; no fast path

    def __init__(
        self,
        strategy: "Strategy",
        delay_menu: tuple[float, ...] = DEFAULT_DELAY_MENU,
    ) -> None:
        if not delay_menu:
            raise ValueError("delay menu must not be empty")
        self._strategy = strategy
        self._menu = delay_menu
        self._menu_size = len(delay_menu)
        self._decisions: list[int] = []
        self._kinds: list[str] = []
        #: The trace whose load columns :meth:`load` (and the guided
        #: strategy) reads; until :meth:`attach` binds the network's (and
        #: at ``TraceLevel.OFF``) its columns stay empty, so every load
        #: is 0.
        self.trace = Trace(TraceLevel.OFF)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, network: "Network") -> None:
        """Install the tie-break hook and expose the network's loads.

        Loads (the paper's ``m_p``) are what the guided strategy steers
        on; they come from the live trace, so the strategy always sees
        the contention profile *so far*.
        """
        network.install_scheduler_hook(self)
        self.trace = network.trace

    def load(self, pid: int) -> int:
        """Message load of *pid* so far (0 before attach).

        The columns :meth:`Trace.load <repro.sim.trace.Trace.load>` sums,
        read directly with the bounds check alone: its capability check
        would raise at ``OFF``, where the columns stay empty.  They are
        looked up on the trace per read, since widening replaces them.
        """
        trace = self.trace
        sent = trace._sent
        if pid < len(sent):
            return sent[pid] + trace._received[pid]
        return 0

    @property
    def delay_menu(self) -> tuple[float, ...]:
        """The delays a delay decision indexes."""
        return self._menu

    @property
    def recorded(self) -> Schedule:
        """The decision stream consumed so far."""
        return Schedule(
            decisions=tuple(self._decisions), kinds=tuple(self._kinds)
        )

    @property
    def decision_count(self) -> int:
        """Number of decisions made so far."""
        return len(self._decisions)

    # ------------------------------------------------------------------
    # DeliveryPolicy: the delay decision point
    # ------------------------------------------------------------------
    def delay(self, message: Message) -> float:
        choice = self._strategy.choose_delay(message, self._menu_size, self)
        choice %= self._menu_size
        self._decisions.append(choice)
        self._kinds.append("delay")
        return self._menu[choice]

    def fork(self) -> "ScheduleController":
        """Identity: the controller records one episode's stream.

        :meth:`Network.reset` forks the policy; a controller is
        per-episode, so forking must keep (not restart) the recording.
        """
        return self

    # ------------------------------------------------------------------
    # Adversary choice points (Byzantine fault plans)
    # ------------------------------------------------------------------
    def choose_adversary(self, kind: str, count: int) -> int:
        """Answer one adversary decision (``"byz-pid"``, ``"byz-rule"``).

        Byzantine plans route their free choices — which processors to
        compromise at binding time, which behaviour a ``mixed`` rule
        picks per message — through the episode's strategy, recorded in
        the same decision stream as delays and tie-breaks, so a repro
        file replays the adversary along with the schedule.
        """
        choice = self._strategy.choose_adversary(kind, count, self)
        choice %= count
        self._decisions.append(choice)
        self._kinds.append(kind)
        return choice

    # ------------------------------------------------------------------
    # SchedulerHook: the tie-break decision point
    # ------------------------------------------------------------------
    def choose(self, ready: list[Any]) -> int:
        choice = self._strategy.choose_tiebreak(ready, self)
        choice %= len(ready)
        self._decisions.append(choice)
        self._kinds.append("tie")
        return choice

    def __repr__(self) -> str:
        return (
            f"ScheduleController(strategy={self._strategy!r}, "
            f"decisions={len(self._decisions)})"
        )
