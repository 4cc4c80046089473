"""Exploration strategies: who answers the scheduler's questions.

A strategy is asked two kinds of questions by the
:class:`~repro.explore.controller.ScheduleController`:

* ``choose_delay(message, menu_size, controller)`` — index into the
  delay menu for one message;
* ``choose_tiebreak(ready, controller)`` — index into the equal-time
  ready list (entries in default FIFO order, so 0 = baseline).

Three searching strategies ship, matching the tentpole:

* :class:`RandomWalkStrategy` — seeded uniform choices; the classic
  random-walk schedule fuzzer.
* :class:`PermutationStrategy` — delay-order permutation sampling: each
  episode draws one permutation of the delay menu and applies it
  cyclically over the message stream, so consecutive messages get
  systematically *different* delays — the cheapest way to invert
  delivery orders — while tie-breaks stay at baseline.
* :class:`GuidedStrategy` — scores with the lower-bound proof's weight
  function (:func:`repro.lowerbound.weights.weight_of`, computed inline
  over a message's two labels) to steer toward high-contention
  schedules: candidates touching the currently loaded processors score
  geometrically higher, and the strategy picks proportionally to score
  with one uniform draw per decision.  The intuition is the adversary
  argument itself — schedules that keep hammering the hot spot are
  where stale-value and ordering bugs live.

Plus two auxiliary ones: :class:`BaselineStrategy` (all defaults; the
uncontrolled execution) and :class:`ReplayStrategy` (answers from a
recorded decision list; this is how repro files re-run and how
shrinking evaluates candidates).

Determinism: every strategy derives all randomness from ``(seed,
episode)`` via :func:`episode_rng`, never from global state, so an
exploration is a pure function of its configuration.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from bisect import bisect_right
from itertools import accumulate
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.errors import ConfigurationError
from repro.sim.messages import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.explore.controller import ScheduleController

STRATEGY_NAMES = ("random", "permute", "guided", "baseline")
"""Strategies the budget/strategy grammar accepts."""

_SEED_STRIDE = 2_654_435_761
"""Odd multiplier (Knuth's) spreading (seed, episode) pairs across the
generator's seed space; plain ``seed + episode`` would make episode 1 of
seed 0 identical to episode 0 of seed 1."""


def episode_rng(seed: int, episode: int) -> random.Random:
    """A deterministic, process-independent generator for one episode."""
    return random.Random(seed * _SEED_STRIDE + episode)


def _weighted_index(random: Callable[[], float], weights: Sequence[float]) -> int:
    """An index into *weights* drawn in proportion to them, with one draw.

    The arithmetic ``Random.choices`` performs for ``weights=`` and one
    pick on CPython 3.11 and 3.12, minus its argument checks and result
    list: running-sum cumulative weights, their float total, and the
    first index below the last whose cumulative weight exceeds
    ``random() * total``.  Picks and the generator stream therefore
    match it exactly; a single weight still consumes its draw.
    """
    cumulative = list(accumulate(weights))
    last = len(cumulative) - 1
    return bisect_right(cumulative, random() * (cumulative[last] + 0.0), 0, last)


class Strategy(ABC):
    """One source of scheduling decisions (see module docstring)."""

    name: str = "strategy"

    def begin_episode(self, episode: int) -> None:
        """Re-seed / re-position for episode *episode* (0-based)."""

    @abstractmethod
    def choose_delay(
        self, message: Message, menu_size: int, controller: "ScheduleController"
    ) -> int:
        """Menu index for *message*'s delay (clamped by the controller)."""

    @abstractmethod
    def choose_tiebreak(
        self,
        ready: list[Any],
        controller: "ScheduleController",
    ) -> int:
        """Ready-list index to run first (clamped by the controller)."""

    def choose_adversary(
        self, kind: str, count: int, controller: "ScheduleController"
    ) -> int:
        """Index into an adversary choice point (clamped by the controller).

        Byzantine fault plans expose *their* degrees of freedom through
        the same controller the scheduler uses: ``"byz-pid"`` picks
        which processor joins the compromised set (asked once per
        Byzantine rule at binding time, before any traffic), and
        ``"byz-rule"`` picks a mixed rule's per-message behaviour.  The
        default is 0 — deterministic strategies (baseline, permutation)
        leave the adversary on its first choice, searching strategies
        override with seeded draws, and replay answers from its recorded
        stream like every other decision.
        """
        return 0

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class BaselineStrategy(Strategy):
    """Always the default: unit delay, FIFO ties — the uncontrolled run."""

    name = "baseline"

    def choose_delay(
        self, message: Message, menu_size: int, controller: "ScheduleController"
    ) -> int:
        return 0

    def choose_tiebreak(
        self,
        ready: list[Any],
        controller: "ScheduleController",
    ) -> int:
        return 0


class ReplayStrategy(Strategy):
    """Answers every question from a fixed decision list.

    Decisions past the end of the list are 0 (the baseline), so a
    truncated — e.g. shrunk — schedule is still a complete answer sheet:
    the run it induces simply rejoins the baseline after the list runs
    out.
    """

    name = "replay"

    def __init__(self, decisions: Sequence[int]) -> None:
        self._decisions = tuple(int(d) for d in decisions)
        self._cursor = 0

    def begin_episode(self, episode: int) -> None:
        self._cursor = 0

    def _next(self) -> int:
        if self._cursor >= len(self._decisions):
            return 0
        decision = self._decisions[self._cursor]
        self._cursor += 1
        return decision

    def choose_delay(
        self, message: Message, menu_size: int, controller: "ScheduleController"
    ) -> int:
        return self._next()

    def choose_tiebreak(
        self,
        ready: list[Any],
        controller: "ScheduleController",
    ) -> int:
        return self._next()

    def choose_adversary(
        self, kind: str, count: int, controller: "ScheduleController"
    ) -> int:
        return self._next()

    def __repr__(self) -> str:
        return f"ReplayStrategy({len(self._decisions)} decisions)"


class RandomWalkStrategy(Strategy):
    """Uniform seeded choices at every decision point."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._rng = episode_rng(seed, 0)

    def begin_episode(self, episode: int) -> None:
        self._rng = episode_rng(self._seed, episode)

    def choose_delay(
        self, message: Message, menu_size: int, controller: "ScheduleController"
    ) -> int:
        return self._rng.randrange(menu_size)

    def choose_tiebreak(
        self,
        ready: list[Any],
        controller: "ScheduleController",
    ) -> int:
        return self._rng.randrange(len(ready))

    def choose_adversary(
        self, kind: str, count: int, controller: "ScheduleController"
    ) -> int:
        return self._rng.randrange(count)

    def __repr__(self) -> str:
        return f"RandomWalkStrategy(seed={self._seed})"


class PermutationStrategy(Strategy):
    """Delay-order permutation sampling (see module docstring).

    Each episode shuffles the menu indices into one permutation and
    deals it out cyclically, so within every window of ``menu_size``
    consecutive messages all delays differ — maximally order-inverting
    for neighbouring sends.  Episode 0 uses the identity permutation
    (the baseline), so the first episode of any exploration doubles as a
    sanity run.
    """

    name = "permute"

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._episode = 0
        self._permutation: list[int] = []
        self._cursor = 0

    def begin_episode(self, episode: int) -> None:
        self._cursor = 0
        self._episode = episode
        self._permutation = []  # sized lazily: menu size arrives per call

    def _deal(self, menu_size: int) -> int:
        if len(self._permutation) != menu_size:
            self._permutation = list(range(menu_size))
            if self._episode > 0:
                episode_rng(self._seed, self._episode).shuffle(self._permutation)
            self._cursor = 0
        choice = self._permutation[self._cursor % menu_size]
        self._cursor += 1
        return choice

    def choose_delay(
        self, message: Message, menu_size: int, controller: "ScheduleController"
    ) -> int:
        return self._deal(menu_size)

    def choose_tiebreak(
        self,
        ready: list[Any],
        controller: "ScheduleController",
    ) -> int:
        return 0

    def __repr__(self) -> str:
        return f"PermutationStrategy(seed={self._seed})"


class GuidedStrategy(Strategy):
    """Weight-guided contention steering (see module docstring).

    Args:
        seed: randomness source (softmax-style sampling needs ties
            broken and exploration kept alive).
        base: geometric base of the weight function; the proof ties it
            to the bottleneck load, here it is simply how sharply the
            strategy prefers hot processors (must exceed 1).
    """

    name = "guided"

    def __init__(self, seed: int = 0, base: float = 2.0) -> None:
        if base <= 1.0:
            raise ConfigurationError(f"guided base must exceed 1, got {base}")
        self._seed = seed
        self._base = base
        # weight_of's denominators for list positions 1 and 2, computed
        # the way it computes them, once.
        self._b1 = base**1
        self._b2 = base**2
        self.begin_episode(0)

    def begin_episode(self, episode: int) -> None:
        # The generator's bound ``random`` is looked up at each use, never
        # kept: deepcopy shares builtin bound methods, so a copied
        # strategy would draw from this one's generator.
        self._rng = episode_rng(self._seed, episode)

    def _score(self, message: Message, load: Callable[[int], int]) -> float:
        # The proof's per-list weight, applied to the message's
        # receiver-then-sender "list": messages into the hot spot carry
        # the most weight, exactly the contention the adversary farms.
        # The float operations of weight_of((receiver, sender), loads,
        # base), in its order, so the score is bit-identical to it.
        # choose_delay and choose_tiebreak compute it inline, the same
        # way; this form is their reference.
        receiver, sender = message[1], message[0]
        return (load(receiver) + 1) / self._b1 + (load(sender) + 1) / self._b2

    # The two decisions below run once per delivered message, so each
    # scores in its own frame: the loads come straight from the trace's
    # two columns (an id past their end reads 0, as controller.load
    # does), looked up per call since widening replaces them and a deep
    # copy must read its own; the generator's ``random`` is looked up
    # per call for the same reason.

    def choose_delay(
        self, message: Message, menu_size: int, controller: "ScheduleController"
    ) -> int:
        # Hot-target messages get spread across the menu (piling distinct
        # delays onto the hot spot's in-box maximizes overlap there);
        # cold traffic mostly keeps the unit delay.
        trace = controller.trace
        sent = trace._sent
        received = trace._received
        size = len(sent)
        sender, receiver = message[0], message[1]
        score = (
            (sent[receiver] + received[receiver] + 1 if receiver < size else 1)
            / self._b1
            + (sent[sender] + received[sender] + 1 if sender < size else 1)
            / self._b2
        )
        # _weighted_index over the weights 1 + score * index, without
        # the weight list or its frame: the running sums take
        # accumulate's float additions, and the same bisect_right picks.
        sums = [0.0] * menu_size
        total = 0.0
        for index in range(menu_size):
            total += 1.0 + score * index
            sums[index] = total
        return bisect_right(
            sums, self._rng.random() * (total + 0.0), 0, menu_size - 1
        )

    def choose_tiebreak(
        self,
        ready: list[Any],
        controller: "ScheduleController",
    ) -> int:
        # Prefer running the heaviest-weighted delivery first, keeping
        # the hot spot saturated; non-message events score the floor.
        trace = controller.trace
        sent = trace._sent
        received = trace._received
        size = len(sent)
        b1, b2 = self._b1, self._b2
        random = self._rng.random
        best_index = 0
        best_score = -1.0
        for index, entry in enumerate(ready):
            if type(entry) is Message:
                sender, receiver = entry[0], entry[1]
                score = (
                    sent[receiver] + received[receiver] + 1
                    if receiver < size
                    else 1
                ) / b1 + (
                    sent[sender] + received[sender] + 1 if sender < size else 1
                ) / b2
            else:
                score = 0.0
            score += random() * 1e-9  # deterministic tie noise
            if score > best_score:
                best_score = score
                best_index = index
        return best_index

    def choose_adversary(
        self, kind: str, count: int, controller: "ScheduleController"
    ) -> int:
        # Compromising low pids is the adversary's strongest opening:
        # protocol infrastructure (central servers, tree roots, phase
        # kings of early phases) sits at small ids across this repo's
        # counters, so weight the draw geometrically toward index 0
        # while keeping every choice reachable.
        if kind == "byz-pid":
            weights = [self._base ** (count - 1 - i) for i in range(count)]
            return _weighted_index(self._rng.random, weights)
        return self._rng.randrange(count)

    def __repr__(self) -> str:
        return f"GuidedStrategy(seed={self._seed}, base={self._base})"


def make_strategy(name: str, seed: int = 0, **params: Any) -> Strategy:
    """Instantiate a strategy by grammar name."""
    if name == "random":
        return RandomWalkStrategy(seed=seed, **params)
    if name == "permute":
        return PermutationStrategy(seed=seed, **params)
    if name == "guided":
        return GuidedStrategy(seed=seed, **params)
    if name == "baseline":
        if params:
            raise ConfigurationError("baseline strategy takes no parameters")
        return BaselineStrategy()
    raise ConfigurationError(
        f"unknown strategy {name!r}; expected one of {STRATEGY_NAMES}"
    )


def parse_plan(
    text: str, default_budget: int, seed: int = 0
) -> list[tuple[Strategy, int]]:
    """Parse the budget/strategy grammar into (strategy, episodes) legs.

    Grammar: a comma-separated list of legs, each
    ``NAME[:BUDGET][?key=value&...]`` — e.g. ``"guided"``,
    ``"random:50"``, ``"guided:100?base=4"``, or the mixed plan
    ``"random:50,permute:50,guided:100"``.  A leg without an explicit
    budget gets *default_budget* episodes.  Episode indices are global
    across legs, so the same plan always explores the same schedules.
    """
    if not text.strip():
        raise ConfigurationError("empty strategy plan")
    legs: list[tuple[Strategy, int]] = []
    for raw_leg in text.split(","):
        leg = raw_leg.strip()
        if not leg:
            raise ConfigurationError(f"empty leg in strategy plan {text!r}")
        params: dict[str, Any] = {}
        if "?" in leg:
            leg, _, query = leg.partition("?")
            for pair in query.split("&"):
                if "=" not in pair:
                    raise ConfigurationError(
                        f"malformed strategy parameter {pair!r} "
                        "(expected key=value)"
                    )
                key, _, value = pair.partition("=")
                try:
                    params[key.strip()] = float(value)
                except ValueError:
                    raise ConfigurationError(
                        f"strategy parameter {key.strip()!r} must be "
                        f"numeric, got {value!r}"
                    ) from None
        budget = default_budget
        if ":" in leg:
            leg, _, budget_text = leg.partition(":")
            try:
                budget = int(budget_text)
            except ValueError:
                raise ConfigurationError(
                    f"malformed budget {budget_text!r} in leg {raw_leg.strip()!r}"
                ) from None
        if budget <= 0:
            raise ConfigurationError(
                f"leg {raw_leg.strip()!r} has non-positive budget {budget}"
            )
        try:
            strategy = make_strategy(leg.strip(), seed=seed, **params)
        except TypeError:
            raise ConfigurationError(
                f"strategy {leg.strip()!r} rejects parameters {sorted(params)}"
            ) from None
        legs.append((strategy, budget))
    return legs
