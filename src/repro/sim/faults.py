"""Opt-in fault injection: breaking the paper's failure-free promise.

The paper's model (§2) guarantees messages are "never lost, duplicated
or corrupted".  This module is the deliberate, *opt-in* departure from
that guarantee: a seeded, deterministic :class:`FaultPlan` the network
consults on its send path.  With no plan installed the simulator is
byte-identical to the failure-free substrate (:meth:`Network.send
<repro.sim.network.Network.send>` skips the plan after one ``None``
test); with a plan installed, every
injected fault becomes one first-class :class:`FaultRecord` in the
plan's ledger (:attr:`FaultPlan.events`), its only record: the
execution trace keeps deliveries, not faults.

A plan composes :class:`FaultRule` instances, evaluated in order per
message:

* :class:`DropRule` — lose a message with some probability;
* :class:`DuplicateRule` — deliver extra copies with some probability;
* :class:`ReorderRule` — boost a message's delay with some probability,
  forcing reorderings far beyond what the delivery policy produces;
* :class:`PartitionRule` — drop every message crossing a two-group cut
  during a time window;
* :class:`CrashRule` — a processor is down during a window: it neither
  sends (messages sent while crashed are lost) nor receives (messages
  that would arrive while it is down are lost).
* :class:`CorruptRule` / :class:`EquivocateRule` / :class:`SilenceRule` /
  :class:`MixedRule` — *Byzantine* rules: a seeded budget of ``f``
  compromised processors whose outgoing messages are rewritten
  (``corrupt``), rewritten differently per receiver (``equivocate``),
  selectively withheld (``silence``), or any of the three per message
  (``mixed``).  The compromised set is fixed by
  :meth:`FaultPlan.bind_clients` once the population size is known;
  the schedule explorer can take over both the set and the per-message
  rule choice via :meth:`FaultPlan.install_adversary`.

Determinism: all randomness lives in the plan's seeded generator, rules
are evaluated in a fixed order, and a rule draws only when it is
reached, so two runs with equal seeds inject identical faults.  The
plan :meth:`FaultPlan.fork`/:meth:`FaultPlan.reset` contract mirrors
:meth:`~repro.sim.policies.DeliveryPolicy.fork`: forks are independent
and equivalently seeded, which is what keeps parallel sweep workers
isolated.

Fault specs are strings for the CLI/sweep layer
(:func:`parse_fault_spec`)::

    drop=0.05,dup=0.01,reorder=0.1,crash=3@t50,partition=1..4|5..8@t10-t50
    byz=1@corrupt                 (budget of 1 Byzantine processor)

A ``recover=PID@tT`` clause turns a crash into a crash-*with-recovery*:
it truncates the matching crash window at ``T`` (links restored from
``T`` on) and records a :class:`RecoveryPoint` that the recovery layer
(:mod:`repro.sim.recovery`) turns into a checkpoint-restore event at
time ``T``.  ``crash=3@t50,recover=3@t90`` is therefore canonically
``crash=3@t50-t90,recover=3@t90``: the wire behaviour is the finite
window, the recovery point is the extra promise that processor 3 comes
back *with its role and state restored*, not merely with live links.

Loads under faults: the trace counts *delivered* messages, so a dropped
message adds load to nobody — the retransmission that replaces it (see
:mod:`repro.sim.transport`) is what shows up in ``m_p``.  Duplicates are
real traffic and are counted per delivered copy.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from collections import Counter
from typing import NamedTuple, Sequence

from repro.errors import ConfigurationError
from repro.sim.columns import Rows
from repro.sim.messages import Message, OpIndex, ProcessorId

__all__ = [
    "BYZANTINE_STRATEGIES",
    "ByzantineRule",
    "CorruptRule",
    "CrashRule",
    "DropRule",
    "DuplicateRule",
    "EquivocateRule",
    "FaultOutcome",
    "FaultPlan",
    "FaultRecord",
    "FaultRule",
    "MixedRule",
    "PartitionRule",
    "RecoveryPoint",
    "ReorderRule",
    "SilenceRule",
    "canonical_fault_spec",
    "make_byzantine_rule",
    "parse_fault_spec",
]


class FaultRecord(NamedTuple):
    """One injected fault, as the plan's ledger returns it.

    Attributes:
        time: simulated send time of the affected message.
        kind: fault family — ``"drop"``, ``"duplicate"``, ``"reorder"``,
            ``"partition"`` or ``"crash"`` for wire faults, and
            ``"corrupt"``, ``"equivocate"`` or ``"silence"`` for the
            Byzantine rules.  The failure detector keeps its
            ``"suspect"`` and ``"restore"`` events in its own ledger in
            this shape.
        sender: sender of the affected message.
        receiver: receiver of the affected message.
        op_index: operation the affected message belongs to.
        uid: network uid of the affected message.
        detail: human-readable specifics (copies added, boost size, ...).
    """

    time: float
    kind: str
    sender: ProcessorId
    receiver: ProcessorId
    op_index: OpIndex
    uid: int
    detail: str = ""

    def __str__(self) -> str:
        return (
            f"[t={self.time:g}] {self.kind} {self.sender}->{self.receiver} "
            f"(op {self.op_index}, uid {self.uid}) {self.detail}"
        )


class _Ledger(Rows):
    """A plan's injected faults as columns, kind and detail interned:
    ~38 bytes a fault, where a :class:`FaultRecord` and its detail
    string cost ~210."""

    __slots__ = ()
    schema = {
        "time": "d", "kind": "s", "sender": "i", "receiver": "i",
        "op_index": "i", "uid": "q", "detail": "s",
    }
    row = FaultRecord


class _Effect(NamedTuple):
    """One rule's contribution to a message's fate (internal)."""

    drop_reason: str | None = None
    detail: str = ""
    copy_delays: tuple[float, ...] = ()
    extra_delay: float = 0.0
    replace: Message | None = None
    kind: str = ""


class FaultOutcome(NamedTuple):
    """What the plan decided for one message (``None`` means untouched).

    Attributes:
        delivery_times: absolute simulated times at which copies of the
            message are delivered; empty when the message was dropped.
        message: a rewritten message to deliver in place of the
            original (same uid, same endpoints — only the payload
            lies), or ``None`` when the content is untouched.  Only
            Byzantine rules produce rewrites.
    """

    delivery_times: tuple[float, ...]
    message: Message | None = None


class FaultRule(ABC):
    """One composable ingredient of a :class:`FaultPlan`.

    Rules are evaluated in plan order for every sent message.  A rule
    that drops the message short-circuits the rest; non-dropping effects
    (duplicates, delay boosts) accumulate.
    """

    #: True if this rule can ever lose a message — plans containing a
    #: lossy rule require counters to run behind the reliable transport.
    can_drop: bool = False

    @abstractmethod
    def judge(
        self,
        message: Message,
        send_time: float,
        deliver_time: float,
        rng: random.Random,
    ) -> _Effect | None:
        """Return this rule's effect on *message*, or ``None`` for none."""

    @abstractmethod
    def spec_fragment(self) -> str:
        """The rule's canonical fault-spec fragment."""

    def fork(self) -> "FaultRule":
        """A fresh, equivalently configured rule (stateless rules: self)."""
        return self

    def reset(self) -> None:
        """Clear per-run state for network reuse (stateless rules: no-op)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.spec_fragment()!r})"


def _check_probability(name: str, probability: float) -> float:
    if not 0.0 <= probability <= 1.0:
        raise ConfigurationError(
            f"{name} probability must be in [0, 1], got {probability}"
        )
    return float(probability)


class DropRule(FaultRule):
    """Lose each message independently with probability *probability*."""

    def __init__(self, probability: float) -> None:
        self.probability = _check_probability("drop", probability)
        self.can_drop = self.probability > 0.0

    def judge(self, message, send_time, deliver_time, rng):
        if self.probability and rng.random() < self.probability:
            return _Effect(drop_reason="drop", detail=f"p={self.probability}")
        return None

    def spec_fragment(self) -> str:
        return f"drop={self.probability:g}"


class DuplicateRule(FaultRule):
    """Deliver *copies* extra copies with probability *probability*.

    Extra copies are delayed by an additional uniform draw in
    ``[0, spread]`` beyond the original delivery time, so duplicates
    arrive out of order with the original — the worst case a
    deduplicating transport must handle.
    """

    def __init__(
        self, probability: float, copies: int = 1, spread: float = 10.0
    ) -> None:
        self.probability = _check_probability("dup", probability)
        if copies < 1:
            raise ConfigurationError(f"dup copies must be >= 1, got {copies}")
        if spread < 0:
            raise ConfigurationError(f"dup spread must be >= 0, got {spread}")
        self.copies = int(copies)
        self.spread = float(spread)

    def judge(self, message, send_time, deliver_time, rng):
        if self.probability and rng.random() < self.probability:
            delays = tuple(
                rng.uniform(0.0, self.spread) for _ in range(self.copies)
            )
            return _Effect(
                detail=f"+{self.copies} copies", copy_delays=delays
            )
        return None

    def spec_fragment(self) -> str:
        if self.copies == 1:
            return f"dup={self.probability:g}"
        return f"dup={self.probability:g}x{self.copies}"


class ReorderRule(FaultRule):
    """Boost a message's delay with probability *probability*.

    The boost is a uniform draw in ``[0, max_boost]`` added to the
    policy's delay — enough to push a message behind traffic sent long
    after it, which is the reordering regime FIFO-assuming protocols
    break under.
    """

    def __init__(self, probability: float, max_boost: float = 10.0) -> None:
        self.probability = _check_probability("reorder", probability)
        if max_boost <= 0:
            raise ConfigurationError(
                f"reorder max_boost must be > 0, got {max_boost}"
            )
        self.max_boost = float(max_boost)

    def judge(self, message, send_time, deliver_time, rng):
        if self.probability and rng.random() < self.probability:
            boost = rng.uniform(0.0, self.max_boost)
            return _Effect(detail=f"+{boost:.2f} delay", extra_delay=boost)
        return None

    def spec_fragment(self) -> str:
        if self.max_boost == 10.0:
            return f"reorder={self.probability:g}"
        return f"reorder={self.probability:g}@{self.max_boost:g}"


class PartitionRule(FaultRule):
    """Drop every message crossing the cut between two groups in a window.

    The partition is active for send times in ``[start, end)``.  Messages
    within one group, or with an endpoint outside both groups, pass.
    """

    can_drop = True

    def __init__(
        self,
        group_a: Sequence[ProcessorId],
        group_b: Sequence[ProcessorId],
        start: float = 0.0,
        end: float = math.inf,
    ) -> None:
        self.group_a = frozenset(group_a)
        self.group_b = frozenset(group_b)
        if not self.group_a or not self.group_b:
            raise ConfigurationError("partition groups must be non-empty")
        if self.group_a & self.group_b:
            raise ConfigurationError(
                "partition groups must be disjoint, got overlap "
                f"{sorted(self.group_a & self.group_b)}"
            )
        if end <= start:
            raise ConfigurationError(
                f"partition window must satisfy start < end, got "
                f"[{start}, {end})"
            )
        self.start = float(start)
        self.end = float(end)

    def judge(self, message, send_time, deliver_time, rng):
        if not self.start <= send_time < self.end:
            return None
        sender, receiver = message[0], message[1]
        crosses = (sender in self.group_a and receiver in self.group_b) or (
            sender in self.group_b and receiver in self.group_a
        )
        if crosses:
            return _Effect(
                drop_reason="partition",
                detail=f"window [{self.start:g}, {self.end:g})",
            )
        return None

    def spec_fragment(self) -> str:
        def _group(ids: frozenset[ProcessorId]) -> str:
            ordered = sorted(ids)
            if ordered == list(range(ordered[0], ordered[-1] + 1)):
                return f"{ordered[0]}..{ordered[-1]}"
            return "+".join(str(pid) for pid in ordered)

        window = f"@t{self.start:g}" + (
            f"-t{self.end:g}" if self.end != math.inf else ""
        )
        return f"partition={_group(self.group_a)}|{_group(self.group_b)}{window}"


class CrashRule(FaultRule):
    """Processor *pid* is down for send/arrival times in ``[start, end)``.

    While down, the processor sends nothing (messages it would send are
    lost) and receives nothing (messages that would *arrive* during the
    window are lost — the wire eats them, matching a crash that wipes
    the inbound queue).  ``end=inf`` models a crash with no recovery.
    """

    can_drop = True

    def __init__(
        self, pid: ProcessorId, start: float, end: float = math.inf
    ) -> None:
        if pid <= 0:
            raise ConfigurationError(f"crash pid must be positive, got {pid}")
        if end <= start:
            raise ConfigurationError(
                f"crash window must satisfy start < end, got [{start}, {end})"
            )
        self.pid = pid
        self.start = float(start)
        self.end = float(end)

    def judge(self, message, send_time, deliver_time, rng):
        pid = self.pid
        if message[0] == pid and self.start <= send_time < self.end:
            return _Effect(drop_reason="crash", detail=f"sender {pid} down")
        if message[1] == pid and self.start <= deliver_time < self.end:
            return _Effect(drop_reason="crash", detail=f"receiver {pid} down")
        return None

    def spec_fragment(self) -> str:
        window = f"@t{self.start:g}" + (
            f"-t{self.end:g}" if self.end != math.inf else ""
        )
        return f"crash={self.pid}{window}"


#: Strategies accepted by the ``byz=F@STRATEGY`` spec field.
BYZANTINE_STRATEGIES = ("corrupt", "equivocate", "silence", "mixed")

#: Small payload shifts: close enough to honest values that corrupted
#: counter values collide with real ones (agreement violations) or step
#: just outside the issued range (validity violations).
_CORRUPT_DELTAS = (-2, -1, 1, 2, 3)


def _mutate_ints(
    payload: "Mapping[str, object]", rng: random.Random, shift: int
) -> tuple[dict | None, tuple[str, ...]]:
    """Shift every integer field of *payload* by a seeded delta (+ *shift*).

    Returns ``(mutated, changed)`` where *mutated* is ``None`` when the
    payload carries no integers worth lying about.  Booleans are left
    alone (they are ``int`` subclasses but flipping them is a different
    lie).  Fields are visited in sorted order so equal seeds mutate
    identically regardless of payload construction order.
    """
    mutated: dict = {}
    changed: list[str] = []
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, bool) or not isinstance(value, int):
            mutated[key] = value
            continue
        twisted = value + rng.choice(_CORRUPT_DELTAS) + shift
        mutated[key] = twisted
        changed.append(f"{key}:{value}->{twisted}")
    if not changed:
        return None, ()
    return mutated, tuple(changed)


class ByzantineRule(FaultRule):
    """Base class: a budget of ``f`` compromised (lying) processors.

    The rule touches only messages *sent by* a compromised processor.
    Which processors are compromised is not known at parse time (the
    population size isn't): the set is fixed by
    :meth:`FaultPlan.bind_clients`, either from a seeded draw derived
    from the plan seed (so the main fault stream is untouched) or from
    an explorer-supplied chooser.  Consulting an unbound rule is a
    configuration error with an actionable message.

    Sender ids stay authentic: this is the standard "oral messages over
    authenticated channels" model — a Byzantine processor can lie about
    *content*, not about *who is speaking*.
    """

    #: Subclasses set their spec-grammar strategy name.
    strategy: str = ""

    def __init__(self, budget: int) -> None:
        if budget < 1:
            raise ConfigurationError(
                f"byz budget must be >= 1, got {budget}"
            )
        self.budget = int(budget)
        self._pids: frozenset[ProcessorId] | None = None
        self._arbiter = None

    @property
    def pids(self) -> frozenset[ProcessorId] | None:
        """The compromised set, or ``None`` before binding."""
        return self._pids

    def bind(self, pids: Sequence[ProcessorId]) -> None:
        """Fix the compromised set (normally via ``bind_clients``)."""
        chosen = frozenset(pids)
        if len(chosen) != self.budget:
            raise ConfigurationError(
                f"byz rule with budget {self.budget} bound to "
                f"{len(chosen)} pids {sorted(chosen)}"
            )
        self._pids = chosen

    def fork(self) -> "ByzantineRule":
        clone = type(self)(self.budget)
        clone._pids = self._pids
        return clone

    def judge(self, message, send_time, deliver_time, rng):
        pids = self._pids
        if pids is None:
            raise ConfigurationError(
                f"byzantine rule {self.spec_fragment()!r} consulted before "
                "binding; call FaultPlan.bind_clients(n) once the "
                "population size is known (RunSession does this for you)"
            )
        if message[0] not in pids:
            return None
        return self._judge_byzantine(message, rng)

    def _judge_byzantine(
        self, message: Message, rng: random.Random
    ) -> _Effect | None:
        raise NotImplementedError

    def spec_fragment(self) -> str:
        return f"byz={self.budget}@{self.strategy}"

    # -- per-message behaviours shared with MixedRule ------------------
    def _corrupt_effect(self, message, rng, shift=0, kind="corrupt"):
        mutated, changed = _mutate_ints(message.payload, rng, shift)
        if mutated is None:
            return None
        detail = ",".join(changed)
        if shift:
            detail += f" (receiver {message.receiver} variant)"
        return _Effect(
            kind=kind,
            detail=detail,
            replace=message._replace(payload=mutated),
        )


class CorruptRule(ByzantineRule):
    """Compromised senders rewrite integer payload fields (same lie to all)."""

    strategy = "corrupt"

    def _judge_byzantine(self, message, rng):
        return self._corrupt_effect(message, rng)


class EquivocateRule(ByzantineRule):
    """Compromised senders tell *different* lies to different receivers.

    The mutation adds the receiver id on top of the seeded delta, so two
    receivers of the same logical broadcast see conflicting values — the
    split-vote attack quorum protocols must survive.
    """

    strategy = "equivocate"

    def _judge_byzantine(self, message, rng):
        return self._corrupt_effect(
            message, rng, shift=message.receiver, kind="equivocate"
        )


class SilenceRule(ByzantineRule):
    """Compromised senders go selectively deaf: per-link sticky omission.

    Each (sender, receiver) link is judged once, on first use — a seeded
    coin decides whether the compromised sender *never* sends on that
    link.  Sticky omission starves the same victims all run long, the
    regime threshold-counting protocols must make progress under.
    """

    strategy = "silence"
    can_drop = True

    def __init__(self, budget: int) -> None:
        super().__init__(budget)
        self._deaf: dict[tuple[ProcessorId, ProcessorId], bool] = {}

    def fork(self) -> "SilenceRule":
        clone = super().fork()
        clone._deaf = {}
        return clone

    def reset(self) -> None:
        self._deaf.clear()

    def _judge_byzantine(self, message, rng):
        link = (message.sender, message.receiver)
        silent = self._deaf.get(link)
        if silent is None:
            silent = rng.random() < 0.5
            self._deaf[link] = silent
        if silent:
            return _Effect(
                drop_reason="silence",
                detail=f"{link[0]} withholds from {link[1]}",
            )
        return None


class MixedRule(ByzantineRule):
    """Per message, the adversary picks corrupt, equivocate or silence.

    The pick is seeded by default; the schedule explorer can take it
    over via :meth:`FaultPlan.install_adversary`, which makes the rule
    choice part of the explored (and shrunk) decision space.
    """

    strategy = "mixed"
    can_drop = True

    _BEHAVIOURS = ("corrupt", "equivocate", "silence")

    def _judge_byzantine(self, message, rng):
        if self._arbiter is not None:
            pick = self._arbiter("byz-rule", len(self._BEHAVIOURS))
        else:
            pick = rng.randrange(len(self._BEHAVIOURS))
        behaviour = self._BEHAVIOURS[pick % len(self._BEHAVIOURS)]
        if behaviour == "corrupt":
            return self._corrupt_effect(message, rng)
        if behaviour == "equivocate":
            return self._corrupt_effect(
                message, rng, shift=message.receiver, kind="equivocate"
            )
        return _Effect(
            drop_reason="silence",
            detail=f"{message.sender} withholds from {message.receiver}",
        )


_BYZANTINE_CLASSES = {
    "corrupt": CorruptRule,
    "equivocate": EquivocateRule,
    "silence": SilenceRule,
    "mixed": MixedRule,
}


def make_byzantine_rule(budget: int, strategy: str) -> ByzantineRule:
    """Build the Byzantine rule for ``byz=budget@strategy``."""
    try:
        cls = _BYZANTINE_CLASSES[strategy]
    except KeyError:
        raise ConfigurationError(
            f"unknown byzantine strategy {strategy!r}; expected one of "
            + ", ".join(BYZANTINE_STRATEGIES)
        ) from None
    return cls(budget)


class RecoveryPoint(NamedTuple):
    """A promise that a crashed processor recovers (state and role) at *time*.

    The wire side of a recovery is just a finite crash window — links work
    again from the window's end.  The recovery point is the *semantic*
    side: at :attr:`time` the recovery layer
    (:class:`~repro.sim.recovery.RecoveryManager`) re-delivers the
    processor's last checkpoint and lets the counter replay what it
    missed.  Always paired with a crash rule for the same pid whose
    window ends at or before :attr:`time`.

    Attributes:
        pid: the recovering processor.
        time: simulated time the checkpoint restore fires.
    """

    pid: ProcessorId
    time: float

    def spec_fragment(self) -> str:
        return f"recover={self.pid}@t{self.time:g}"


class FaultPlan:
    """A seeded, deterministic composition of :class:`FaultRule`\\ s.

    The plan owns all fault randomness (one seeded generator, drawn in
    rule order) and the fault ledger: every injected fault is one row of
    :attr:`events`, tallied by :attr:`counts`, regardless of the
    network's trace level, so experiments can report fault totals even
    from ``OFF``-traced runs.

    Args:
        rules: the composed rules, evaluated in order per message.
        seed: generator seed; equal seeds give equal injections.
        recoveries: :class:`RecoveryPoint` entries.  Each must name a pid
            with a crash rule starting before the recovery time; crash
            windows extending past the recovery time (including
            open-ended ``end=inf`` crashes) are truncated there, so the
            links come back exactly when the checkpoint restore fires.
    """

    def __init__(
        self,
        rules: Sequence[FaultRule],
        seed: int = 0,
        recoveries: Sequence[RecoveryPoint] = (),
    ) -> None:
        rule_list = list(rules)
        for rule in rule_list:
            if not isinstance(rule, FaultRule):
                raise ConfigurationError(
                    f"fault plan rules must be FaultRule instances, "
                    f"got {rule!r}"
                )
        points = sorted(recoveries, key=lambda point: (point.time, point.pid))
        for point in points:
            if not isinstance(point, RecoveryPoint):
                raise ConfigurationError(
                    f"fault plan recoveries must be RecoveryPoint "
                    f"instances, got {point!r}"
                )
        seen_pids = set()
        for point in points:
            if point.pid in seen_pids:
                raise ConfigurationError(
                    f"duplicate recovery for processor {point.pid}; one "
                    "recover= clause per pid"
                )
            seen_pids.add(point.pid)
            matching = [
                index
                for index, rule in enumerate(rule_list)
                if isinstance(rule, CrashRule)
                and rule.pid == point.pid
                and rule.start < point.time
            ]
            if not matching:
                raise ConfigurationError(
                    f"recover={point.pid}@t{point.time:g} has no matching "
                    f"crash rule (need crash={point.pid}@tS with S < "
                    f"{point.time:g})"
                )
            for index in matching:
                rule = rule_list[index]
                if rule.end > point.time:
                    rule_list[index] = CrashRule(
                        rule.pid, rule.start, point.time
                    )
        self._rules: tuple[FaultRule, ...] = tuple(rule_list)
        self._recoveries: tuple[RecoveryPoint, ...] = tuple(points)
        self._seed = seed
        self._rng = random.Random(seed)
        self._events = _Ledger()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def rules(self) -> tuple[FaultRule, ...]:
        """The composed rules, in evaluation order."""
        return self._rules

    @property
    def seed(self) -> int:
        """The seed the plan's generator was created with."""
        return self._seed

    @property
    def lossy(self) -> bool:
        """True if any rule can lose a message.

        A lossy plan requires counters to run behind
        :class:`~repro.sim.transport.ReliableTransport`; the registry's
        :class:`~repro.registry.RunSession` enforces this via the
        ``tolerates_message_loss`` capability.
        """
        return any(rule.can_drop for rule in self._rules)

    @property
    def recoveries(self) -> tuple[RecoveryPoint, ...]:
        """Recovery points, ordered by (time, pid)."""
        return self._recoveries

    @property
    def crash_rules(self) -> tuple[CrashRule, ...]:
        """Every crash rule in the plan, in evaluation order."""
        return tuple(
            rule for rule in self._rules if isinstance(rule, CrashRule)
        )

    @property
    def permanent_crash_pids(self) -> frozenset[ProcessorId]:
        """Pids crashed with no window end (and no recovery point).

        These processors never come back: the registry refuses such
        plans on counters without ``tolerates_crash``, because no amount
        of retransmission recovers state parked on a dead processor.
        """
        return frozenset(
            rule.pid
            for rule in self._rules
            if isinstance(rule, CrashRule) and math.isinf(rule.end)
        )

    @property
    def byzantine_rules(self) -> tuple["ByzantineRule", ...]:
        """Every Byzantine rule in the plan, in evaluation order."""
        return tuple(
            rule for rule in self._rules if isinstance(rule, ByzantineRule)
        )

    @property
    def byzantine_pids(self) -> frozenset[ProcessorId]:
        """The union of all bound compromised sets (empty before binding).

        Drivers and oracles treat these processors' own operations as
        optional: a liar's op may never complete, and whatever it
        reports is not evidence against the protocol.
        """
        pids: set[ProcessorId] = set()
        for rule in self._rules:
            if isinstance(rule, ByzantineRule) and rule.pids is not None:
                pids.update(rule.pids)
        return frozenset(pids)

    @property
    def unanswerable_pids(self) -> frozenset[ProcessorId]:
        """Initiators whose own operations may go unanswered: the
        permanently crashed (a dead client cannot observe its response)
        and the Byzantine.  The one rule every driver reads."""
        return self.permanent_crash_pids | self.byzantine_pids

    @property
    def non_byzantine_lossy(self) -> bool:
        """True if a *non-Byzantine* rule can lose a message.

        Byzantine omission (``silence``) is covered by the
        ``tolerates_byzantine`` capability — a protocol that survives
        lying senders survives their silence.  Only honest-link loss
        (drop/partition/crash) forces the reliable-transport gate.
        """
        return any(
            rule.can_drop and not isinstance(rule, ByzantineRule)
            for rule in self._rules
        )

    def bind_clients(self, n: int, chooser=None) -> None:
        """Fix each Byzantine rule's compromised set for population *n*.

        Idempotent: rules already bound (e.g. a plan reused across
        sessions, or a fork of a bound plan) keep their sets.  Pids are
        drawn without replacement from ``1..n`` using a generator
        *derived* from the plan seed — never the plan's own stream, so
        binding does not perturb the fault injections.  An explorer can
        pass ``chooser(kind, count) -> index`` to take the draw over
        (kind ``"byz-pid"``), which makes the compromised set part of
        the recorded, replayable, shrinkable schedule.
        """
        unbound = [
            rule
            for rule in self._rules
            if isinstance(rule, ByzantineRule) and rule.pids is None
        ]
        if not unbound:
            return
        derived = random.Random(f"{self._seed}:byz")
        for rule in unbound:
            if rule.budget >= n:
                raise ConfigurationError(
                    f"byz budget {rule.budget} must be < n={n}: the "
                    "adversary cannot compromise every client"
                )
            candidates = list(range(1, n + 1))
            chosen = []
            for _ in range(rule.budget):
                if chooser is not None:
                    index = chooser("byz-pid", len(candidates))
                else:
                    index = derived.randrange(len(candidates))
                chosen.append(candidates.pop(index % len(candidates)))
            rule.bind(tuple(sorted(chosen)))

    def install_adversary(self, chooser) -> None:
        """Route per-message Byzantine choices through *chooser*.

        *chooser(kind, count)* returns an index in ``[0, count)``; the
        only per-message kind today is ``"byz-rule"`` (which behaviour a
        ``mixed`` adversary uses).  The explorer installs its schedule
        controller here so adversary choices live in the same decision
        stream as delays and tie-breaks.
        """
        for rule in self._rules:
            if isinstance(rule, ByzantineRule):
                rule._arbiter = chooser

    @property
    def events(self) -> Sequence[FaultRecord]:
        """Every injected fault so far, in injection order: a read-only
        sequence of :class:`FaultRecord`, each built on access from the
        plan's columns (:meth:`reset` starts a new one)."""
        return self._events

    @property
    def counts(self) -> dict[str, int]:
        """Injected-fault tallies by kind, in order of first injection
        (a fresh dict)."""
        return dict(Counter(record.kind for record in self._events))

    @property
    def spec(self) -> str:
        """The plan's canonical fault-spec string."""
        fragments = [rule.spec_fragment() for rule in self._rules]
        fragments.extend(point.spec_fragment() for point in self._recoveries)
        return ",".join(fragments)

    def __repr__(self) -> str:
        return f"FaultPlan({self.spec!r}, seed={self._seed})"

    # ------------------------------------------------------------------
    # Lifecycle (the DeliveryPolicy fork/reset contract)
    # ------------------------------------------------------------------
    def fork(self) -> "FaultPlan":
        """A fresh, equivalently-seeded, independent plan.

        The fork starts with an empty ledger and a generator reseeded
        from scratch: its injections equal a brand-new plan's, whatever
        the parent has already consumed.
        """
        return FaultPlan(
            [rule.fork() for rule in self._rules],
            seed=self._seed,
            recoveries=self._recoveries,
        )

    def reset(self) -> None:
        """Reseed the generator and clear the ledger (network reuse).

        Stateful rules (sticky ``silence`` links) clear their per-run
        state too, so a reset plan injects exactly what a fresh one
        would.  Bound Byzantine sets survive — they are configuration,
        not consumption.
        """
        self._rng = random.Random(self._seed)
        self._events = _Ledger()
        for rule in self._rules:
            rule.reset()

    # ------------------------------------------------------------------
    # The send-path consultation
    # ------------------------------------------------------------------
    def consult(
        self, message: Message, send_time: float, deliver_time: float
    ) -> FaultOutcome | None:
        """Decide the fate of one message about to be scheduled.

        Returns ``None`` when no rule touches the message (the network's
        common case: schedule one delivery at *deliver_time* exactly as
        the clean path would).  Otherwise appends one row per effect to
        the plan's ledger and returns the absolute delivery times of
        every copy (empty on drop) and any rewritten message.
        """
        rng = self._rng
        effects: list[_Effect] = []
        current = message
        for rule in self._rules:
            effect = rule.judge(current, send_time, deliver_time, rng)
            if effect is None:
                continue
            effects.append(effect)
            if effect.drop_reason is not None:
                break
            if effect.replace is not None:
                # Later rules judge the rewritten message; the last
                # rewrite is what goes on the wire.
                current = effect.replace
        if not effects:
            return None
        sender, receiver = message[0], message[1]
        op_index, uid = message[4], message[5]
        add = self._events.add
        for effect in effects:
            kind = (
                effect.kind
                or effect.drop_reason
                or ("duplicate" if effect.copy_delays else "reorder")
            )
            add(send_time, kind, sender, receiver, op_index, uid, effect.detail)
        if effects[-1].drop_reason is not None:  # a drop ends the loop
            return FaultOutcome(delivery_times=())
        base = deliver_time + sum(e.extra_delay for e in effects)
        times = [base]
        for effect in effects:
            times.extend(base + extra for extra in effect.copy_delays)
        return FaultOutcome(
            delivery_times=tuple(times),
            message=current if current is not message else None,
        )


# ----------------------------------------------------------------------
# Fault-spec strings (the CLI / sweep naming layer)
# ----------------------------------------------------------------------

def _parse_float(field: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigurationError(
            f"fault spec field {field!r} expects a number, got {text!r}"
        ) from None


def _parse_window(field: str, text: str) -> tuple[float, float]:
    """Parse ``t50`` or ``t50-t80`` into a ``[start, end)`` window."""
    if not text.startswith("t"):
        raise ConfigurationError(
            f"fault spec field {field!r} expects a window like 't50' or "
            f"'t50-t80', got {text!r}"
        )
    start_text, separator, end_text = text[1:].partition("-")
    start = _parse_float(field, start_text)
    if not separator:
        return start, math.inf
    if not end_text.startswith("t"):
        raise ConfigurationError(
            f"fault spec field {field!r}: window end must look like 't80', "
            f"got {end_text!r}"
        )
    return start, _parse_float(field, end_text[1:])


def _parse_group(field: str, text: str) -> list[ProcessorId]:
    """Parse ``1..4`` (range) or ``1+3+9`` (explicit ids) into pids."""
    if ".." in text:
        lo_text, _, hi_text = text.partition("..")
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError:
            raise ConfigurationError(
                f"fault spec field {field!r}: bad id range {text!r}"
            ) from None
        if lo > hi:
            raise ConfigurationError(
                f"fault spec field {field!r}: empty id range {text!r}"
            )
        return list(range(lo, hi + 1))
    try:
        return [int(part) for part in text.split("+")]
    except ValueError:
        raise ConfigurationError(
            f"fault spec field {field!r}: bad id list {text!r}"
        ) from None


def _rule_from_field(key: str, value: str) -> FaultRule:
    if key == "drop":
        return DropRule(_parse_float(key, value))
    if key == "dup":
        probability_text, separator, copies_text = value.partition("x")
        probability = _parse_float(key, probability_text)
        copies = 1
        if separator:
            try:
                copies = int(copies_text)
            except ValueError:
                raise ConfigurationError(
                    f"fault spec field 'dup': bad copy count {copies_text!r}"
                ) from None
        return DuplicateRule(probability, copies=copies)
    if key == "reorder":
        probability_text, separator, boost_text = value.partition("@")
        probability = _parse_float(key, probability_text)
        if separator:
            return ReorderRule(probability, max_boost=_parse_float(key, boost_text))
        return ReorderRule(probability)
    if key == "crash":
        pid_text, separator, window_text = value.partition("@")
        try:
            pid = int(pid_text)
        except ValueError:
            raise ConfigurationError(
                f"fault spec field 'crash': bad processor id {pid_text!r}"
            ) from None
        if not separator:
            raise ConfigurationError(
                "fault spec field 'crash' needs a window, e.g. crash=3@t50 "
                "or crash=3@t50-t80"
            )
        start, end = _parse_window(key, window_text)
        return CrashRule(pid, start, end)
    if key == "partition":
        groups_text, separator, window_text = value.partition("@")
        if "|" not in groups_text:
            raise ConfigurationError(
                "fault spec field 'partition' needs two groups separated "
                "by '|', e.g. partition=1..4|5..8@t10-t50"
            )
        a_text, _, b_text = groups_text.partition("|")
        start, end = (
            _parse_window(key, window_text) if separator else (0.0, math.inf)
        )
        return PartitionRule(
            _parse_group(key, a_text), _parse_group(key, b_text), start, end
        )
    # "byz": parse_fault_spec admits only the keys of _FIELD_ORDER
    budget_text, separator, strategy = value.partition("@")
    try:
        budget = int(budget_text)
    except ValueError:
        raise ConfigurationError(
            f"fault spec field 'byz': bad budget {budget_text!r}; "
            "expected an integer count of compromised processors"
        ) from None
    if not separator or not strategy:
        raise ConfigurationError(
            "fault spec field 'byz' needs a strategy, e.g. "
            "byz=1@corrupt (one of "
            + ", ".join(BYZANTINE_STRATEGIES)
            + ")"
        )
    return make_byzantine_rule(budget, strategy)


def _recovery_from_field(value: str) -> RecoveryPoint:
    pid_text, separator, time_text = value.partition("@")
    try:
        pid = int(pid_text)
    except ValueError:
        raise ConfigurationError(
            f"fault spec field 'recover': bad processor id {pid_text!r}"
        ) from None
    if not separator or not time_text.startswith("t"):
        raise ConfigurationError(
            "fault spec field 'recover' needs a time, e.g. recover=3@t90"
        )
    return RecoveryPoint(pid, _parse_float("recover", time_text[1:]))


#: canonical ordering of rule families in a parsed plan — parsing is
#: order-insensitive, so equivalent spellings build identical plans (and
#: identical RNG streams).  ``recover`` fields become
#: :class:`RecoveryPoint` entries, not rules, and always sort last.
_FIELD_ORDER = {
    "drop": 0,
    "dup": 1,
    "reorder": 2,
    "partition": 3,
    "crash": 4,
    "byz": 5,
    "recover": 6,
}


def parse_fault_spec(text: str, seed: int = 0) -> FaultPlan:
    """Build a :class:`FaultPlan` from a spec string.

    Grammar (comma-separated fields, any order)::

        drop=P                      lose messages with probability P
        dup=P[xC]                   duplicate with probability P (C copies)
        reorder=P[@BOOST]           delay-boost with probability P
        crash=PID@tSTART[-tEND]     processor down in [START, END)
        partition=A|B@tSTART[-tEND] drop the A/B cut in the window
                                    (groups: '1..4' ranges or '1+5+9' lists)
        byz=F@STRATEGY              F Byzantine processors; STRATEGY one of
                                    corrupt, equivocate, silence, mixed
        recover=PID@tT              crashed PID restored (state + role) at T;
                                    truncates PID's crash window at T

    Fields are canonically reordered (drop, dup, reorder, partitions,
    crashes, byzantine budgets, recoveries) so equivalent spellings produce identical
    plans — :func:`canonical_fault_spec` is the cache key for sweeps.
    A ``recover`` field requires a ``crash`` field for the same pid
    starting before the recovery time.
    """
    stripped = text.strip()
    if not stripped:
        raise ConfigurationError("empty fault spec")
    fields: list[tuple[int, int, str, str]] = []
    for position, part in enumerate(stripped.split(",")):
        key, separator, value = part.strip().partition("=")
        if not separator or not key or not value:
            raise ConfigurationError(
                f"malformed fault spec field {part!r} in {text!r}; "
                "expected key=value"
            )
        if key not in _FIELD_ORDER:
            raise ConfigurationError(
                f"unknown fault spec field {key!r}; expected one of "
                + ", ".join(_FIELD_ORDER)
            )
        if key in ("drop", "dup", "reorder") and any(
            existing == key for _, _, existing, _ in fields
        ):
            raise ConfigurationError(
                f"duplicate fault spec field {key!r} in {text!r}"
            )
        fields.append((_FIELD_ORDER[key], position, key, value))
    fields.sort(key=lambda item: (item[0], item[1]))
    rules = [
        _rule_from_field(key, value)
        for _, _, key, value in fields
        if key != "recover"
    ]
    recoveries = [
        _recovery_from_field(value)
        for _, _, key, value in fields
        if key == "recover"
    ]
    return FaultPlan(rules, seed=seed, recoveries=recoveries)


def canonical_fault_spec(text: str) -> str:
    """The canonical form of a fault-spec string (sweep cache key)."""
    return parse_fault_spec(text).spec
