"""Message-delivery policies: how long a message stays in flight.

The paper's model only requires that every message arrives "an unbounded
but finite amount of time after it has been sent" (§2).  The *counts* of
messages — the quantity the lower bound is about — are independent of
delays, but delays do decide the interleaving of concurrent traffic, so the
test suite runs every protocol under several policies to check that message
loads are delay-invariant.

A policy is a single method object: :meth:`DeliveryPolicy.delay` returns
the in-flight time for a message.  Policies may be stateful (the random
policy owns a seeded generator) but must be deterministic given their
constructor arguments, so simulations replay exactly.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod

from repro.sim.messages import Message


class DeliveryPolicy(ABC):
    """Strategy deciding the network delay of each message."""

    constant_delay: float | None = None
    """If not ``None``, every message takes exactly this delay and the
    network may skip the per-message :meth:`delay` call entirely (the
    simulator's send fast path).  Policies whose delay depends on the
    message or on internal state must leave this ``None``."""

    @abstractmethod
    def delay(self, message: Message) -> float:
        """Return the in-flight delay (> 0) for *message*."""

    def fork(self) -> "DeliveryPolicy":
        """Return a fresh, equivalently configured policy.

        Used when a harness runs several simulations that must not share
        generator state.  Stateless policies may return ``self``.
        """
        return self


class UnitDelay(DeliveryPolicy):
    """Every message takes exactly one time unit.

    This is the synchronous-looking schedule most papers use for time
    complexity; with tie-breaking by send order it yields FIFO channels.
    """

    constant_delay = 1.0

    def delay(self, message: Message) -> float:
        return 1.0

    def __repr__(self) -> str:
        return "UnitDelay()"


class RandomDelay(DeliveryPolicy):
    """Uniformly random delay in ``[low, high]`` from a seeded generator.

    Distinct messages get independent delays, so channels are *not* FIFO —
    exactly the asynchrony the paper's model permits.
    """

    def __init__(self, seed: int = 0, low: float = 0.5, high: float = 10.0) -> None:
        if low <= 0 or high < low:
            raise ValueError(f"need 0 < low <= high, got low={low} high={high}")
        self._seed = seed
        self._low = low
        self._high = high
        self._span = high - low
        self._rng = random.Random(seed)

    def delay(self, message: Message) -> float:
        # Random.uniform's arithmetic without its Python frame: the same
        # float.  The generator's method is looked up per call, never
        # kept: deepcopy shares builtin bound methods, so a copy would
        # draw from this policy's generator.
        return self._low + self._span * self._rng.random()

    def fork(self) -> "RandomDelay":
        return RandomDelay(seed=self._seed, low=self._low, high=self._high)

    def __repr__(self) -> str:
        return f"RandomDelay(seed={self._seed}, low={self._low}, high={self._high})"


class FifoRandomDelay(DeliveryPolicy):
    """Random delays with per-channel FIFO order preserved.

    Each (sender, receiver) channel draws a random delay but never lets
    a message overtake an earlier one on the same channel — the classic
    reliable-FIFO-link model.  Cross-channel reordering (the asynchrony
    the paper's model allows) still happens freely.
    """

    def __init__(self, seed: int = 0, low: float = 0.5, high: float = 10.0) -> None:
        if low <= 0 or high < low:
            raise ValueError(f"need 0 < low <= high, got low={low} high={high}")
        self._seed = seed
        self._low = low
        self._high = high
        self._span = high - low
        self._rng = random.Random(seed)
        self._last_delivery: dict[tuple[int, int], float] = {}

    def delay(self, message: Message) -> float:
        drawn = self._low + self._span * self._rng.random()  # as RandomDelay
        channel = (message.sender, message.receiver)
        delivery = message.send_time + drawn
        floor = self._last_delivery.get(channel)
        if floor is not None and delivery <= floor:
            delivery = floor + 1e-9
        self._last_delivery[channel] = delivery
        return delivery - message.send_time

    def fork(self) -> "FifoRandomDelay":
        return FifoRandomDelay(seed=self._seed, low=self._low, high=self._high)

    def __repr__(self) -> str:
        return (
            f"FifoRandomDelay(seed={self._seed}, low={self._low}, "
            f"high={self._high})"
        )


class SkewedDelay(DeliveryPolicy):
    """Adversarially skewed delays: some sender/receiver pairs are slow.

    Messages whose ``(sender + receiver)`` parity matches ``slow_parity``
    take ``slow`` time units, the rest take one.  This is a cheap, fully
    deterministic adversary that massively reorders concurrent traffic and
    is useful for shaking out protocols that silently assume FIFO global
    ordering.
    """

    def __init__(self, slow: float = 50.0, slow_parity: int = 0) -> None:
        if slow <= 0:
            raise ValueError(f"slow delay must be positive, got {slow}")
        self._slow = slow
        self._slow_parity = slow_parity % 2

    def delay(self, message: Message) -> float:
        if (message.sender + message.receiver) % 2 == self._slow_parity:
            return self._slow
        return 1.0

    def __repr__(self) -> str:
        return f"SkewedDelay(slow={self._slow}, slow_parity={self._slow_parity})"


class CongestedDelay(DeliveryPolicy):
    """Store-and-forward congestion: receivers serve one message at a time.

    Each message needs *latency* time on the wire plus *service* time at
    the receiver, and a receiver processes messages sequentially — a
    message arriving while the receiver is busy queues.  Under this
    model the *completion time* of a workload is lower-bounded by the
    bottleneck processor's message load, which is exactly why the
    paper's measure matters: a Θ(n)-load processor makes the whole
    system Θ(n) slow no matter how few messages everyone else handles.
    """

    def __init__(self, latency: float = 1.0, service: float = 1.0) -> None:
        if latency < 0 or service <= 0:
            raise ValueError(
                f"need latency >= 0 and service > 0, got {latency}/{service}"
            )
        self._latency = latency
        self._service = service
        self._receiver_free: dict[int, float] = {}

    def delay(self, message: Message) -> float:
        arrival = message.send_time + self._latency
        start = max(arrival, self._receiver_free.get(message.receiver, 0.0))
        done = start + self._service
        self._receiver_free[message.receiver] = done
        return done - message.send_time

    def fork(self) -> "CongestedDelay":
        return CongestedDelay(latency=self._latency, service=self._service)

    def __repr__(self) -> str:
        return f"CongestedDelay(latency={self._latency}, service={self._service})"


def standard_policies(seed: int = 0) -> list[DeliveryPolicy]:
    """The policy battery the tests run every counter under."""
    return [UnitDelay(), RandomDelay(seed=seed), SkewedDelay()]
