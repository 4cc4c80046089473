"""The processor abstraction: a message-driven program with an identity.

A processor owns no threads; it is a pure event handler.  The network
delivers one message at a time to :meth:`Processor.on_message`, during
which the processor may update local state and send further messages.
This mirrors the paper's model: unbounded local memory, no shared memory,
communication only by point-to-point messages (§2).

Processors send exclusively through :meth:`Processor.send`, which routes
through the owning network — so every message is delayed by the delivery
policy and accounted in the trace.  There is deliberately no back door.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Mapping

from repro.errors import SimulationError
from repro.sim.messages import _EMPTY_PAYLOAD, Message, ProcessorId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.sim.network import Network


class Processor(ABC):
    """Base class for all simulated processor programs.

    Subclasses implement :meth:`on_message` and may define additional
    entry points invoked via :meth:`Network.inject` (for example, an
    ``inc`` initiation, which the paper models as a local request rather
    than a message).

    The base class declares ``__slots__`` so that a slotted subclass
    (the tree counter builds one worker per processor id) carries no
    instance ``__dict__``; subclasses that declare none keep theirs.
    """

    __slots__ = ("pid", "_network")

    def __init__(self, pid: ProcessorId) -> None:
        if pid <= 0:
            raise ValueError(f"processor ids are positive integers, got {pid}")
        self.pid = pid
        self._network: "Network | None" = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    @property
    def network(self) -> "Network":
        """The network this processor is registered with."""
        if self._network is None:
            raise SimulationError(
                f"processor {self.pid} is not registered with a network"
            )
        return self._network

    def attach(self, network: "Network") -> None:
        """Called by :meth:`Network.register`; not for direct use."""
        if self._network is not None and self._network is not network:
            raise SimulationError(
                f"processor {self.pid} is already attached to another network"
            )
        self._network = network

    # ------------------------------------------------------------------
    # Communication
    # ------------------------------------------------------------------
    def send(
        self,
        receiver: ProcessorId,
        kind: str,
        payload: Mapping[str, Any] = _EMPTY_PAYLOAD,
    ) -> None:
        """Send one message to *receiver* through the network.

        The message is attributed to the operation currently executing on
        the network, is delayed by the delivery policy, and adds one unit
        of load to both endpoints when delivered.  With no *payload* the
        message carries the shared, immutable empty one.
        """
        network = self._network
        if network is None:
            network = self.network  # raises: not registered
        network.send(self.pid, receiver, kind, payload)

    # ------------------------------------------------------------------
    # Behaviour
    # ------------------------------------------------------------------
    @abstractmethod
    def on_message(self, message: Message) -> None:
        """Handle one delivered message.

        Runs atomically: no other delivery interleaves with this call.
        """


class InertProcessor(Processor):
    """A processor that ignores every message.

    Useful as a placeholder for processors that exist in the id space but
    play no active role in a given protocol (and in tests that need a
    registered-but-passive endpoint).
    """

    __slots__ = ()

    def on_message(self, message: Message) -> None:  # noqa: ARG002
        return None
