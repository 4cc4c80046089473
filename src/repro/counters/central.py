"""The central counter: message-optimal, bottleneck-pessimal.

This is the strawman from the paper's introduction: "a data structure
implementing a distributed counter could be message optimal by just
storing the counter value with a single processor and having all other
processors access the counter with only one message exchange ... This
solution does not scale" (§1).

Exactly two messages per remote ``inc`` (request + reply), zero for the
server's own ``inc`` — but the server's load is ``2(n-1)`` over the
one-shot workload, a Θ(n) bottleneck.  Every comparison in the benchmark
suite is anchored against this implementation.
"""

from __future__ import annotations

from repro.api import Capabilities, DistributedCounter
from repro.errors import ConfigurationError, ProtocolError
from repro.sim.messages import Message, OpIndex, ProcessorId
from repro.sim.network import Network
from repro.sim.processor import Processor

KIND_INC = "inc"
KIND_VALUE = "value"


class _CentralClient(Processor):
    """A client: forwards ``inc`` requests to the server, receives values."""

    def __init__(self, pid: ProcessorId, counter: "CentralCounter") -> None:
        super().__init__(pid)
        self._counter = counter

    def request_inc(self) -> None:
        """Initiate one ``inc`` (local event, not a message)."""
        if self.pid == self._counter.server_id:
            # The server increments locally: it already holds the value.
            value = self._counter.take_value()
            self._counter.deliver_result(self.pid, value)
            return
        self.send(self._counter.server_id, KIND_INC)

    def on_message(self, message: Message) -> None:
        if message.kind == KIND_VALUE:
            self._counter.deliver_result(self.pid, message.payload["value"])
            return
        if message.kind == KIND_INC:
            # Only the server receives inc requests.
            if self.pid != self._counter.server_id:
                raise ProtocolError(
                    f"non-server processor {self.pid} received an inc request"
                )
            value = self._counter.take_value()
            self.send(message.sender, KIND_VALUE, {"value": value})
            return
        raise ProtocolError(f"central counter: unknown message kind {message.kind!r}")


class CentralCounter(DistributedCounter):
    """Counter value held by a single server processor.

    Args:
        network: simulator to wire into.
        n: number of client processors (ids 1..n).
        server_id: which processor holds the value (defaults to 1).
    """

    name = "central"
    capabilities = Capabilities()

    def __init__(self, network: Network, n: int, server_id: ProcessorId = 1) -> None:
        super().__init__(network, n)
        if not 1 <= server_id <= n:
            raise ConfigurationError(
                f"server id {server_id} outside processor range 1..{n}"
            )
        self.server_id = server_id
        self._value = 0
        self._clients: dict[ProcessorId, _CentralClient] = {}
        for pid in self.client_ids():
            client = _CentralClient(pid, self)
            network.register(client)
            self._clients[pid] = client

    def take_value(self) -> int:
        """Return the current value and increment (server-side helper)."""
        value = self._value
        self._value += 1
        return value

    @property
    def value(self) -> int:
        """Current counter value (test introspection only)."""
        return self._value

    def begin_inc(self, pid: ProcessorId, op_index: OpIndex) -> None:
        if pid not in self._clients:
            raise ConfigurationError(f"processor {pid} is not a client of this counter")
        client = self._clients[pid]
        self.network.inject(client.request_inc, op_index=op_index)
