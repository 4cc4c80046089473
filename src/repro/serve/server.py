"""The asyncio TCP front-end: any registered counter as a live service.

A :class:`CounterService` owns a :class:`~repro.registry.RunSession`
built on the asyncio runtime and exposes its counter over a
newline-delimited TCP protocol:

=============== ===================================== =======================
Request         Response                              Meaning
=============== ===================================== =======================
``INC``         ``OK <value>``                        one test-and-increment
``INC R``       ``OK <value>``                        idempotent: retries of
                                                      request id ``R`` return
                                                      the committed value
``INC R D``     ``OK <value>`` or                     as above, with a
                ``ERR DEADLINE_EXCEEDED ...``         deadline of ``D`` ms
``STATS``       ``STATS spec=<s> n=<n> ...``          service counters
``PING``        ``PONG``                              liveness probe
``SHUTDOWN``    ``BYE``                               drain in-flight ops,
                                                      then stop
(overlong line) ``ERR LINE_TOO_LONG ...``             reader bound exceeded
(other)         ``ERR ...``                           protocol error
=============== ===================================== =======================

Concurrency model: the counter has ``n`` client processors.  An
admitted request takes a free processor id at once or queues, oldest
first, for the next one a settled result frees — so at most ``n``
operations overlap and each processor runs at most one at a time,
exactly the discipline the protocols assume.

Connections: every connection is one :class:`asyncio.Protocol`, not a
reader task.  ``data_received`` splits complete lines out of a buffer
bounded by ``line_limit`` and handles them in order, one at a time: a
line starts only after the previous one was answered, and its answer is
written straight onto the transport.  A command that can answer at
once (``PING``, ``STATS``, a refusal) does so inside the callback; an
``INC`` is admitted there too and handed a reply sink that the settle
step, the deadline timer or a failure answers later — no task per
request.  While a line waits, input keeps buffering until
``line_limit`` and then reading pauses; while the transport's write
buffer is full, no new line starts.

Resilience (see :mod:`repro.serve.resilience`): requests beyond ``n``
wait for a processor only up to a bounded backlog — past it the service
*sheds* with ``ERR OVERLOADED`` instead of queueing without bound.  A
request whose deadline expires answers ``ERR DEADLINE_EXCEEDED``
immediately, but an operation already injected into the protocol runs
to completion in the background: its processor id returns to the pool
then, and its request id is recorded as committed, so a client retry
with the same id receives the committed value instead of
double-counting.  ``SHUTDOWN`` drains: new operations are refused with
``ERR SHUTTING_DOWN`` while in-flight ones finish.  A wire deadline
must be finite and positive; anything else is ``ERR BAD_REQUEST``.

Execution: protocol events run in a single pump task that drains the
:class:`~repro.runtime.AsyncioRuntime` whenever new work is injected —
connection callbacks and callers never touch the network concurrently,
so no locking is needed anywhere.  If the pump dies *or is cancelled*,
every injected and every queued operation is failed with the cause, so
no client ever hangs on a stranded request.
"""

from __future__ import annotations

import asyncio
import math
from collections import deque
from functools import partial
from typing import Any, Coroutine

from repro.errors import (
    CapabilityError,
    DeadlineExceededError,
    OverloadedError,
    ServiceError,
    ServiceStoppedError,
)
from repro.registry import RunSession, parse_spec
from repro.serve.resilience import DedupTable, ResilienceConfig
from repro.sim.trace import TraceLevel

__all__ = ["CounterService", "LineProtocolService", "serve_counter"]


def wire_deadline(text: str) -> float | None:
    """A wire deadline of *text* milliseconds, in seconds.

    ``None`` unless it is a finite number above zero: ``nan``, ``inf``
    and non-positive values are refused, never read as "no deadline"
    or as "already expired".
    """
    try:
        deadline = float(text) / 1000.0
    except ValueError:
        return None
    return deadline if math.isfinite(deadline) and deadline > 0 else None


def error_line(exc: BaseException) -> bytes:
    """The ``ERR ...`` answer line for a failed request."""
    if isinstance(exc, ServiceError):
        text = f"ERR {exc.code} {exc}\n"
    else:
        text = f"ERR {type(exc).__name__}: {exc}\n"
    return text.encode("ascii", "replace")


class _WireReply:
    """Where a wire ``INC``'s outcome goes: straight onto its connection.

    It has the three future methods a reply is given (``done``,
    ``set_result``, ``set_exception``).  The first outcome answers and
    cancels the deadline *timer*; a later one (a value that arrives
    after the deadline answered) is dropped.
    """

    __slots__ = ("connection", "timer", "_done")

    def __init__(self, connection: LineConnection) -> None:
        self.connection = connection
        self.timer: asyncio.TimerHandle | None = None
        self._done = False

    def done(self) -> bool:
        return self._done

    def set_result(self, value: int) -> None:
        self._answer(b"OK %d\n" % value)

    def set_exception(self, error: BaseException) -> None:
        self._answer(error_line(error))

    def _answer(self, line: bytes) -> None:
        if self._done:
            return
        self._done = True
        if self.timer is not None:
            self.timer.cancel()
        self.connection.answer(line)


Reply = asyncio.Future[int] | _WireReply


def _follow(reply: Reply, original: asyncio.Future[int]) -> None:
    """Answer *reply* with a request id's resolved ledger entry."""
    if reply.done():
        return  # its deadline answered first
    error = original.exception()
    if error is None:
        reply.set_result(original.result())
    else:
        reply.set_exception(error)


class LineConnection(asyncio.Protocol):
    """One client connection of a :class:`LineProtocolService`.

    Lines are handled strictly in order, one at a time: the next line
    starts only once the current one was answered through
    :meth:`answer` — at once, by an ``INC``'s :class:`_WireReply`, or
    from a task (:meth:`answer_later`: the keyed ``SPLIT`` and
    ``MERGE``).  Buffered input is bounded by ``line_limit``: a line
    longer than that answers ``ERR LINE_TOO_LONG`` and the connection
    closes (framing is lost past it), and while a line waits, reading
    pauses once the buffer holds more than the bound.  A final line
    without a newline is answered at EOF, like any other.
    """

    transport: asyncio.Transport  # set by connection_made, before any use

    def __init__(self, service: LineProtocolService) -> None:
        self.service = service
        self.limit = service.config.line_limit
        self._buffer = bytearray()
        self._waiting = False  # a line was taken and is not answered yet
        self._advancing = False
        self._eof = False
        self._closed = False
        self._write_paused = False

    # asyncio.Protocol ---------------------------------------------------
    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]
        self.service._connections.add(self)

    def connection_lost(self, exc: Exception | None) -> None:
        self._closed = True
        self.service._connections.discard(self)

    def data_received(self, data: bytes) -> None:
        self._buffer += data
        self._advance()

    def eof_received(self) -> bool:
        self._eof = True
        self._advance()
        return True  # half-open: answers still owed go out before close

    def pause_writing(self) -> None:
        self._write_paused = True

    def resume_writing(self) -> None:
        self._write_paused = False
        self._advance()

    # the service's side -------------------------------------------------
    def answer(self, line: bytes) -> None:
        """Answer the current line and start the next buffered one."""
        self._waiting = False
        if self._closed:
            return  # the client left: the answer has nowhere to go
        self.transport.write(line)
        self._advance()

    def answer_later(self, reply: Coroutine[Any, Any, bytes]) -> None:
        """Answer the current line with what the task running *reply*
        returns (an escaping exception answers as its ``ERR`` line)."""
        task = asyncio.get_running_loop().create_task(reply)
        self.service._requests.add(task)
        task.add_done_callback(self._reply_done)

    def _reply_done(self, task: asyncio.Task[bytes]) -> None:
        self.service._requests.discard(task)
        if task.cancelled():
            self.close()
            return
        exc = task.exception()
        self.answer(task.result() if exc is None else error_line(exc))

    def close(self) -> None:
        """Stop handling lines; close once queued writes are flushed."""
        self._closed = True
        self.transport.close()

    def abort(self) -> None:
        """Drop the connection at once (what :meth:`stop` does)."""
        self._closed = True
        self.transport.abort()

    # the line loop ------------------------------------------------------
    def _advance(self) -> None:
        """Handle buffered lines until one has to wait for its answer."""
        if self._advancing:
            return  # re-entered from a synchronous answer: the loop goes on
        self._advancing = True
        try:
            while not (self._waiting or self._closed or self._write_paused):
                line = self._next_line()
                if line is None:
                    break
                parts = line.decode("ascii", "replace").split()
                if parts:
                    self._waiting = True
                    self.service._handle_line(
                        self, parts[0].upper(), parts[1:]
                    )
        finally:
            self._advancing = False
        if not (self._closed or self._eof):  # both calls are idempotent
            if len(self._buffer) > self.limit:
                self.transport.pause_reading()
            else:
                self.transport.resume_reading()

    def _next_line(self) -> bytearray | None:
        """Take the next complete line, or ``None`` if there is none yet.

        Closes the connection on an overlong line and, once the client
        has sent EOF, after the last line."""
        buffer = self._buffer
        end = buffer.find(b"\n")
        if end > self.limit or (end < 0 and len(buffer) > self.limit):
            self.service._overlong += 1
            self.transport.write(
                f"ERR LINE_TOO_LONG protocol lines are capped at "
                f"{self.limit} bytes\n".encode("ascii")
            )
            self.close()
            return None
        if end < 0:
            if not self._eof:
                return None
            if not buffer:
                self.close()
                return None
            end = len(buffer) - 1  # the final, unterminated line
        line = buffer[: end + 1]
        del buffer[: end + 1]
        return line


class LineProtocolService:
    """Shared machinery of the newline-delimited TCP services.

    Owns the socket lifecycle (bind, graceful drain, abort-and-join on
    stop), the per-connection line handling (:class:`LineConnection`)
    and the commands every service speaks — ``PING``, bare ``STATS``
    and ``SHUTDOWN``.  Subclasses add their own grammar by overriding
    :meth:`_dispatch` (return ``True`` when the command was handled;
    the command must then be answered through the connection, at once
    or later) and hook the drain phase of :meth:`stop` via
    :meth:`_drain_work`.  :class:`CounterService` serves one counter;
    :class:`repro.serve.keyed.KeyedCounterService` serves a sharded
    keyspace of them.

    It also owns the part of an increment's life that does not depend
    on how the increment is executed (:meth:`_accept`): the draining
    refusal, the request-id ledger (:class:`DedupTable`), the deadline
    timer and the backlog-cap shed, with the counters ``STATS`` reports
    for them.  *How* an admitted increment runs — up to n leased
    processors overlapping in one protocol, or one batch at a time per
    shard — is the subclass's :meth:`_admit`, as is its ``backlog``.
    """

    _PENDING: str
    """How the deadline error words an accepted, unanswered operation."""

    def __init__(
        self, host: str, port: int, resilience: ResilienceConfig | None
    ) -> None:
        self.host = host
        self.port = port
        self.config = (
            resilience if resilience is not None else ResilienceConfig()
        )
        self._server: asyncio.AbstractServer | None = None
        self._stopped = asyncio.Event()
        self._draining = False
        self._failure: BaseException | None = None
        self._connections: set[LineConnection] = set()
        self._requests: set[asyncio.Task] = set()
        self._shutdown: asyncio.Task | None = None
        self._overlong = 0
        self._dedup = DedupTable(self.config.dedup_capacity)
        self._served = 0
        self._shed = 0
        self._expired = 0
        self._deduped = 0

    @property
    def address(self) -> str:
        """``host:port`` once started."""
        return f"{self.host}:{self.port}"

    @property
    def served(self) -> int:
        """Committed ``INC`` operations so far."""
        return self._served

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the TCP server."""
        self._server = await asyncio.get_running_loop().create_server(
            lambda: LineConnection(self), self.host, self.port
        )
        sockets = self._server.sockets or ()
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def wait_closed(self) -> None:
        """Block until a ``SHUTDOWN`` (or :meth:`stop`) completes."""
        await self._stopped.wait()

    async def stop(self, *, drain: bool = True) -> None:
        """Stop serving: refuse new work, optionally drain, then halt.

        With *drain* (the default), in-flight operations get up to
        ``drain_timeout`` seconds to commit before the machinery stops;
        without it, in-flight waiters fail immediately with
        :class:`~repro.errors.ServiceStoppedError` instead of hanging.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self._drain_work(drain)
        # abort lingering client connections and let their request
        # tasks finish *before* the event loop tears down (no stray
        # CancelledError noise from half-answered requests)
        for connection in list(self._connections):
            connection.abort()
        if self._requests:
            await asyncio.wait(list(self._requests), timeout=2.0)
        self._stopped.set()

    async def serve_forever(self, *, announce: bool = False) -> None:
        """:meth:`start` then run until shut down.

        With *announce* the bound address is printed as ``SERVING
        <spec> n=<n> [shards=<k>] <host>:<port>`` once the socket is
        ready — machine-readable, so scripts (the CI smoke test) can
        bind port 0 and discover the real port.
        """
        await self.start()
        if announce:
            print(f"SERVING {self._identity()} {self.address}", flush=True)
        await self.wait_closed()

    def _identity(self) -> str:
        """What the announce line says is being served."""
        raise NotImplementedError

    async def _drain_work(self, drain: bool) -> None:
        """Subclass hook: settle or fail in-flight work during stop."""

    # ------------------------------------------------------------------
    # The request lifecycle both services share
    # ------------------------------------------------------------------
    def _begin_inc(
        self, rid: str | None, deadline: float | None
    ) -> tuple[float | None, asyncio.Future[int] | None]:
        """Open one increment: refusal, deadline, request-id dedup.

        Returns the absolute expiry (``None`` = no deadline) and, when
        *rid* names an operation already accepted, that operation's
        future — the caller awaits it instead of incrementing again.
        A new *rid* is entered in the ledger.
        """
        if self._failure is not None:
            raise ServiceStoppedError(
                f"service stopped after a protocol failure: {self._failure!r}"
            )
        if self._draining:
            raise ServiceStoppedError("service is shutting down")
        loop = asyncio.get_running_loop()
        if deadline is None:
            deadline = self.config.default_deadline
        expires = None if deadline is None else loop.time() + deadline
        if rid is not None:
            existing = self._dedup.get(rid)
            if existing is not None:
                self._deduped += 1
                return expires, existing.future
            self._dedup.create(rid, loop.create_future())
        return expires, None

    def _accept(
        self,
        rid: str | None,
        deadline: float | None,
        reply: Reply,
        key: str | None = None,
    ) -> asyncio.TimerHandle | None:
        """Take one increment whose outcome goes to *reply*: refuse it
        while draining, follow a known *rid*'s ledger entry, or
        :meth:`_admit` it.  Returns the deadline timer to cancel once
        answered (``None``: no deadline, or answered at once)."""
        try:
            expires, original = self._begin_inc(rid, deadline)
        except ServiceStoppedError as exc:
            reply.set_exception(exc)
            return None
        if original is None:
            self._admit(rid, reply, key)
        elif original.done():
            _follow(reply, original)
        else:
            original.add_done_callback(partial(_follow, reply))
        if expires is None or reply.done():
            return None
        return asyncio.get_running_loop().call_at(
            expires, self._expire, rid, reply
        )

    def _admit(self, rid: str | None, reply: Reply, key: str | None) -> None:
        """Subclass hook: shed a new increment, or queue or inject it."""
        raise NotImplementedError

    def _shed_if_full(self, rid: str | None, reply: Reply) -> bool:
        """Refuse an arrival past the backlog cap; ``True`` if it was."""
        cap = self.config.max_backlog
        if cap is None or self.backlog < cap:
            return False
        self._shed += 1
        error = f"admission backlog full ({self.backlog} waiting, cap {cap})"
        self._release(rid, reply, OverloadedError(error))
        return True

    def _release(
        self, rid: str | None, reply: Reply, error: BaseException
    ) -> None:
        """Fail an operation that will not commit: forget its *rid*, so
        a retry starts fresh, then answer *reply* with *error*."""
        if rid is not None:
            self._dedup.fail(rid, error)
        if not reply.done():
            reply.set_exception(error)

    def _expire(self, rid: str | None, reply: Reply) -> None:
        """A deadline fell due: answer it; the operation still commits."""
        if not reply.done():
            reply.set_exception(self._deadline_expired())

    def _deadline_expired(self) -> DeadlineExceededError:
        """Count one expired request and word its error."""
        self._expired += 1
        return DeadlineExceededError(
            f"deadline expired with the operation {self._PENDING}; it "
            "will commit in the background — retry with the same request "
            "id for its value"
        )

    def _resilience_stats(self) -> dict[str, int]:
        """The ``shed expired deduped rid_committed`` run of ``STATS``."""
        return {
            "shed": self._shed,
            "expired": self._expired,
            "deduped": self._deduped,
            "rid_committed": self._dedup.committed_total,
        }

    # ------------------------------------------------------------------
    # The TCP side
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """The bare ``STATS`` payload as a dict."""
        raise NotImplementedError

    def _dispatch(
        self, command: str, args: list[str], connection: LineConnection
    ) -> bool:
        """Handle a service-specific command; ``False`` if unknown."""
        return False

    def _handle_line(
        self, connection: LineConnection, command: str, args: list[str]
    ) -> None:
        """Handle one request line; it is answered through *connection*."""
        if self._dispatch(command, args, connection):
            return
        if command == "PING":
            connection.answer(b"PONG\n")
        elif command == "STATS":
            stats = self.stats()
            rendered = " ".join(f"{key}={stats[key]}" for key in stats)
            connection.answer(f"STATS {rendered}\n".encode("ascii"))
        elif command == "SHUTDOWN":
            self._draining = True  # refuse new work immediately
            connection.answer(b"BYE\n")
            connection.close()
            if self._shutdown is None:
                self._shutdown = asyncio.get_running_loop().create_task(
                    self.stop()
                )
        else:
            connection.answer(
                f"ERR unknown command {command!r}\n".encode("ascii", "replace")
            )


class CounterService(LineProtocolService):
    """Serve one counter configuration over TCP.

    Args:
        spec: registry spec string (e.g. ``"ww-tree?interval_mode=wrap"``).
            Sequential-only specs are rejected: a network service
            overlaps operations by construction.
        n: number of client processors (= maximum in-flight operations).
        host: interface to bind.
        port: TCP port (0 = let the OS pick; read :attr:`port` after
            :meth:`start`).
        policy: delivery-policy name forwarded to the session.
        seed: seed forwarded to the session.
        time_scale: real seconds per unit of simulated time (0 = run the
            protocol flat out; >0 makes simulated delays real).
        trace_level: trace fidelity (loads-only is faster for pure
            benchmarking).
        resilience: server-side resilience policy
            (:class:`~repro.serve.resilience.ResilienceConfig`);
            defaults to bounded backlog, no default deadline.
    """

    _PENDING = "in flight"

    def __init__(
        self,
        spec: str,
        n: int,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        policy: str | None = None,
        seed: int = 0,
        time_scale: float = 0.0,
        trace_level: TraceLevel | str = TraceLevel.FULL,
        resilience: ResilienceConfig | None = None,
    ) -> None:
        ref = parse_spec(spec)
        if not ref.capabilities.supports_concurrent:
            reason = (
                ref.capabilities.restriction
                or "the protocol is sequential-only"
            )
            raise CapabilityError(
                f"cannot serve {ref.canonical!r}: {reason}"
            )
        self.session = RunSession(
            ref,
            n,
            policy=policy,
            seed=seed,
            trace_level=trace_level,
            runtime="asyncio",
            time_scale=time_scale,
        )
        super().__init__(host, port, resilience)
        self._pump_task: asyncio.Task | None = None
        self._work = asyncio.Event()
        self._free = deque(self.session.counter.client_ids())
        # admitted operations as (rid, reply), oldest first while they
        # wait for a processor; by processor as (op index, rid, reply)
        # once injected
        self._queued: deque[tuple[str | None, Reply]] = deque()
        self._waiters: dict[int, tuple[int, str | None, Reply]] = {}
        self._op_index = 0
        self.session.counter.on_result = self._on_result

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def spec(self) -> str:
        """Canonical spec string of the served counter."""
        return self.session.canonical

    @property
    def n(self) -> int:
        """Client processors (= maximum in-flight operations)."""
        return self.session.n

    @property
    def inflight(self) -> int:
        """Operations currently between injection and result delivery."""
        return len(self._waiters)

    @property
    def backlog(self) -> int:
        """Admitted operations waiting for a free processor."""
        return len(self._queued)

    def _identity(self) -> str:
        return f"{self.spec} n={self.n}"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the TCP server and start the protocol pump."""
        await super().start()
        self._pump_task = asyncio.create_task(self._pump())

    async def _drain_work(self, drain: bool) -> None:
        """Let admitted operations commit (optionally), then stop the pump."""
        if drain:
            loop = asyncio.get_running_loop()
            deadline = loop.time() + self.config.drain_timeout
            while (self._waiters or self._queued) and loop.time() < deadline:
                await asyncio.sleep(0.005)
        if self._pump_task is not None:
            self._work.set()  # unblock the pump so it can observe the stop
            self._pump_task.cancel()
            # a pump that already died has failed its waiters; stopping
            # must not re-raise its error
            await asyncio.gather(self._pump_task, return_exceptions=True)

    # ------------------------------------------------------------------
    # The counter side
    # ------------------------------------------------------------------
    def _admit(self, rid: str | None, reply: Reply, key: str | None) -> None:
        """Inject on a free processor, else shed past the cap or queue."""
        if self._free:
            self._inject(self._free.popleft(), rid, reply)
        elif not self._shed_if_full(rid, reply):
            self._queued.append((rid, reply))

    def _inject(self, pid: int, rid: str | None, reply: Reply) -> None:
        self._waiters[pid] = (self._op_index, rid, reply)
        self.session.counter.begin_inc(pid, self._op_index)
        self._op_index += 1
        self._work.set()

    def _on_result(self, pid: int, value: int) -> None:
        """The counter's observer: settle outside the protocol handler."""
        waiter = self._waiters.pop(pid, None)
        if waiter is not None:
            asyncio.get_running_loop().call_soon(self._settle, pid, value, *waiter)

    def _settle(
        self, pid: int, value: int, op: int, rid: str | None, reply: Reply
    ) -> None:
        """Commit a value and hand *pid* on before answering with it."""
        self._served += 1
        # nothing reads a settled op's per-op trace columns (STATS reads
        # the total), so they go: the service holds a fixed amount per op
        self.session.network.trace.release_op(op)
        if rid is not None:
            self._dedup.commit(rid, value)
        while self._queued:
            next_rid, next_reply = self._queued.popleft()
            if not next_reply.done():
                self._inject(pid, next_rid, next_reply)
                break
            # its in-process caller was cancelled while it queued
            self._release(next_rid, next_reply, asyncio.CancelledError())
        else:
            self._free.append(pid)
        if not reply.done():
            reply.set_result(value)

    def _withdraw(self, rid: str | None, reply: Reply) -> bool:
        """Take a still-queued operation out of line, if it is."""
        try:
            self._queued.remove((rid, reply))
        except ValueError:
            return False
        return True

    def _expire(self, rid: str | None, reply: Reply) -> None:
        """A queued operation's deadline releases its rid at once."""
        if not self._withdraw(rid, reply):
            return super()._expire(rid, reply)  # injected: it commits
        self._expired += 1
        error = "deadline expired waiting for a free processor"
        self._release(rid, reply, DeadlineExceededError(error))

    def _poison(self, error: BaseException) -> None:
        """Fail every injected and queued operation so no client hangs."""
        ops = [waiter[1:] for waiter in self._waiters.values()]
        ops += self._queued
        self._free.extend(self._waiters)
        self._waiters.clear()
        self._queued.clear()
        for rid, reply in ops:
            self._release(rid, reply, error)

    async def _pump(self) -> None:
        """Drain the runtime whenever an operation is injected.

        Neither a protocol failure (e.g. an exhausted event budget) nor
        a cancellation mid-drain may strand clients: both paths fail
        every injected and queued operation before the pump dies, so
        their requests answer ``ERR`` instead of hanging.  After a
        failure, :meth:`_begin_inc` refuses every new increment.
        """
        runtime = self.session.runtime
        try:
            while True:
                await self._work.wait()
                self._work.clear()
                await runtime.drain()
        except asyncio.CancelledError:
            stopped = "service stopped with the operation in flight"
            self._poison(ServiceStoppedError(stopped))
            raise
        except Exception as exc:
            self._failure = exc
            self._poison(exc)
            raise

    async def inc(
        self,
        *,
        rid: str | None = None,
        deadline: float | None = None,
    ) -> int:
        """Run one increment, subject to the resilience policy.

        Args:
            rid: client-supplied request id.  A repeated ``rid``
                attaches to the original operation (in flight) or
                returns its committed value — never a second increment.
                Cancelling a call still waiting for a processor
                releases it, so a retry runs as a fresh operation.
            deadline: seconds this call may take (admission wait
                included); ``None`` falls back to the config's
                ``default_deadline``.  Expiry raises
                :class:`~repro.errors.DeadlineExceededError`; an
                already-injected operation still commits in the
                background.

        Raises:
            OverloadedError: the admission backlog is full.
            ServiceStoppedError: the service is draining or stopped.
            DeadlineExceededError: the deadline expired first.
        """
        reply: asyncio.Future[int] = asyncio.get_running_loop().create_future()
        timer = self._accept(rid, deadline, reply)
        try:
            return await reply
        except asyncio.CancelledError as exc:
            if self._withdraw(rid, reply):  # never injected: free the rid
                self._release(rid, reply, exc)
            raise
        finally:
            if timer is not None:
                timer.cancel()

    def stats(self) -> dict[str, Any]:
        """The ``STATS`` payload as a dict (also used by the CLI).

        Field order is part of the wire contract (tests pin it):
        ``spec n served inflight backlog shed expired deduped
        rid_committed messages``.  At trace level ``OFF`` nothing counts
        messages and the field reads ``na``.
        """
        trace = self.session.network.trace
        return {
            "spec": self.spec,
            "n": self.n,
            "served": self._served,
            "inflight": self.inflight,
            "backlog": self.backlog,
            **self._resilience_stats(),
            "messages": trace.total_messages if trace.keeps_loads else "na",
        }

    # ------------------------------------------------------------------
    # The TCP side
    # ------------------------------------------------------------------
    def _dispatch(
        self, command: str, args: list[str], connection: LineConnection
    ) -> bool:
        if command != "INC":
            return False
        rid = args[0] if args else None
        deadline: float | None = None
        if len(args) > 1:
            deadline = wire_deadline(args[1])
            if deadline is None or len(args) > 2:
                connection.answer(
                    b"ERR BAD_REQUEST usage: INC [rid] [deadline_ms>0]\n"
                )
                return True
        reply = _WireReply(connection)
        reply.timer = self._accept(rid, deadline, reply)
        return True


async def serve_counter(
    spec: str,
    n: int,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    policy: str | None = None,
    seed: int = 0,
    time_scale: float = 0.0,
    resilience: ResilienceConfig | None = None,
    announce: bool = False,
) -> None:
    """Convenience runner: build a :class:`CounterService` and serve.

    *announce* is :meth:`LineProtocolService.serve_forever`'s.
    """
    await CounterService(
        spec,
        n,
        host,
        port,
        policy=policy,
        seed=seed,
        time_scale=time_scale,
        resilience=resilience,
    ).serve_forever(announce=announce)
