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

Concurrency model: the counter has ``n`` client processors; a pool
(:class:`asyncio.Queue`) hands each in-flight request a free processor
id and takes it back on completion, so at most ``n`` operations overlap
and each processor runs at most one at a time — exactly the discipline
the protocols assume.

Resilience (see :mod:`repro.serve.resilience`): requests beyond ``n``
wait for a processor only up to a bounded backlog — past it the service
*sheds* with ``ERR OVERLOADED`` instead of queueing without bound.  A
request whose deadline expires answers ``ERR DEADLINE_EXCEEDED``
immediately, but an operation already injected into the protocol runs
to completion in the background: its processor id returns to the pool
then, and its request id is recorded as committed, so a client retry
with the same id receives the committed value instead of
double-counting.  ``SHUTDOWN`` drains: new operations are refused with
``ERR SHUTTING_DOWN`` while in-flight ones finish.

Execution: protocol events run in a single pump task that drains the
:class:`~repro.runtime.AsyncioRuntime` whenever new work is injected —
client handlers never touch the network concurrently, so no locking is
needed anywhere.  If the pump dies *or is cancelled*, every in-flight
waiter is failed with the cause, so no client ever hangs on a stranded
future.
"""

from __future__ import annotations

import asyncio
from typing import Any

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


class LineProtocolService:
    """Shared machinery of the newline-delimited TCP services.

    Owns the socket lifecycle (bind, graceful drain, abort-and-join on
    stop), the bounded per-line reader, and the protocol loop with the
    commands every service speaks — ``PING``, bare ``STATS`` and
    ``SHUTDOWN``.  Subclasses add their own grammar by overriding
    :meth:`_dispatch` (return ``True`` when the command was handled)
    and hook the drain phase of :meth:`stop` via :meth:`_drain_work`.
    :class:`CounterService` serves one counter;
    :class:`repro.serve.keyed.KeyedCounterService` serves a sharded
    keyspace of them.

    It also owns the part of an increment's life that does not depend
    on how the increment is executed: the draining refusal, the
    deadline, the request-id ledger (:class:`DedupTable`), the
    backlog-cap shed and the deadline-bounded wait for the value, with
    the counters ``STATS`` reports for them.  *How* an admitted
    increment runs — up to n leased processors overlapping in one
    protocol, or one batch at a time per shard — is the subclass, as
    is its ``backlog``.
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
        self._handlers: set[asyncio.Task] = set()
        self._client_writers: set[asyncio.StreamWriter] = set()
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
        self._server = await asyncio.start_server(
            self._handle_client,
            self.host,
            self.port,
            limit=self.config.line_limit,
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
        # abort lingering client connections so their handler tasks
        # finish *before* the event loop tears down (no stray
        # CancelledError noise from half-closed streams)
        for writer in list(self._client_writers):
            transport = writer.transport
            if transport is not None:
                transport.abort()
        if self._handlers:
            await asyncio.wait(list(self._handlers), timeout=2.0)
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

    def _shed_if_full(self, rid: str | None) -> None:
        """Refuse an arrival past the backlog cap, releasing its *rid*."""
        cap = self.config.max_backlog
        if cap is None or self.backlog < cap:
            return
        self._shed += 1
        error = OverloadedError(
            f"admission backlog full ({self.backlog} waiting, cap {cap})"
        )
        if rid is not None:
            self._dedup.fail(rid, error)
        raise error

    async def _await_value(self, awaitable: Any, expires: float | None) -> int:
        """Await an operation's value (or rid future) under the deadline."""
        if expires is None:
            return await asyncio.shield(awaitable)
        loop = asyncio.get_running_loop()
        try:
            return await asyncio.wait_for(
                asyncio.shield(awaitable), max(0.0, expires - loop.time())
            )
        except asyncio.TimeoutError:
            self._expired += 1
            raise DeadlineExceededError(
                f"deadline expired with the operation {self._PENDING}; it "
                "will commit in the background — retry with the same request "
                "id for its value"
            ) from None

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

    async def _dispatch(
        self, command: str, args: list[str], writer: asyncio.StreamWriter
    ) -> bool:
        """Handle a service-specific command; ``False`` if unknown."""
        return False

    async def _handle_client(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        self._client_writers.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # StreamReader's translation of LimitOverrunError:
                    # the line never ended within the configured bound
                    self._overlong += 1
                    writer.write(
                        f"ERR LINE_TOO_LONG protocol lines are capped at "
                        f"{self.config.line_limit} bytes\n".encode("ascii")
                    )
                    await writer.drain()
                    break
                if not line:
                    break
                parts = line.decode("ascii", "replace").split()
                if not parts:
                    continue
                command = parts[0].upper()
                if await self._dispatch(command, parts[1:], writer):
                    pass
                elif command == "PING":
                    writer.write(b"PONG\n")
                elif command == "STATS":
                    stats = self.stats()
                    rendered = " ".join(
                        f"{key}={stats[key]}" for key in stats
                    )
                    writer.write(f"STATS {rendered}\n".encode("ascii"))
                elif command == "SHUTDOWN":
                    self._draining = True  # refuse new work immediately
                    writer.write(b"BYE\n")
                    await writer.drain()
                    asyncio.create_task(self.stop())
                    break
                else:
                    writer.write(
                        f"ERR unknown command {command!r}\n"
                        .encode("ascii", "replace")
                    )
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._client_writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            if task is not None:
                self._handlers.discard(task)


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
        self._pid_pool: asyncio.Queue[int] = asyncio.Queue()
        for pid in self.session.counter.client_ids():
            self._pid_pool.put_nowait(pid)
        self._waiters: dict[int, asyncio.Future[int]] = {}
        self._commits: set[asyncio.Task[int]] = set()
        self._op_index = 0
        self._backlog = 0
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
        return self._backlog

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
        """Drain in-flight commits (optionally), then stop the pump."""
        if drain and self._commits:
            self._work.set()
            await asyncio.wait(
                list(self._commits), timeout=self.config.drain_timeout
            )
        if self._pump_task is not None:
            self._work.set()  # unblock the pump so it can observe the stop
            self._pump_task.cancel()
            try:
                await self._pump_task
            except asyncio.CancelledError:
                pass

    # ------------------------------------------------------------------
    # The counter side
    # ------------------------------------------------------------------
    def _on_result(self, pid: int, value: int) -> None:
        """The counter's observer: resolve the waiter leasing *pid*."""
        future = self._waiters.pop(pid, None)
        if future is not None and not future.done():
            future.set_result(value)

    def _poison_waiters(self, error: BaseException) -> None:
        """Fail every in-flight waiter so no client hangs forever."""
        for future in self._waiters.values():
            if not future.done():
                future.set_exception(error)
        self._waiters.clear()

    async def _pump(self) -> None:
        """Drain the runtime whenever a handler injects new work.

        Neither a protocol failure (e.g. an exhausted event budget) nor
        a cancellation mid-drain may strand in-flight clients on
        never-resolving futures: both paths fail every waiter before
        the pump dies, so their handlers answer ``ERR`` instead of
        hanging.
        """
        runtime = self.session.runtime
        try:
            while True:
                await self._work.wait()
                self._work.clear()
                await runtime.drain()
        except asyncio.CancelledError:
            self._poison_waiters(
                ServiceStoppedError(
                    "service stopped with the operation in flight"
                )
            )
            raise
        except Exception as exc:
            self._poison_waiters(exc)
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
        expires, original = self._begin_inc(rid, deadline)
        if original is not None:
            return await self._await_value(original, expires)
        if self._pid_pool.empty():
            self._shed_if_full(rid)
        try:
            pid = await self._admit(expires)
        except BaseException as exc:
            # nothing was injected: forget the rid so a retry may try
            # again (and wake any co-waiter with the same failure)
            if rid is not None:
                self._dedup.fail(rid, exc)
            raise
        loop = asyncio.get_running_loop()
        future: asyncio.Future[int] = loop.create_future()
        self._waiters[pid] = future
        op_index = self._op_index
        self._op_index += 1
        self.session.counter.begin_inc(pid, op_index)
        commit = loop.create_task(self._commit(pid, future, rid))
        self._commits.add(commit)
        commit.add_done_callback(self._reap_commit)
        self._work.set()
        return await self._await_value(commit, expires)

    async def _admit(self, expires: float | None) -> int:
        """Lease a processor id, expiring as configured."""
        loop = asyncio.get_running_loop()
        self._backlog += 1
        try:
            if expires is None:
                return await self._pid_pool.get()
            try:
                return await asyncio.wait_for(
                    self._pid_pool.get(), max(0.0, expires - loop.time())
                )
            except asyncio.TimeoutError:
                self._expired += 1
                raise DeadlineExceededError(
                    "deadline expired waiting for a free processor"
                ) from None
        finally:
            self._backlog -= 1

    async def _commit(
        self, pid: int, future: asyncio.Future[int], rid: str | None
    ) -> int:
        """Finish one injected operation: value, lease return, dedup."""
        try:
            value = await future
        except BaseException as exc:
            # the pump died with the op in flight: return the lease and
            # release any rid retries with the same failure
            self._pid_pool.put_nowait(pid)
            if rid is not None:
                self._dedup.fail(rid, exc)
            raise
        self._pid_pool.put_nowait(pid)
        self._served += 1
        if rid is not None:
            self._dedup.commit(rid, value)
        return value

    def _reap_commit(self, task: asyncio.Task[int]) -> None:
        self._commits.discard(task)
        if not task.cancelled():
            task.exception()  # deadline-abandoned commits must not warn

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
            "backlog": self._backlog,
            **self._resilience_stats(),
            "messages": trace.total_messages if trace.keeps_loads else "na",
        }

    # ------------------------------------------------------------------
    # The TCP side
    # ------------------------------------------------------------------
    async def _handle_inc(
        self, writer: asyncio.StreamWriter, args: list[str]
    ) -> None:
        rid = args[0] if args else None
        deadline: float | None = None
        if len(args) > 1:
            try:
                deadline = float(args[1]) / 1000.0
            except ValueError:
                deadline = -1.0
            if deadline <= 0 or len(args) > 2:
                writer.write(
                    b"ERR BAD_REQUEST usage: INC [rid] [deadline_ms>0]\n"
                )
                return
        try:
            value = await self.inc(rid=rid, deadline=deadline)
        except ServiceError as exc:
            writer.write(
                f"ERR {exc.code} {exc}\n".encode("ascii", "replace")
            )
        except Exception as exc:
            writer.write(
                f"ERR {type(exc).__name__}: {exc}\n"
                .encode("ascii", "replace")
            )
        else:
            writer.write(f"OK {value}\n".encode("ascii"))

    async def _dispatch(
        self, command: str, args: list[str], writer: asyncio.StreamWriter
    ) -> bool:
        if command == "INC":
            await self._handle_inc(writer, args)
            return True
        return False


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
