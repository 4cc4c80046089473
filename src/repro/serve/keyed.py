"""The keyed TCP front-end: a sharded counter keyspace as a service.

A :class:`KeyedCounterService` owns a
:class:`~repro.shard.CounterShardMap` on the asyncio runtime and speaks
a keyed superset of the single-counter protocol:

==================== ================================= ==================
Request              Response                          Meaning
==================== ================================= ==================
``INC K``            ``OK <value>``                    increment key ``K``
``INC K R``          ``OK <value>``                    idempotent: retries
                                                       of request id ``R``
                                                       return the
                                                       committed value
``INC K R D``        ``OK <value>`` or                 as above, deadline
                     ``ERR DEADLINE_EXCEEDED ...``     of ``D`` ms
``STATS``            ``STATS spec=<s> shards=<k> ...`` service counters
``STATS K``          ``STATS key=<K> value=<v>         one key's value and
                     shard=<id>``                      placement (a never-
                                                       incremented key is
                                                       a zero counter)
``SPLIT S``          ``OK <S> <new>``                  split shard ``S``
``MERGE A B``        ``OK <A>``                        merge ``B`` into
                                                       adjacent ``A``
``PING``/``SHUTDOWN``                                  as the base service
==================== ================================= ==================

Concurrency model: requests never touch a protocol pool directly.  Each
live shard runs one *batcher* task that takes a window of queued
increments (up to ``batch_max``), injects them as a **single** combined
traversal via :meth:`~repro.shard.CounterShardMap.begin_batch`, awaits
the shard runtime's drain, settles, and answers the whole window — the
paper's Θ(k) traversal cost is paid once per window.  Shards drain
concurrently (independent pools), which is where goodput scales with
the shard count (experiment E27).

A wire ``INC`` is admitted inside the connection's ``data_received``
(the shared ``_accept``, then shed check and routing) and queued with a
reply sink in place of a future: the batcher's answer is written
straight onto the connection, which then starts its next line — no
task per request and no await between the batcher and the socket.
In-process callers use :meth:`KeyedCounterService.inc`, which awaits a
future as before.

Resilience semantics mirror :class:`~repro.serve.CounterService`:
bounded total backlog with ``ERR OVERLOADED`` shedding, per-request
deadlines whose expiry answers early while the queued operation still
commits in the background, and a *service-global* request-id dedup
ledger — global, not per-shard, so a retry dedups correctly even when
its key's shard was split or merged between attempts.

Every run can record a fixture bundle (pass *fixture_dir*): requests,
topology events and the final keyspace snapshot are written at stop,
re-verifiable offline with ``repro replay``.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConfigurationError, ServiceStoppedError
from repro.serve.resilience import ResilienceConfig
from repro.serve.server import (
    LineConnection,
    LineProtocolService,
    Reply,
    _WireReply,
    wire_deadline,
)
from repro.shard import (
    CounterShardMap,
    FixtureRecorder,
    RebalancePolicy,
    hash_key,
    validate_key,
    write_bundle,
)
from repro.sim.trace import TraceLevel

__all__ = ["KeyedCounterService", "serve_keyed_counter"]


@dataclass(slots=True)
class _PendingOp:
    """One queued keyed increment awaiting its batch.

    *point* is the key's placement hash, computed once on admission;
    *reply* is an in-process caller's future or a :class:`_WireReply`.
    """

    key: str
    rid: str | None
    point: int
    reply: Reply = field(repr=False)


class KeyedCounterService(LineProtocolService):
    """Serve a sharded counter keyspace over TCP.

    Args:
        spec: registry spec string every shard pool runs (any registered
            spec — batches serialize per shard).
        n: processors per shard pool.
        host / port: bind address (0 = OS-assigned; read :attr:`port`
            after :meth:`start`).
        shards: initial shard count.
        batch_max: largest window one combined traversal may carry.
        policy / seed / time_scale / trace_level: forwarded to every
            shard session (see :class:`~repro.shard.CounterShardMap`).
        resilience: server-side resilience policy (backlog bound,
            default deadline, dedup capacity, line limit).
        rebalance: optional :class:`~repro.shard.RebalancePolicy` —
            the service splits hot shards and merges cold neighbors
            automatically between batches.
        fixture_dir: when set, the run is recorded and written there as
            a replayable bundle at stop.
    """

    _PENDING = "queued"

    def __init__(
        self,
        spec: str,
        n: int,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        shards: int = 4,
        batch_max: int = 32,
        policy: str | None = None,
        seed: int = 0,
        time_scale: float = 0.0,
        trace_level: TraceLevel | str = TraceLevel.FULL,
        resilience: ResilienceConfig | None = None,
        rebalance: RebalancePolicy | None = None,
        fixture_dir: str | None = None,
    ) -> None:
        super().__init__(host, port, resilience)
        self.fixture_dir = fixture_dir
        recorder = FixtureRecorder() if fixture_dir is not None else None
        self.map = CounterShardMap(
            spec,
            n,
            shards=shards,
            seed=seed,
            runtime="asyncio",
            time_scale=time_scale,
            policy=policy,
            trace_level=trace_level,
            batch_max=batch_max,
            rebalance=rebalance,
            recorder=recorder,
        )
        self._queues: dict[int, deque[_PendingOp]] = {}
        self._wakeups: dict[int, asyncio.Event] = {}
        self._batchers: dict[int, asyncio.Task] = {}
        self._topology: asyncio.Lock | None = None
        self._inflight = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def spec(self) -> str:
        """Canonical spec string every shard pool runs."""
        return self.map.spec

    @property
    def n(self) -> int:
        """Processors per shard pool."""
        return self.map.n

    @property
    def backlog(self) -> int:
        """Increments queued across all shards, not yet in a batch."""
        return sum(len(queue) for queue in self._queues.values())

    def _identity(self) -> str:
        return f"{self.spec} n={self.n} shards={self.map.shard_count}"

    def stats(self) -> dict[str, Any]:
        """The bare ``STATS`` payload as a dict (also used by the CLI).

        Field order is part of the wire contract (tests pin it):
        ``spec n shards served inflight backlog shed expired deduped
        rid_committed keys batches splits merges messages``.  At trace
        level ``OFF`` nothing counts messages and the field reads ``na``.
        """
        map_stats = self.map.stats()
        messages = [entry["messages"] for entry in map_stats["per_shard"]]
        return {
            "spec": self.spec,
            "n": self.n,
            "shards": map_stats["shards"],
            "served": self._served,
            "inflight": self._inflight,
            "backlog": self.backlog,
            **self._resilience_stats(),
            "keys": map_stats["keys"],
            "batches": map_stats["batches"],
            "splits": map_stats["splits"],
            "merges": map_stats["merges"],
            "messages": "na" if None in messages else sum(messages),
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the TCP server and start one batcher per shard."""
        self._topology = asyncio.Lock()
        for shard_id in self.map.router.shard_ids():
            self._ensure_shard_tasks(shard_id)
        await super().start()

    async def _drain_work(self, drain: bool) -> None:
        """Let queued work settle, stop the batchers, write the bundle."""
        loop = asyncio.get_running_loop()
        if drain:
            deadline = loop.time() + self.config.drain_timeout
            # a dead batcher's shard stays busy: nothing left to wait for
            while loop.time() < deadline and self._failure is None and (
                self.backlog > 0
                or self._inflight > 0
                or any(s.busy for s in self.map.shards())
            ):
                await asyncio.sleep(0.005)
        for task in self._batchers.values():
            task.cancel()
        if self._batchers:
            await asyncio.gather(
                *self._batchers.values(), return_exceptions=True
            )
        self._batchers.clear()
        stopped = ServiceStoppedError(
            "service stopped with the operation queued"
        )
        for queue in self._queues.values():
            while queue:
                op = queue.popleft()
                self._release(op.rid, op.reply, stopped)
        if self.fixture_dir is not None and self.map.recorder is not None:
            write_bundle(self.fixture_dir, self.map)

    # ------------------------------------------------------------------
    # The keyspace side
    # ------------------------------------------------------------------
    def _ensure_shard_tasks(self, shard_id: int) -> None:
        if shard_id not in self._queues:
            self._queues[shard_id] = deque()
            self._wakeups[shard_id] = asyncio.Event()
        if shard_id not in self._batchers:
            self._batchers[shard_id] = asyncio.create_task(
                self._batch_loop(shard_id)
            )

    def _reconcile_topology(self) -> None:
        """Align queues/batchers with the map's live shards.

        Called under the topology lock after any split or merge.  New
        shards get a queue and a batcher; a removed shard's queued ops
        are re-routed to their new owners and its batcher cancelled
        (self-cancellation is safe: the cancel lands at the batcher's
        next ``await``, after it finished settling).
        """
        live = set(self.map.router.shard_ids())
        for shard_id in live:
            self._ensure_shard_tasks(shard_id)
        for shard_id in [s for s in self._queues if s not in live]:
            orphans = self._queues.pop(shard_id)
            self._wakeups.pop(shard_id)
            task = self._batchers.pop(shard_id, None)
            if task is not None:
                task.cancel()
            for op in orphans:
                self._route(op)

    def _route(self, op: _PendingOp) -> None:
        """Queue *op* on its key's owning shard and wake the batcher."""
        shard_id = self.map.router.locate_point(op.point)
        self._queues[shard_id].append(op)
        self._wakeups[shard_id].set()

    def _admit(self, rid: str | None, reply: Reply, key: str | None) -> None:
        """Shed past the cap, else hash *key* once and route it."""
        if not self._shed_if_full(rid, reply):
            self._route(_PendingOp(key, rid, hash_key(key), reply))

    async def _batch_loop(self, shard_id: int) -> None:
        """One shard's combiner: window -> one traversal -> answers."""
        assert self._topology is not None
        window: list[_PendingOp] = []
        try:
            while True:
                window = []
                queue = self._queues.get(shard_id)
                if queue is None:
                    return  # merged away
                if not queue:
                    wakeup = self._wakeups[shard_id]
                    wakeup.clear()
                    await wakeup.wait()
                    continue
                async with self._topology:
                    queue = self._queues.get(shard_id)
                    if queue is None:
                        return
                    while queue and len(window) < self.map.batch_max:
                        op = queue.popleft()
                        if self.map.router.locate_point(op.point) != shard_id:
                            self._route(op)  # key moved by a split
                            continue
                        window.append(op)
                    if not window:
                        continue
                    batch = self.map.begin_batch(
                        shard_id, [(op.key, op.rid) for op in window]
                    )
                    self._inflight += len(window)
                # the traversal itself runs outside the lock: other
                # shards' batchers drain concurrently, which is the
                # whole point of sharding
                try:
                    await self.map.shard(shard_id).session.runtime.drain()
                finally:
                    self._inflight -= len(window)
                async with self._topology:
                    self.map.settle_batch(batch)
                    for op, batch_op in zip(window, batch.ops):
                        self._served += 1
                        if op.rid is not None:
                            self._dedup.commit(op.rid, batch_op.value)
                        if not op.reply.done():
                            op.reply.set_result(batch_op.value)
                    if self.map.maybe_rebalance():
                        self._reconcile_topology()
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            # a protocol failure on this shard must not strand clients:
            # refuse new work, fail the in-flight window and everything
            # queued behind it
            self._failure = exc
            for op in window:
                self._release(op.rid, op.reply, exc)
            queue = self._queues.get(shard_id, deque())
            while queue:
                op = queue.popleft()
                self._release(op.rid, op.reply, exc)
            raise

    async def inc(
        self,
        key: str,
        *,
        rid: str | None = None,
        deadline: float | None = None,
    ) -> int:
        """Increment *key* once, subject to the resilience policy.

        Same contract as :meth:`CounterService.inc`, per key: repeated
        *rid* attaches to the original operation; *deadline* expiry
        raises while a queued operation still commits in the
        background (retry with the same rid for its value); a full
        backlog sheds with :class:`~repro.errors.OverloadedError`.
        """
        # Deliberately not on _accept: this await keeps its shield and
        # wait_for.  Moving it measured +31 % throughput on the
        # in-process benchmark but +11 % peak RSS, because that
        # benchmark's client keeps memory per answered request.
        validate_key(key)
        expires, original = self._begin_inc(rid, deadline)
        if original is None:
            original = asyncio.get_running_loop().create_future()
            self._admit(rid, original, key)
        return await self._await_value(original, expires)

    async def _await_value(
        self, future: asyncio.Future[int], expires: float | None
    ) -> int:
        """Await an operation's value (or rid future) under the deadline."""
        if expires is None:
            return await asyncio.shield(future)
        loop = asyncio.get_running_loop()
        try:
            return await asyncio.wait_for(
                asyncio.shield(future), max(0.0, expires - loop.time())
            )
        except asyncio.TimeoutError:
            raise self._deadline_expired() from None

    # ------------------------------------------------------------------
    # Admin operations (also exposed on the wire)
    # ------------------------------------------------------------------
    async def split(self, shard_id: int) -> int:
        """Split *shard_id* under live traffic; return the new id."""
        return await self._admin(lambda: self.map.split(shard_id))

    async def merge(self, survivor: int, absorbed: int) -> None:
        """Merge adjacent *absorbed* into *survivor* under live traffic."""
        await self._admin(lambda: self.map.merge(survivor, absorbed))

    async def _admin(self, action: Any) -> Any:
        """Run a topology action as soon as no batch blocks it.

        Busy shards settle within one traversal, so this converges
        quickly; the retry sleep only yields while one is in flight.
        """
        assert self._topology is not None
        while True:
            async with self._topology:
                try:
                    result = action()
                except ConfigurationError as exc:
                    if "batch in flight" not in str(exc):
                        raise
                else:
                    self._reconcile_topology()
                    return result
            await asyncio.sleep(0.002)

    # ------------------------------------------------------------------
    # The TCP side
    # ------------------------------------------------------------------
    def _dispatch(
        self, command: str, args: list[str], connection: LineConnection
    ) -> bool:
        if command == "INC":
            self._wire_inc(connection, args)
        elif command == "STATS" and args:
            connection.answer(self._keyed_stats(args))
        elif command == "SPLIT":
            if len(args) != 1 or not args[0].lstrip("-").isdigit():
                connection.answer(b"ERR BAD_REQUEST usage: SPLIT <shard_id>\n")
            else:
                connection.answer_later(self._wire_split(args[0]))
        elif command == "MERGE":
            if len(args) != 2 or not all(
                a.lstrip("-").isdigit() for a in args
            ):
                connection.answer(
                    b"ERR BAD_REQUEST usage: MERGE <survivor> <absorbed>\n"
                )
            else:
                connection.answer_later(self._wire_merge(*args))
        else:
            return False
        return True

    def _wire_inc(self, connection: LineConnection, args: list[str]) -> None:
        """Check a wire ``INC``'s arguments and hand it to :meth:`_accept`."""
        usage = b"ERR BAD_REQUEST usage: INC <key> [rid] [deadline_ms>0]\n"
        if not args or len(args) > 3:
            connection.answer(usage)
            return
        key = args[0]
        try:
            validate_key(key)
        except ConfigurationError as exc:
            connection.answer(
                f"ERR BAD_KEY {exc}\n".encode("ascii", "replace")
            )
            return
        rid = args[1] if len(args) > 1 else None
        deadline: float | None = None
        if len(args) > 2:
            deadline = wire_deadline(args[2])
            if deadline is None:
                connection.answer(usage)
                return
        reply = _WireReply(connection)
        reply.timer = self._accept(rid, deadline, reply, key)

    def _keyed_stats(self, args: list[str]) -> bytes:
        if len(args) != 1:
            return b"ERR BAD_REQUEST usage: STATS [key]\n"
        key = args[0]
        try:
            shard_id = self.map.locate(key)
        except ConfigurationError as exc:
            return f"ERR BAD_KEY {exc}\n".encode("ascii", "replace")
        value = self.map.shard(shard_id).key_counts.get(key, 0)
        return f"STATS key={key} value={value} shard={shard_id}\n".encode(
            "ascii"
        )

    async def _wire_split(self, shard_id: str) -> bytes:
        try:
            new_id = await self.split(int(shard_id))
        except ConfigurationError as exc:
            return f"ERR BAD_REQUEST {exc}\n".encode("ascii", "replace")
        return f"OK {shard_id} {new_id}\n".encode("ascii")

    async def _wire_merge(self, survivor: str, absorbed: str) -> bytes:
        try:
            await self.merge(int(survivor), int(absorbed))
        except ConfigurationError as exc:
            return f"ERR BAD_REQUEST {exc}\n".encode("ascii", "replace")
        return f"OK {survivor}\n".encode("ascii")


async def serve_keyed_counter(
    spec: str,
    n: int,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    shards: int = 4,
    batch_max: int = 32,
    policy: str | None = None,
    seed: int = 0,
    time_scale: float = 0.0,
    resilience: ResilienceConfig | None = None,
    rebalance: RebalancePolicy | None = None,
    fixture_dir: str | None = None,
    announce: bool = False,
) -> None:
    """Convenience runner: build a :class:`KeyedCounterService`, serve.

    *announce* is :meth:`LineProtocolService.serve_forever`'s.
    """
    await KeyedCounterService(
        spec,
        n,
        host,
        port,
        shards=shards,
        batch_max=batch_max,
        policy=policy,
        seed=seed,
        time_scale=time_scale,
        resilience=resilience,
        rebalance=rebalance,
        fixture_dir=fixture_dir,
    ).serve_forever(announce=announce)
