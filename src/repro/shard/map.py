"""``CounterShardMap``: a keyspace of counters over sharded protocol pools.

One counter is the paper; a product is *millions* of counters — one per
user, per URL, per rate-limit bucket.  The map layers a keyed API over
the registry:

* **placement** — every key lives on exactly one shard, decided by the
  consistent-hash :class:`~repro.shard.placement.ShardRouter`;
* **one protocol pool per shard** — each shard owns an independent
  :class:`~repro.registry.RunSession` running any registered spec, so
  shards never share a bottleneck processor and drain concurrently;
* **batch combining** — a window of keyed increments against one shard
  is coalesced into a *single* traversal of the underlying protocol
  (one ``begin_inc``), and the per-request values are decomposed from
  the shard's per-key ledger.  The paper's Θ(k) cost is paid once per
  *batch*, not once per increment — combining in software what the
  combining tree does in the network;
* **elastic resharding** — :meth:`split` / :meth:`merge` move only the
  affected keys (see :mod:`repro.shard.placement`), and an optional
  :class:`RebalancePolicy` drives them automatically from the same
  hot-spot load-share statistics the paper's ``m_b`` analysis uses;
* **crash drills** — :meth:`failover` suspects and restores a shard's
  hot seat through the PR 4 failure-detector hooks, for crash-tolerant
  specs (``central[standby]``, ``combining-tree[bypass]``).

The batching contract (pinned by ``tests/test_shard_map.py`` and the
stateful machine in ``tests/test_property_shard.py``): batches on one
shard are strictly sequential — at most one in flight — so *any*
registered spec can back a shard, even sequential-only protocols like
``arrow``; concurrency lives *across* shards.  Each batch's underlying
counter value must be strictly larger than the previous one (exactly
consecutive on failure-free runs; crash drills on the bypass tree may
burn values, which is why the invariant is monotonicity, not equality),
and a key's value is its per-key ledger count at inject time, so the
keyspace snapshot always equals the multiset of issued increments.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.analysis.load import LoadProfile
from repro.errors import CapabilityError, ConfigurationError
from repro.registry import RunSession, parse_spec
from repro.shard.placement import ShardRouter, hash_key
from repro.sim.trace import TraceLevel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.shard.fixture import FixtureRecorder

__all__ = [
    "CounterShardMap",
    "KEY_PATTERN",
    "RebalancePolicy",
    "Shard",
    "ShardBatch",
    "validate_key",
]

KEY_PATTERN = re.compile(r"[A-Za-z0-9_.:\-]{1,128}\Z")
"""Allowed counter keys: 1–128 chars of ``[A-Za-z0-9_.:-]``.

The charset is exactly what survives the space-delimited wire grammar
(``INC <key> [rid] [deadline_ms]``) unambiguously; the length bound
keeps keys well under any sane ``line_limit``.
"""


def validate_key(key: str) -> str:
    """Return *key* if it is a legal counter key, else raise.

    Raises:
        ConfigurationError: empty key, illegal characters (spaces,
            control bytes, non-ASCII), or length > 128.
    """
    if not isinstance(key, str) or not KEY_PATTERN.fullmatch(key):
        raise ConfigurationError(
            f"illegal counter key {key!r}: keys are 1-128 characters "
            "of [A-Za-z0-9_.:-]"
        )
    return key


@dataclass(frozen=True, slots=True)
class RebalancePolicy:
    """When the map splits hot shards and merges cold neighbors.

    Decisions fire every *window* settled operations, from per-shard
    shares of that window's traffic (the same load-concentration lens
    as the paper's bottleneck ``m_b``, applied across shards):

    * the hottest shard splits when its share reaches *split_share*
      (and the shard count is below *max_shards*);
    * otherwise the coldest adjacent pair merges when its combined
      share is at most *merge_share* (and the count exceeds
      *min_shards*).

    At most one topology action per window, so the keyspace never
    thrashes faster than it measures.
    """

    window: int = 512
    split_share: float = 0.6
    merge_share: float = 0.1
    max_shards: int = 16
    min_shards: int = 1

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ConfigurationError(
                f"rebalance window must be >= 1, got {self.window}"
            )
        if not 0.0 < self.split_share <= 1.0:
            raise ConfigurationError(
                f"split_share must be in (0, 1], got {self.split_share}"
            )
        if not 0.0 <= self.merge_share < 1.0:
            raise ConfigurationError(
                f"merge_share must be in [0, 1), got {self.merge_share}"
            )
        if self.min_shards < 1 or self.max_shards < self.min_shards:
            raise ConfigurationError(
                f"need 1 <= min_shards <= max_shards, got "
                f"{self.min_shards}..{self.max_shards}"
            )


class Shard:
    """One shard: an independent protocol pool plus its key ledger."""

    __slots__ = (
        "shard_id",
        "session",
        "key_counts",
        "local_ops",
        "batches",
        "recent",
        "last_value",
        "busy",
        "delivered",
    )

    def __init__(self, shard_id: int, session: RunSession) -> None:
        self.shard_id = shard_id
        self.session = session
        #: per-key increment counts for keys currently placed here
        self.key_counts: dict[str, int] = {}
        #: operations settled through *this* shard's counter
        self.local_ops = 0
        #: batches settled (= ``begin_inc`` calls on the counter)
        self.batches = 0
        #: operations settled since the last rebalance window reset
        self.recent = 0
        #: last value the underlying counter returned (monotonicity)
        self.last_value = -1
        #: a batch is between :meth:`CounterShardMap.begin_batch` and
        #: :meth:`CounterShardMap.settle_batch`
        self.busy = False
        #: pid -> value delivered by the counter, consumed at settle
        self.delivered: dict[int, int] = {}
        session.counter.on_result = self.delivered.__setitem__

    @property
    def keys(self) -> int:
        """Distinct keys currently placed on this shard."""
        return len(self.key_counts)

    def next_pid(self) -> int:
        """The initiating processor of the next batch (rotates)."""
        ids = self.session.counter.client_ids()
        return ids[self.batches % len(ids)]

    def fingerprint(self) -> str | None:
        """The shard trace's fingerprint, or ``None`` below ``FULL``."""
        trace = self.session.network.trace
        if not trace.keeps_records:
            return None
        return trace.fingerprint()

    def load_profile(self) -> LoadProfile:
        """Per-processor message loads of this shard's pool (the
        paper's ``m_p`` / ``m_b`` statistics, per shard)."""
        return LoadProfile.from_trace(
            self.session.network.trace, population=self.session.n
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Shard({self.shard_id}, keys={self.keys}, "
            f"ops={self.local_ops}, batches={self.batches})"
        )


@dataclass(slots=True)
class BatchOp:
    """One keyed increment inside a batch."""

    seq: int
    key: str
    rid: str | None
    value: int


@dataclass(slots=True)
class ShardBatch:
    """One in-flight combined traversal: a window of keyed increments.

    Created by :meth:`CounterShardMap.begin_batch` (which assigns every
    op its global sequence number and per-key value, and injects one
    ``begin_inc``); finished by :meth:`CounterShardMap.settle_batch`
    after the shard's runtime drained.
    """

    shard_id: int
    index: int
    pid: int
    ops: list[BatchOp]

    @property
    def size(self) -> int:
        return len(self.ops)

    def values(self) -> list[int]:
        """Per-request values, in submission order."""
        return [op.value for op in self.ops]


class CounterShardMap:
    """A keyed counter keyspace over independent sharded protocol pools.

    Args:
        spec: registry spec string (or :class:`~repro.registry.CounterRef`)
            every shard's pool runs.  Any registered spec works —
            batches serialize per shard, so even sequential-only
            protocols qualify (``interval_mode=wrap`` variants where
            repeated operation intervals require it, e.g.
            ``ww-tree?interval_mode=wrap``).
        n: processors per shard pool.
        shards: initial shard count (ids ``0..shards-1``, equal ranges).
        seed: base seed; shard ``s`` derives ``seed + s`` so pools are
            deterministic but decorrelated.
        runtime: ``"sim"`` for synchronous use (:meth:`inc` /
            :meth:`apply` flush inline) or ``"asyncio"`` for the live
            service (two-phase :meth:`begin_batch` / await the shard
            runtime's ``drain()`` / :meth:`settle_batch`).
        time_scale: real seconds per simulated time unit (asyncio only).
        policy: delivery-policy name forwarded to every shard session.
        trace_level: trace fidelity per shard (``FULL`` enables
            fingerprints in fixture bundles).
        batch_max: largest window one traversal may combine.
        rebalance: optional :class:`RebalancePolicy`; when set,
            :meth:`maybe_rebalance` (called automatically by the sim
            flush path) splits/merges from observed load shares.
        recorder: optional :class:`~repro.shard.fixture.FixtureRecorder`
            capturing every op and topology event for offline replay.
    """

    def __init__(
        self,
        spec: str,
        n: int,
        *,
        shards: int = 1,
        seed: int = 0,
        runtime: str = "sim",
        time_scale: float = 0.0,
        policy: str | None = None,
        trace_level: TraceLevel | str = TraceLevel.FULL,
        batch_max: int = 64,
        rebalance: RebalancePolicy | None = None,
        recorder: "FixtureRecorder | None" = None,
    ) -> None:
        if batch_max < 1:
            raise ConfigurationError(
                f"batch_max must be >= 1, got {batch_max}"
            )
        self._ref = parse_spec(spec)
        self._n = n
        self._seed = seed
        self._runtime_name = runtime
        self._time_scale = time_scale
        self._policy = policy
        self._trace_level = trace_level
        self.batch_max = batch_max
        self.rebalance_policy = rebalance
        self.recorder = recorder
        self.router = ShardRouter(shards)
        self._shards: dict[int, Shard] = {
            shard_id: self._make_shard(shard_id)
            for shard_id in self.router.shard_ids()
        }
        self._seq = 0
        self._total_ops = 0
        self._retired_ops = 0
        self._window_ops = 0
        self._splits = 0
        self._merges = 0
        self._failovers = 0
        self._pending: list[tuple[str, str | None]] = []
        if recorder is not None:
            recorder.record_config(
                {
                    "spec": self._ref.canonical,
                    "n": n,
                    "shards": shards,
                    "seed": seed,
                    "batch_max": batch_max,
                    "policy": policy,
                }
            )

    def _make_shard(self, shard_id: int) -> Shard:
        session = RunSession(
            self._ref,
            self._n,
            policy=self._policy,
            seed=self._seed + shard_id,
            trace_level=self._trace_level,
            runtime=self._runtime_name,
            time_scale=self._time_scale,
        )
        return Shard(shard_id, session)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def spec(self) -> str:
        """Canonical spec string every shard pool runs."""
        return self._ref.canonical

    @property
    def n(self) -> int:
        """Processors per shard pool."""
        return self._n

    @property
    def shard_count(self) -> int:
        """Live shards."""
        return len(self._shards)

    @property
    def total_ops(self) -> int:
        """Keyed increments settled across the keyspace's lifetime."""
        return self._total_ops

    def shard(self, shard_id: int) -> Shard:
        """The live :class:`Shard` with *shard_id*; raises on unknown."""
        try:
            return self._shards[shard_id]
        except KeyError:
            raise ConfigurationError(
                f"unknown shard {shard_id}; live shards: "
                f"{self.router.shard_ids()}"
            ) from None

    def shards(self) -> tuple[Shard, ...]:
        """Live shards in hash-space order."""
        return tuple(
            self._shards[shard_id] for shard_id in self.router.shard_ids()
        )

    def locate(self, key: str) -> int:
        """The shard id owning *key* (validates the key)."""
        return self.router.locate(validate_key(key))

    def value_of(self, key: str) -> int:
        """The current value of *key* (0 if never incremented).

        Every syntactically legal key exists — placement is total —
        so an unknown key is simply a zero counter, not an error.
        """
        return self.shard(self.locate(key)).key_counts.get(key, 0)

    def snapshot(self) -> dict[str, int]:
        """The full keyspace: every nonzero key's value."""
        merged: dict[str, int] = {}
        for shard in self._shards.values():
            merged.update(shard.key_counts)
        return merged

    def fingerprints(self) -> dict[int, str | None]:
        """Per-live-shard trace fingerprints (``None`` below ``FULL``)."""
        return {
            shard_id: self._shards[shard_id].fingerprint()
            for shard_id in self.router.shard_ids()
        }

    def stats(self) -> dict[str, Any]:
        """Keyspace counters plus a per-shard breakdown."""
        per_shard = []
        for shard_range in self.router.ranges():
            shard = self._shards[shard_range.shard_id]
            trace = shard.session.network.trace
            per_shard.append(
                {
                    "shard": shard.shard_id,
                    "start": shard_range.start,
                    "stop": shard_range.stop,
                    "keys": shard.keys,
                    "ops": shard.local_ops,
                    "batches": shard.batches,
                    # None when the trace level (OFF) keeps no counts.
                    "messages": (
                        trace.total_messages if trace.keeps_loads else None
                    ),
                }
            )
        return {
            "spec": self.spec,
            "n": self._n,
            "shards": self.shard_count,
            "keys": sum(s.keys for s in self._shards.values()),
            "ops": self._total_ops,
            "batches": sum(s.batches for s in self._shards.values()),
            "splits": self._splits,
            "merges": self._merges,
            "failovers": self._failovers,
            "per_shard": per_shard,
        }

    def verify(self) -> None:
        """Check the conservation invariants; raise ``AssertionError``.

        * every settled op is owned by exactly one live shard's ledger
          (or was settled on a since-merged shard, whose ops the
          survivor's ledger absorbed);
        * the snapshot total equals the number of settled ops;
        * every key in every ledger is placed on its owning shard.
        """
        snapshot_total = sum(
            count
            for shard in self._shards.values()
            for count in shard.key_counts.values()
        )
        assert snapshot_total == self._total_ops, (
            f"keyspace snapshot totals {snapshot_total} but "
            f"{self._total_ops} ops settled"
        )
        local_total = sum(s.local_ops for s in self._shards.values())
        assert local_total + self._retired_ops == self._total_ops, (
            f"per-shard ops {local_total} + retired {self._retired_ops} "
            f"!= total {self._total_ops}"
        )
        for shard in self._shards.values():
            owned = self.router.range_of(shard.shard_id)
            for key in shard.key_counts:
                assert hash_key(key) in owned, (
                    f"key {key!r} ledgered on shard {shard.shard_id} "
                    f"but placed on shard {self.router.locate(key)}"
                )

    # ------------------------------------------------------------------
    # Batching: the two-phase core
    # ------------------------------------------------------------------
    def begin_batch(
        self, shard_id: int, ops: Sequence[tuple[str, str | None]]
    ) -> ShardBatch:
        """Combine *ops* into one traversal of *shard_id*'s pool.

        Assigns every op its global sequence number and its per-key
        value (the shard ledger's count at inject time — the interval
        decomposition), then injects a **single** ``begin_inc``.  The
        caller must drain the shard's runtime before
        :meth:`settle_batch`.

        Raises:
            ConfigurationError: empty window, window over
                ``batch_max``, a key not owned by *shard_id*, or a
                batch already in flight on it.
        """
        shard = self.shard(shard_id)
        if shard.busy:
            raise ConfigurationError(
                f"shard {shard_id} already has a batch in flight; "
                "batches on one shard are strictly sequential"
            )
        if not ops:
            raise ConfigurationError("a batch needs at least one op")
        if len(ops) > self.batch_max:
            raise ConfigurationError(
                f"batch of {len(ops)} exceeds batch_max={self.batch_max}"
            )
        owned = self.router.range_of(shard_id)
        batch_ops: list[BatchOp] = []
        for key, rid in ops:
            validate_key(key)
            if hash_key(key) not in owned:
                raise ConfigurationError(
                    f"key {key!r} belongs to shard "
                    f"{self.router.locate(key)}, not {shard_id}"
                )
        # all-or-nothing: validate the whole window before mutating
        for key, rid in ops:
            value = shard.key_counts.get(key, 0)
            shard.key_counts[key] = value + 1
            batch_ops.append(BatchOp(self._seq, key, rid, value))
            self._seq += 1
        shard.busy = True
        pid = shard.next_pid()
        shard.session.counter.begin_inc(pid, shard.batches)
        return ShardBatch(
            shard_id=shard_id, index=shard.batches, pid=pid, ops=batch_ops
        )

    def settle_batch(self, batch: ShardBatch) -> int:
        """Finish *batch* after its shard's runtime drained.

        Verifies the counter actually answered and that its value is
        strictly larger than the previous batch's (consecutive on
        failure-free runs; crash drills may burn values), updates the
        shard counters, and records every op with the fixture recorder.
        Returns the counter's batch value.
        """
        shard = self.shard(batch.shard_id)
        if not shard.busy:
            raise ConfigurationError(
                f"shard {batch.shard_id} has no batch in flight to settle"
            )
        try:
            value = shard.delivered.pop(batch.pid)
        except KeyError:
            raise ConfigurationError(
                f"batch {batch.index} on shard {batch.shard_id} has no "
                f"result for pid {batch.pid}; drain the shard runtime "
                "before settling"
            ) from None
        assert value > shard.last_value, (
            f"shard {batch.shard_id} batch values must be strictly "
            f"increasing: got {value} after {shard.last_value}"
        )
        shard.last_value = value
        # nothing reads a settled batch's per-op trace columns (stats
        # and load profiles use totals and per-processor loads)
        shard.session.network.trace.release_op(batch.index)
        shard.busy = False
        shard.batches += 1
        shard.local_ops += batch.size
        shard.recent += batch.size
        self._total_ops += batch.size
        self._window_ops += batch.size
        if self.recorder is not None:
            for op in batch.ops:
                self.recorder.record_op(
                    {
                        "seq": op.seq,
                        "key": op.key,
                        "rid": op.rid,
                        "value": op.value,
                        "shard": batch.shard_id,
                        "batch": batch.index,
                        "pid": batch.pid,
                    }
                )
        return value

    # ------------------------------------------------------------------
    # Synchronous convenience (sim runtime)
    # ------------------------------------------------------------------
    def enqueue(self, key: str, rid: str | None = None) -> None:
        """Buffer one keyed increment for the next :meth:`flush`."""
        self._pending.append((validate_key(key), rid))

    def flush(self) -> list[int]:
        """Run every buffered increment; return values in enqueue order.

        Groups the buffer by owning shard, runs each shard's window as
        ``batch_max``-bounded combined traversals (draining the shard
        runtime synchronously between phases), then lets the rebalance
        policy act.  Sim-runtime convenience — the live service drives
        the two-phase API itself.
        """
        if not self._pending:
            return []
        pending, self._pending = self._pending, []
        by_shard: dict[int, list[int]] = {}
        for index, (key, _) in enumerate(pending):
            by_shard.setdefault(self.router.locate(key), []).append(index)
        values: list[int | None] = [None] * len(pending)
        for shard_id in sorted(by_shard):
            indices = by_shard[shard_id]
            for at in range(0, len(indices), self.batch_max):
                window = indices[at : at + self.batch_max]
                batch = self.begin_batch(
                    shard_id, [pending[i] for i in window]
                )
                self.shard(shard_id).session.runtime.until_quiescent()
                self.settle_batch(batch)
                for index, op in zip(window, batch.ops):
                    values[index] = op.value
        self.maybe_rebalance()
        return [v for v in values if v is not None]

    def inc(self, key: str, rid: str | None = None) -> int:
        """One keyed increment, flushed immediately (sim convenience)."""
        self.enqueue(key, rid)
        return self.flush()[0]

    def apply(self, keys: Iterable[str]) -> list[int]:
        """Increment each of *keys* once, batched; values in order."""
        for key in keys:
            self.enqueue(key)
        return self.flush()

    # ------------------------------------------------------------------
    # Topology: split / merge / failover / rebalance
    # ------------------------------------------------------------------
    def split(self, shard_id: int) -> int:
        """Split *shard_id*; return the new shard's id.

        The new shard takes the upper half of the range and the ledger
        entries (and only those) whose keys hash into it.  Refuses
        while a batch is in flight on the shard.
        """
        shard = self.shard(shard_id)
        if shard.busy:
            raise ConfigurationError(
                f"cannot split shard {shard_id} with a batch in flight"
            )
        new_range = self.router.split(shard_id)
        new_shard = self._make_shard(new_range.shard_id)
        self._shards[new_range.shard_id] = new_shard
        for key in [
            k for k in shard.key_counts if hash_key(k) in new_range
        ]:
            new_shard.key_counts[key] = shard.key_counts.pop(key)
        # migrated history counts as the new shard's inheritance, not
        # its local traffic: local_ops stays 0, conservation tracks the
        # donor's settled ops until a merge retires a session
        self._splits += 1
        self._record_event(
            {
                "kind": "split",
                "at_seq": self._seq,
                "shard": shard_id,
                "new_shard": new_range.shard_id,
                "moved_keys": new_shard.keys,
            }
        )
        return new_range.shard_id

    def merge(self, survivor: int, absorbed: int) -> None:
        """Merge adjacent shard *absorbed* into *survivor*.

        The absorbed shard's ledger moves wholesale (ranges are
        disjoint, so no key collides), its protocol pool is retired,
        and its trace fingerprint is recorded in the merge event for
        offline verification.
        """
        surviving = self.shard(survivor)
        absorbing = self.shard(absorbed)
        if surviving.busy or absorbing.busy:
            raise ConfigurationError(
                f"cannot merge shards {survivor} and {absorbed} with a "
                "batch in flight"
            )
        self.router.merge(survivor, absorbed)
        surviving.key_counts.update(absorbing.key_counts)
        self._retired_ops += absorbing.local_ops
        self._merges += 1
        self._record_event(
            {
                "kind": "merge",
                "at_seq": self._seq,
                "survivor": survivor,
                "absorbed": absorbed,
                "moved_keys": absorbing.keys,
                "absorbed_ops": absorbing.local_ops,
                "absorbed_fingerprint": absorbing.fingerprint(),
            }
        )
        del self._shards[absorbed]

    def failover(self, shard_id: int) -> int:
        """Crash-drill *shard_id*: suspect its hot seat, then restore.

        Drives the PR 4 failure-detector hooks directly — suspect the
        shard's critical seat (the standby central's primary, or the
        bypass tree's root host), drain the takeover traffic, then
        restore the seat.  Returns the drilled pid.

        Raises:
            CapabilityError: the spec does not tolerate crashes.
            ConfigurationError: a batch is in flight on the shard.
        """
        shard = self.shard(shard_id)
        if shard.busy:
            raise ConfigurationError(
                f"cannot drill shard {shard_id} with a batch in flight"
            )
        counter = shard.session.counter
        if not counter.capabilities.tolerates_crash:
            raise CapabilityError(
                f"cannot crash-drill {self.spec!r}: the spec does not "
                "tolerate crashes (use central[standby] or "
                "combining-tree[bypass])"
            )
        target = getattr(counter, "current_primary", None)
        if target is None:
            target = counter.root_host
        runtime = shard.session.runtime
        counter.on_processor_suspected(target, runtime.now)
        runtime.until_quiescent()
        counter.on_processor_restored(target, runtime.now)
        runtime.until_quiescent()
        self._failovers += 1
        self._record_event(
            {
                "kind": "failover",
                "at_seq": self._seq,
                "shard": shard_id,
                "pid": target,
            }
        )
        return target

    def maybe_rebalance(self) -> list[dict[str, Any]]:
        """Let the :class:`RebalancePolicy` act; return actions taken.

        A no-op without a policy or before the window fills.  At most
        one split *or* merge per window; shards with a batch in flight
        are never touched (the live service calls this between
        settles).  Window counters reset either way, so one decision is
        made per window of traffic.
        """
        policy = self.rebalance_policy
        if policy is None or self._window_ops < policy.window:
            return []
        total = sum(s.recent for s in self._shards.values())
        actions: list[dict[str, Any]] = []
        if total > 0:
            actions = self._rebalance_once(policy, total)
        self._window_ops = 0
        for shard in self._shards.values():
            shard.recent = 0
        return actions

    def _rebalance_once(
        self, policy: RebalancePolicy, total: int
    ) -> list[dict[str, Any]]:
        candidates = [
            shard
            for shard in self._shards.values()
            if not shard.busy
            and self.router.range_of(shard.shard_id).width >= 2
        ]
        if candidates and self.shard_count < policy.max_shards:
            hottest = max(candidates, key=lambda s: (s.recent, -s.shard_id))
            if hottest.recent / total >= policy.split_share:
                new_id = self.split(hottest.shard_id)
                return [
                    {
                        "action": "split",
                        "shard": hottest.shard_id,
                        "new_shard": new_id,
                        "share": hottest.recent / total,
                    }
                ]
        if self.shard_count > policy.min_shards:
            ranges = self.router.ranges()
            best: tuple[int, int, int] | None = None
            for left, right in zip(ranges, ranges[1:]):
                a = self._shards[left.shard_id]
                b = self._shards[right.shard_id]
                if a.busy or b.busy:
                    continue
                combined = a.recent + b.recent
                if best is None or combined < best[0]:
                    best = (combined, left.shard_id, right.shard_id)
            if best is not None and best[0] / total <= policy.merge_share:
                _, survivor, absorbed = best
                self.merge(survivor, absorbed)
                return [
                    {
                        "action": "merge",
                        "survivor": survivor,
                        "absorbed": absorbed,
                        "share": best[0] / total,
                    }
                ]
        return []

    def _record_event(self, event: dict[str, Any]) -> None:
        if self.recorder is not None:
            self.recorder.record_event(event)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CounterShardMap({self.spec!r}, n={self._n}, "
            f"shards={self.shard_count}, ops={self._total_ops})"
        )
