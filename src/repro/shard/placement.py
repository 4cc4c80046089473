"""Consistent-hash key placement over a partitioned 64-bit hash space.

A keyspace of millions of counters cannot live on one protocol
instance; placement decides which shard owns which key.  The scheme
here is the Dynamo-family one, reduced to its deterministic core: every
key hashes to a point in ``[0, 2^64)`` (SHA-256, so placement is stable
across processes and Python hash randomization), and each shard owns
one *contiguous* range of that space.  Splitting a shard halves its
range — the left half keeps the shard id, the right half goes to a
fresh shard — and merging two adjacent shards unions their ranges.

The two properties the rest of the stack builds on (both are pinned by
property tests in ``tests/test_shard_placement.py``):

* **determinism** — placement is a pure function of the topology
  operations applied, never of insertion order, process, or run;
* **bounded movement** — a split moves only keys of the split shard
  (those in its upper half), and a merge moves only keys of the
  absorbed shard.  No other key's placement ever changes, which is what
  makes elastic resharding affordable under live traffic.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable

from repro.errors import ConfigurationError

__all__ = ["HASH_SPACE", "ShardRange", "ShardRouter", "hash_key"]

HASH_SPACE = 1 << 64
"""Size of the placement hash space: keys hash to ``[0, HASH_SPACE)``."""


def hash_key(key: str) -> int:
    """Map *key* to its placement point in ``[0, HASH_SPACE)``.

    SHA-256 based, so the point is identical in every process and
    every run — ``hash()`` would reshuffle the keyspace per interpreter.
    """
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True, slots=True)
class ShardRange:
    """One shard's contiguous slice ``[start, stop)`` of the hash space."""

    shard_id: int
    start: int
    stop: int

    @property
    def width(self) -> int:
        """Number of hash points the range covers."""
        return self.stop - self.start

    def __contains__(self, point: int) -> bool:
        return self.start <= point < self.stop


class ShardRouter:
    """Deterministic key → shard placement with split/merge resharding.

    The router holds a partition of ``[0, HASH_SPACE)`` into contiguous
    per-shard ranges.  It knows nothing about counters — it is the pure
    placement function :class:`~repro.shard.map.CounterShardMap` builds
    on, and what the placement property tests drive directly.

    Args:
        shards: number of initial shards; the space is divided into
            equal contiguous ranges owned by shard ids ``0..shards-1``.
    """

    def __init__(self, shards: int = 1) -> None:
        if shards < 1:
            raise ConfigurationError(f"need at least one shard, got {shards}")
        if HASH_SPACE % shards and shards & (shards - 1):
            # non-power-of-two initial counts still work: ranges differ
            # by at most one hash point, which no property depends on
            pass
        self._ranges: list[ShardRange] = []
        step, remainder = divmod(HASH_SPACE, shards)
        start = 0
        for shard_id in range(shards):
            stop = start + step + (1 if shard_id < remainder else 0)
            self._ranges.append(ShardRange(shard_id, start, stop))
            start = stop
        self._reindex()
        self._next_id = shards

    def _reindex(self) -> None:
        """Rebuild the range starts :meth:`locate_point` bisects."""
        self._starts: list[int] = [r.start for r in self._ranges]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shard_count(self) -> int:
        """Number of shards currently owning ranges."""
        return len(self._ranges)

    def shard_ids(self) -> tuple[int, ...]:
        """Shard ids in hash-space order (range starts ascending)."""
        return tuple(r.shard_id for r in self._ranges)

    def ranges(self) -> tuple[ShardRange, ...]:
        """The full partition, in hash-space order."""
        return tuple(self._ranges)

    def range_of(self, shard_id: int) -> ShardRange:
        """The range owned by *shard_id*; raises on unknown ids."""
        for shard_range in self._ranges:
            if shard_range.shard_id == shard_id:
                return shard_range
        raise ConfigurationError(
            f"unknown shard {shard_id}; live shards: {self.shard_ids()}"
        )

    def locate(self, key: str) -> int:
        """The shard id owning *key* (pure, deterministic)."""
        return self.locate_point(hash_key(key))

    def locate_point(self, point: int) -> int:
        """The shard id owning hash *point*."""
        if not 0 <= point < HASH_SPACE:
            raise ConfigurationError(
                f"hash point {point} outside [0, 2^64)"
            )
        return self._ranges[bisect_right(self._starts, point) - 1].shard_id

    def spread(self, keys: Iterable[str]) -> dict[int, int]:
        """Key count per shard id (includes empty shards at 0)."""
        counts = {r.shard_id: 0 for r in self._ranges}
        for key in keys:
            counts[self.locate(key)] += 1
        return counts

    # ------------------------------------------------------------------
    # Resharding
    # ------------------------------------------------------------------
    def neighbors(self, shard_id: int) -> tuple[int | None, int | None]:
        """The shard ids adjacent to *shard_id* in hash-space order."""
        for index, shard_range in enumerate(self._ranges):
            if shard_range.shard_id == shard_id:
                left = self._ranges[index - 1].shard_id if index else None
                right = (
                    self._ranges[index + 1].shard_id
                    if index + 1 < len(self._ranges)
                    else None
                )
                return left, right
        raise ConfigurationError(
            f"unknown shard {shard_id}; live shards: {self.shard_ids()}"
        )

    def split(self, shard_id: int) -> ShardRange:
        """Halve *shard_id*'s range; return the new upper-half range.

        The lower half keeps *shard_id*; the upper half is owned by a
        freshly allocated shard id.  Only keys hashing into the upper
        half move — everything else is untouched.
        """
        for index, shard_range in enumerate(self._ranges):
            if shard_range.shard_id != shard_id:
                continue
            if shard_range.width < 2:
                raise ConfigurationError(
                    f"shard {shard_id} owns a single hash point; "
                    "it cannot be split further"
                )
            mid = shard_range.start + shard_range.width // 2
            new_range = ShardRange(self._next_id, mid, shard_range.stop)
            self._next_id += 1
            self._ranges[index] = ShardRange(
                shard_id, shard_range.start, mid
            )
            self._ranges.insert(index + 1, new_range)
            self._reindex()
            return new_range
        raise ConfigurationError(
            f"unknown shard {shard_id}; live shards: {self.shard_ids()}"
        )

    def merge(self, survivor: int, absorbed: int) -> ShardRange:
        """Union two *adjacent* shards' ranges under *survivor*.

        Only keys of the absorbed shard move (to the survivor).  Raises
        if the ranges are not adjacent in hash space — merging
        non-neighbors would fragment ranges and break the contiguity
        invariant every other method relies on.
        """
        if survivor == absorbed:
            raise ConfigurationError(
                f"cannot merge shard {survivor} with itself"
            )
        indices = {
            shard_range.shard_id: index
            for index, shard_range in enumerate(self._ranges)
        }
        for shard_id in (survivor, absorbed):
            if shard_id not in indices:
                raise ConfigurationError(
                    f"unknown shard {shard_id}; live shards: "
                    f"{self.shard_ids()}"
                )
        index_a, index_b = indices[survivor], indices[absorbed]
        if abs(index_a - index_b) != 1:
            raise ConfigurationError(
                f"shards {survivor} and {absorbed} are not adjacent in "
                "hash space; only neighboring ranges can merge"
            )
        first, second = sorted((index_a, index_b))
        merged = ShardRange(
            survivor, self._ranges[first].start, self._ranges[second].stop
        )
        del self._ranges[second]
        self._ranges[first] = merged
        self._reindex()
        return merged

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{r.shard_id}:[{r.start:#x},{r.stop:#x})" for r in self._ranges
        )
        return f"ShardRouter({parts})"
