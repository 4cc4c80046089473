"""Quorum systems: the intersection structures behind the Hot Spot Lemma.

"Some of the reasoning in our paper is closely related with that in
quorum systems.  A quorum system is a collection of sets of elements
where every two sets in the collection intersect" (paper §1).  The Hot
Spot Lemma *is* a quorum-intersection argument: the footprints of
successive operations form an online quorum system.

This module implements the classic constructions the paper cites the
lineage of — singleton (centralized), rotating majority (GB85-style
voting), Maekawa's √n grid, root-to-leaf tree paths, the wheel, and
Peleg–Wool crumbling walls — under one interface, with intersection
verification and load analysis (uniform and LP-optimal, in
:mod:`repro.quorum.analysis`).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Iterator

from repro.errors import ConfigurationError
from repro.sim.messages import ProcessorId


class QuorumSystem(ABC):
    """A finite family of pairwise-intersecting subsets of ``1..n``."""

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ConfigurationError(f"universe must be nonempty, got n={n}")
        self.n = n

    @property
    def universe(self) -> frozenset[ProcessorId]:
        """The ground set: processors ``1..n``."""
        return frozenset(range(1, self.n + 1))

    @abstractmethod
    def quorums(self) -> Iterator[frozenset[ProcessorId]]:
        """Yield every quorum of the (enumerated) family."""

    def quorum_count(self) -> int:
        """Number of quorums in the enumerated family."""
        return sum(1 for _ in self.quorums())

    def quorum_for(self, index: int) -> frozenset[ProcessorId]:
        """The ``index``-th quorum, cyclically — a rotating access strategy.

        Rotating through the family is how the quorum counter spreads
        load; subclasses with cheap indexed access override this.
        """
        count = self.quorum_count()
        target = index % count
        for position, quorum in enumerate(self.quorums()):
            if position == target:
                return quorum
        raise AssertionError("unreachable: index within count")

    def verify_intersection(self) -> bool:
        """Exhaustively check that every two quorums intersect."""
        family = list(self.quorums())
        return all(
            family[i] & family[j]
            for i in range(len(family))
            for j in range(i, len(family))
        )

    def degrees(self) -> dict[ProcessorId, int]:
        """How many quorums each element belongs to."""
        degree: dict[ProcessorId, int] = {p: 0 for p in self.universe}
        for quorum in self.quorums():
            for element in quorum:
                degree[element] += 1
        return degree

    def max_quorum_size(self) -> int:
        """Size of the largest quorum (drives per-op message cost)."""
        return max(len(q) for q in self.quorums())

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n})"


class SingletonQuorum(QuorumSystem):
    """One quorum: a single center element — the centralized strawman.

    Load 1 on the center: the quorum-world picture of the paper's §1
    "store the value at one processor" counter.
    """

    def __init__(self, n: int, center: ProcessorId = 1) -> None:
        super().__init__(n)
        if not 1 <= center <= n:
            raise ConfigurationError(f"center {center} outside 1..{n}")
        self.center = center

    def quorums(self) -> Iterator[frozenset[ProcessorId]]:
        yield frozenset({self.center})

    def quorum_for(self, index: int) -> frozenset[ProcessorId]:
        return frozenset({self.center})


class RotatingMajorityQuorum(QuorumSystem):
    """The ``n`` contiguous windows of size ``⌊n/2⌋+1`` (majority voting).

    Any two majorities intersect; restricting to cyclic windows keeps the
    family linear in size while preserving the majority load profile
    (every element is in exactly ``⌊n/2⌋+1`` of the ``n`` windows).
    """

    def __init__(self, n: int) -> None:
        super().__init__(n)
        self.window = n // 2 + 1

    def quorums(self) -> Iterator[frozenset[ProcessorId]]:
        for start in range(self.n):
            yield self.quorum_for(start)

    def quorum_count(self) -> int:
        return self.n

    def quorum_for(self, index: int) -> frozenset[ProcessorId]:
        start = index % self.n
        return frozenset(
            ((start + offset) % self.n) + 1 for offset in range(self.window)
        )


class MaekawaGrid(QuorumSystem):
    """Maekawa's √n construction: element's row ∪ element's column.

    Quorum size ``2√n − 1``; any two quorums intersect because any row
    meets any column.  The canonical "√N algorithm for mutual exclusion"
    the paper cites (Mae85).
    """

    def __init__(self, n: int) -> None:
        super().__init__(n)
        side = math.isqrt(n)
        if side * side != n:
            raise ConfigurationError(
                f"Maekawa grid needs a square universe, got n={n}"
            )
        self.side = side

    def quorums(self) -> Iterator[frozenset[ProcessorId]]:
        for element in range(self.n):
            yield self.quorum_for(element)

    def quorum_count(self) -> int:
        return self.n

    def quorum_for(self, index: int) -> frozenset[ProcessorId]:
        element = index % self.n
        row, col = divmod(element, self.side)
        row_ids = {row * self.side + c + 1 for c in range(self.side)}
        col_ids = {r * self.side + col + 1 for r in range(self.side)}
        return frozenset(row_ids | col_ids)


class TreePathQuorum(QuorumSystem):
    """Root-to-leaf paths in a complete binary tree over ``1..n``.

    Any two paths share the root — a legal quorum system with tiny
    quorums (size ``⌈log₂ n⌉``) but, like the centralized counter, a
    designated hot spot: the root is in *every* quorum.  Included
    precisely because it shows small quorums do not imply small load,
    the distinction the paper's bottleneck measure captures.
    """

    def __init__(self, n: int) -> None:
        super().__init__(n)
        self.leaf_start = (n + 1) // 2  # heap layout: leaves are the tail

    def quorums(self) -> Iterator[frozenset[ProcessorId]]:
        for leaf in range(self.leaf_start, self.n):
            yield self.quorum_for(leaf - self.leaf_start)

    def quorum_count(self) -> int:
        return max(1, self.n - self.leaf_start)

    def quorum_for(self, index: int) -> frozenset[ProcessorId]:
        count = self.quorum_count()
        leaf = self.leaf_start + (index % count) + 1  # 1-based heap index
        path = set()
        node = leaf
        while node >= 1:
            path.add(node)
            node //= 2
        return frozenset(path)


class WheelQuorum(QuorumSystem):
    """The wheel: quorums ``{hub, spoke}`` for each spoke, plus the rim.

    The hub sits in all but one quorum (near-centralized); the rim quorum
    (all spokes) is what lets the hub be bypassed once.  A standard
    example of extreme load asymmetry with minimal quorums.
    """

    def __init__(self, n: int, hub: ProcessorId = 1) -> None:
        super().__init__(n)
        if n < 2:
            raise ConfigurationError("a wheel needs at least two elements")
        if not 1 <= hub <= n:
            raise ConfigurationError(f"hub {hub} outside 1..{n}")
        self.hub = hub
        self._spokes = tuple(p for p in range(1, n + 1) if p != hub)

    def quorums(self) -> Iterator[frozenset[ProcessorId]]:
        for spoke in self._spokes:
            yield frozenset({self.hub, spoke})
        yield frozenset(self._spokes)

    def quorum_count(self) -> int:
        return self.n  # n-1 spoke quorums + the rim

    def quorum_for(self, index: int) -> frozenset[ProcessorId]:
        spokes = self._spokes
        position = index % self.n
        if position < len(spokes):
            return frozenset({self.hub, spokes[position]})
        return frozenset(spokes)


class CrumblingWall(QuorumSystem):
    """Peleg–Wool crumbling walls (PW95), row-based quorums.

    The universe is laid out in rows; a quorum is one full row plus one
    element from every row *below* it.  Two quorums intersect: if they
    use the same full row they share it; otherwise the lower full row
    contributes an element to the higher quorum's "one per row below"
    tail.  Row widths are a parameter; wider-then-narrower walls realize
    the small-load constructions of the paper's related work.
    """

    def __init__(self, n: int, row_widths: list[int] | None = None) -> None:
        super().__init__(n)
        if row_widths is None:
            row_widths = self._default_rows(n)
        if sum(row_widths) != n:
            raise ConfigurationError(
                f"row widths {row_widths} must sum to n={n}"
            )
        if any(width < 1 for width in row_widths):
            raise ConfigurationError("every row needs at least one element")
        self.row_widths = list(row_widths)
        self._rows: list[list[ProcessorId]] = []
        next_id = 1
        for width in self.row_widths:
            self._rows.append(list(range(next_id, next_id + width)))
            next_id += width

    @staticmethod
    def _default_rows(n: int) -> list[int]:
        """Rows of width ≈ √n: a balanced wall."""
        width = max(1, math.isqrt(n))
        rows: list[int] = []
        left = n
        while left > 0:
            take = min(width, left)
            rows.append(take)
            left -= take
        return rows

    def quorums(self) -> Iterator[frozenset[ProcessorId]]:
        for index in range(self.quorum_count()):
            yield self.quorum_for(index)

    def quorum_count(self) -> int:
        # One canonical quorum per (row, rotation) pair keeps the family
        # small while exercising every element.
        return sum(max(1, len(row)) for row in self._rows[:-1]) or 1

    def quorum_for(self, index: int) -> frozenset[ProcessorId]:
        count = self.quorum_count()
        target = index % count
        cursor = 0
        for row_index, row in enumerate(self._rows[:-1]):
            slots = max(1, len(row))
            if target < cursor + slots:
                rotation = target - cursor
                quorum = set(row)
                for below in self._rows[row_index + 1 :]:
                    quorum.add(below[rotation % len(below)])
                return frozenset(quorum)
            cursor += slots
        # Single-row wall: the row itself is the only quorum.
        return frozenset(self._rows[0])
