"""Tree geometry and the paper's identifier-interval scheme (§4).

The paper's communication tree: every inner node has ``k`` children, the
root is on level 0, all leaves are on level ``k+1``, so there are
``n = k·kᵏ = k^(k+1)`` leaves — one per processor.  We generalize to an
``arity``-ary tree with inner levels ``0 .. depth`` (leaves on level
``depth+1``); the paper's shape is ``arity = depth = k``, and the shape
ablation (experiment E10) sweeps the generalization.

Node numbering: an inner node is one ``int``, its position in level
order — the root is 0, level ``i`` holds ``arityⁱ`` consecutive numbers
left to right.  The parent of node ``v`` is ``(v-1)//arity`` and its
children are ``arity·v+1 … arity·v+arity``; :class:`TreeGeometry` is the
one place that knows this, and the one place that turns a node into its
wire key ``("node", level, index)`` (:meth:`TreeGeometry.encode`) and
back (:meth:`TreeGeometry.decode`).  Leaves are not numbered: a leaf is
its processor id.

Identifier scheme, reconstructed from §4: leaves are processors ``1..n``
left to right.  The level-``i`` (1 ≤ i ≤ depth) inner node number ``j``
(0-based within its level) initially uses processor
``(i-1)·arityᵈ + j·arity^(d-i) + 1`` (with ``d = depth``) and owns the
following ``arity^(d-i)`` ids as replacement candidates.  Bands of
``arityᵈ`` ids per level make intervals disjoint across levels,
sub-intervals of ``arity^(d-i)`` ids make them disjoint within a level,
and the largest id used is ``depth·arityᵈ``, which for the paper's shape
equals ``k·kᵏ = n``.  The root walks ids ``1, 2, 3, …`` independently;
the paper's accounting ("each processor starts working at most once for
the root and at most once for another inner node", Bottleneck Theorem)
is preserved because the root's walk is strictly increasing and each
inner interval is consumed left to right.
"""

from __future__ import annotations

import math
from bisect import bisect_right

from repro.errors import ConfigurationError, ProtocolError
from repro.sim.messages import ProcessorId

_PAPER_SHAPES: dict[int, "TreeGeometry"] = {}


class TreeGeometry:
    """Shape, adjacency and id intervals of a communication tree.

    Args:
        arity: children per inner node (the paper's ``k``), at least 2.
        depth: last inner level (the paper's ``k``); leaves live on
            ``depth + 1``.  At least 1, so there is at least one level of
            non-root inner nodes.
    """

    def __init__(self, arity: int, depth: int) -> None:
        if arity < 2:
            raise ConfigurationError(f"tree arity must be at least 2, got {arity}")
        if depth < 1:
            raise ConfigurationError(f"tree depth must be at least 1, got {depth}")
        self.arity = arity
        self.depth = depth
        self.leaf_count = arity ** (depth + 1)
        self._band = arity**depth  # ids per level band = leaf_count / arity
        # First node number of each level 0..depth, then the node count.
        self._starts = [(arity**level - 1) // (arity - 1) for level in range(depth + 2)]

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def paper_shape(cls, k: int) -> "TreeGeometry":
        """The paper's tree for parameter ``k``: arity = depth = k.

        Paper shapes are interned: the geometry is immutable after
        construction, so repeated sessions at the same ``k`` share one
        instance.
        """
        shape = _PAPER_SHAPES.get(k)
        if shape is None:
            shape = cls(arity=k, depth=k)
            _PAPER_SHAPES[k] = shape
        return shape

    @classmethod
    def for_processors(cls, n: int) -> "TreeGeometry":
        """Smallest paper-shape tree with at least *n* leaves.

        The paper: "for simplicity let us assume that n = k·kᵏ; otherwise
        simply increase n to the next higher value of the form k·kᵏ".
        """
        if n < 1:
            raise ConfigurationError(f"need at least one processor, got n={n}")
        k = 2
        while k ** (k + 1) < n:
            k += 1
        return cls.paper_shape(k)

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    def inner_levels(self) -> range:
        """Levels that hold inner nodes (0 = root .. depth)."""
        return range(self.depth + 1)

    def level_nodes(self, level: int) -> range:
        """The inner nodes on *level*, left to right."""
        if not 0 <= level <= self.depth:
            raise ConfigurationError(
                f"level {level} outside inner levels 0..{self.depth}"
            )
        return range(self._starts[level], self._starts[level + 1])

    def nodes_on_level(self, level: int) -> int:
        """Number of inner nodes on *level*."""
        return len(self.level_nodes(level))

    def total_inner_nodes(self) -> int:
        """Inner nodes over all levels: (arity^(depth+1) - 1)/(arity - 1)."""
        return self._starts[-1]

    def all_nodes(self) -> range:
        """Every inner node, root first, in level order."""
        return range(self._starts[-1])

    def level_of(self, node: int) -> int:
        """The level inner node *node* lies on (0 for the root)."""
        if not 0 <= node < self._starts[-1]:
            raise self._no_node(node)
        return bisect_right(self._starts, node) - 1

    def leaves_under(self, node: int) -> int:
        """Number of leaves in the subtree of *node* (paths through it)."""
        return self.arity ** (self.depth + 1 - self.level_of(node))

    # ------------------------------------------------------------------
    # Wire keys
    # ------------------------------------------------------------------
    def encode(self, node: int) -> tuple[str, int, int]:
        """The wire key ``("node", level, index)`` of inner node *node*;
        *index* counts from 0 left to right within the level."""
        level = bisect_right(self._starts, node) - 1
        return ("node", level, node - self._starts[level])

    def decode(self, key) -> int:
        """The inner node a wire key ``("node", level, index)`` names.

        Raises :class:`ProtocolError` for anything else — a leaf's key
        ``("leaf", pid)`` included.
        """
        starts = self._starts
        try:
            tag, level, index = key
            if tag == "node" and 0 <= level <= self.depth:
                node = starts[level] + index
                if starts[level] <= node < starts[level + 1]:
                    return node
        except (TypeError, ValueError):
            pass
        raise ProtocolError(f"{key!r} names no inner node of {self!r}")

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------
    def parent(self, node: int) -> int:
        """Parent of inner node *node*; the root has no parent."""
        if 0 < node < self._starts[-1]:
            return (node - 1) // self.arity
        if node == 0:
            raise ConfigurationError("the root has no parent")
        raise self._no_node(node)

    def children(self, node: int) -> range:
        """Inner-node children of *node*; empty for last-level nodes."""
        if not 0 <= node < self._starts[-1]:
            raise self._no_node(node)
        if node >= self._starts[self.depth]:
            return range(0)
        first = self.arity * node + 1
        return range(first, first + self.arity)

    def leaf_children(self, node: int) -> range:
        """Leaf (processor id) children of a last-level node."""
        if not 0 <= node < self._starts[-1]:
            raise self._no_node(node)
        last = self._starts[self.depth]
        if node < last:
            raise ConfigurationError(f"node {node} is not on the last inner level")
        first = (node - last) * self.arity + 1
        return range(first, first + self.arity)

    def leaf_parent(self, leaf_pid: ProcessorId) -> int:
        """The last-level inner node above leaf processor *leaf_pid*."""
        if not 1 <= leaf_pid <= self.leaf_count:
            raise ConfigurationError(
                f"leaf id {leaf_pid} outside 1..{self.leaf_count}"
            )
        return self._starts[self.depth] + (leaf_pid - 1) // self.arity

    def path_to_root(self, leaf_pid: ProcessorId) -> list[int]:
        """Inner nodes on the path from *leaf_pid*'s parent up to the root."""
        path = [self.leaf_parent(leaf_pid)]
        while path[-1] != 0:
            path.append(self.parent(path[-1]))
        return path

    # ------------------------------------------------------------------
    # Identifier intervals (§4's replacement-processor scheme)
    # ------------------------------------------------------------------
    def id_interval(self, node: int) -> range:
        """Replacement-id interval of a non-root inner node.

        The first id of the interval is the node's initial worker; retired
        workers are replaced by the next id.  Intervals are pairwise
        disjoint over all non-root inner nodes.
        """
        level = self.level_of(node)
        if level == 0:
            raise ConfigurationError(
                "the root walks ids 1, 2, 3, ... and has no static interval"
            )
        width = self.arity ** (self.depth - level)
        start = (level - 1) * self._band + (node - self._starts[level]) * width + 1
        return range(start, start + width)

    def initial_worker(self, node: int) -> ProcessorId:
        """Initial processor id working for inner node *node*.

        The root starts at processor 1 (it shares ids with other roles by
        design; the Bottleneck Theorem's accounting allows one root tenure
        plus one inner tenure per processor).
        """
        if node == 0:
            return 1
        return self.id_interval(node)[0]

    def interval_node(self, pid: ProcessorId) -> int | None:
        """The non-root inner node whose interval holds *pid*, if any.

        Intervals are disjoint, so this is the one inner node besides the
        root that processor *pid* can ever work for.
        """
        located = self._locate(pid)
        return None if located is None else located[0]

    def initially_worked_node(self, pid: ProcessorId) -> int | None:
        """The non-root inner node whose initial worker is *pid*, if any.

        The inverse of :meth:`initial_worker` on the non-root nodes
        (interval starts are distinct, so there is at most one); the
        root's initial worker is processor 1 in addition to whatever
        this returns for it.  Pure arithmetic on the band layout — this
        is what lets a processor's program be built on first contact
        without consulting any live state.
        """
        located = self._locate(pid)
        return None if located is None or located[1] else located[0]

    def initial_leaf_parent_worker(self, leaf_pid: ProcessorId) -> ProcessorId:
        """Initial worker of the inner node above leaf *leaf_pid*.

        What ``initial_worker(leaf_parent(leaf_pid))`` computes, without
        the node round trip (last-level intervals have width 1).
        """
        if not 1 <= leaf_pid <= self.leaf_count:
            raise ConfigurationError(
                f"leaf id {leaf_pid} outside 1..{self.leaf_count}"
            )
        return (self.depth - 1) * self._band + (leaf_pid - 1) // self.arity + 1

    def max_interval_id(self) -> ProcessorId:
        """Largest id any non-root interval contains: depth · arity^depth."""
        return self.depth * self._band

    def root_walk_budget(self, slack: int = 8) -> ProcessorId:
        """Upper bound on root ids needed for one one-shot workload.

        The root handles about three messages per operation (receive the
        forwarded inc, send the value, and occasionally a child's
        id-update) and retires every ``2·arity`` messages, so about
        ``2n/arity`` ids suffice; *slack* absorbs cascade effects at tiny
        ``k``.
        """
        return 2 * self.leaf_count // self.arity + slack

    def processor_requirement(self) -> int:
        """Processor ids the tree may touch (leaves, intervals, root walk).

        For the paper's shape this is ``n`` plus a small root-walk margin
        at ``k = 2``; for ablation shapes with ``depth > arity`` it can
        exceed the leaf count (reserve processors, reported by E10).
        """
        return max(self.leaf_count, self.max_interval_id(), self.root_walk_budget())

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _locate(self, pid: ProcessorId) -> tuple[int, int] | None:
        """``(node, offset)``: the interval holding *pid* and *pid*'s
        place in it, or None outside every interval."""
        below = pid - 1
        band = self._band
        if not 0 <= below < self.depth * band:
            return None
        level = below // band + 1
        index, offset = divmod(below % band, self.arity ** (self.depth - level))
        return self._starts[level] + index, offset

    def _no_node(self, node: int) -> ConfigurationError:
        return ConfigurationError(
            f"no inner node {node} (nodes are 0..{self._starts[-1] - 1})"
        )

    def __repr__(self) -> str:
        return (
            f"TreeGeometry(arity={self.arity}, depth={self.depth}, "
            f"leaves={self.leaf_count})"
        )


def paper_k_for(n: int) -> int:
    """The paper's ``k`` for *n* processors: the smallest k with k^(k+1) ≥ n."""
    return TreeGeometry.for_processors(n).arity


def lower_bound_k(n: int) -> float:
    """Real-valued solution ``k`` of ``k·kᵏ = n`` — the lower-bound curve.

    Solved by bisection on the strictly increasing map k ↦ (k+1)·ln k.
    Returns 1.0 for n ≤ 1.
    """
    if n <= 1:
        return 1.0
    target = math.log(n)
    lo, hi = 1.0, 2.0
    while (hi + 1.0) * math.log(hi) < target:
        hi *= 2.0
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if (mid + 1.0) * math.log(mid) < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0
