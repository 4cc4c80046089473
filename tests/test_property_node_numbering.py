"""Level-order node numbers against an independent ``(level, index)`` model.

An inner node is one int, its place in level order (the root is 0).
This file keeps, test-local, the ``(level, index)`` formulas of §4's
tree — parent, children, leaves, the id intervals — and checks every
node of every shape with 2 ≤ arity ≤ 5 and 1 ≤ depth ≤ 4 against what
:class:`TreeGeometry` computes from the number, wire keys included.
The last test runs the invariant a worker's two role slots rest on: a
processor only ever works for the root and for the one inner node whose
interval holds its id.
"""

from __future__ import annotations

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import TreeGeometry
from repro.core.tree.worker import TreeWorker
from repro.registry import RunSession

SHAPES = [(arity, depth) for arity in range(2, 6) for depth in range(1, 5)]


class _Reference:
    """The tree of one shape, with a node as ``(level, index)``."""

    def __init__(self, arity: int, depth: int) -> None:
        self.arity, self.depth = arity, depth
        self.band = arity**depth
        self.nodes = [
            (level, index)
            for level in range(depth + 1)
            for index in range(arity**level)
        ]

    def parent(self, level, index):
        return (level - 1, index // self.arity)

    def children(self, level, index):
        if level == self.depth:
            return []
        return [(level + 1, index * self.arity + c) for c in range(self.arity)]

    def leaf_children(self, level, index):
        return [index * self.arity + c + 1 for c in range(self.arity)]

    def leaf_parent(self, pid):
        return (self.depth, (pid - 1) // self.arity)

    def path_to_root(self, pid):
        path = [self.leaf_parent(pid)]
        while path[-1][0]:
            path.append(self.parent(*path[-1]))
        return path

    def id_interval(self, level, index):
        width = self.arity ** (self.depth - level)
        start = (level - 1) * self.band + index * width + 1
        return range(start, start + width)

    def initial_worker(self, level, index):
        return 1 if level == 0 else self.id_interval(level, index)[0]


def _every_shape(test):
    for arity, depth in SHAPES:
        test = example(shape=(arity, depth))(test)
    return test


@settings(max_examples=20, deadline=None)
@given(shape=st.sampled_from(SHAPES))
@_every_shape
def test_node_numbers_match_the_level_index_reference(shape):
    arity, depth = shape
    geometry = TreeGeometry(arity=arity, depth=depth)
    ref = _Reference(arity, depth)
    number = {pair: node for node, pair in enumerate(ref.nodes)}
    assert list(geometry.all_nodes()) == list(range(len(ref.nodes)))

    for node, (level, index) in enumerate(ref.nodes):
        assert geometry.encode(node) == ("node", level, index)
        assert geometry.decode(geometry.encode(node)) == node
        assert geometry.level_of(node) == level
        if level:
            assert geometry.parent(node) == number[ref.parent(level, index)]
            assert geometry.id_interval(node) == ref.id_interval(level, index)
        assert list(geometry.children(node)) == [
            number[child] for child in ref.children(level, index)
        ]
        if level == depth:
            assert list(geometry.leaf_children(node)) == ref.leaf_children(level, index)
        assert geometry.initial_worker(node) == ref.initial_worker(level, index)

    for pid in range(1, geometry.leaf_count + 1):
        assert geometry.leaf_parent(pid) == number[ref.leaf_parent(pid)]
        assert geometry.path_to_root(pid) == [
            number[pair] for pair in ref.path_to_root(pid)
        ]

    initially = {
        ref.initial_worker(level, index): number[level, index]
        for level, index in ref.nodes[1:]
    }
    holding = {
        pid: number[level, index]
        for level, index in ref.nodes[1:]
        for pid in ref.id_interval(level, index)
    }
    for pid in range(geometry.processor_requirement() + 2):
        assert geometry.initially_worked_node(pid) == initially.get(pid)
        assert geometry.interval_node(pid) == holding.get(pid)


def test_a_worker_holds_the_root_and_its_own_intervals_node_at_most(monkeypatch):
    """Wrapped intervals under random delays and random initiators: every
    role a worker takes up is the root or its interval's node."""
    n, ops = 81, 3_240
    session = RunSession("ww-tree?interval_mode=wrap", n, policy="random", seed=4)
    counter = session.counter
    geometry = counter.geometry
    adopted = []
    adopt = TreeWorker.adopt_role

    def checked(worker, role):
        own = {0, geometry.interval_node(worker.pid)}
        assert role.node in own, (worker.pid, role.node)
        adopt(worker, role)
        assert set(worker.held_nodes()) <= own
        adopted.append(role.node)

    monkeypatch.setattr(TreeWorker, "adopt_role", checked)
    order = random.Random(4).choices(range(1, n + 1), k=ops)
    result = session.run_sequence(order)

    assert result.values() == list(range(ops))
    assert len(counter.retirements) > ops // 10
    assert 0 in adopted and any(adopted)
    for event in counter.retirements:
        if event.node:
            assert geometry.interval_node(event.new_worker) == event.node
    network = session.network
    for pid in network.materialised_ids():
        program = network.processor(pid)
        if program is counter.leaves:
            continue
        own = {0, geometry.interval_node(pid)}
        assert set(program.held_nodes()) <= own
        for node in range(geometry.total_inner_nodes()):
            if node not in own:
                assert program.forward_target(node) is None
