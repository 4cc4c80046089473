"""Unit tests for tree geometry and the §4 identifier scheme."""

from __future__ import annotations

import pytest

from repro.core import TreeGeometry, lower_bound_k, paper_k_for
from repro.errors import ConfigurationError, ProtocolError


class TestShape:
    def test_paper_shape_counts(self):
        geometry = TreeGeometry.paper_shape(3)
        assert geometry.arity == 3
        assert geometry.depth == 3
        assert geometry.leaf_count == 3**4 == 81

    def test_leaf_count_is_k_power_k_plus_one(self):
        for k in (2, 3, 4, 5):
            assert TreeGeometry.paper_shape(k).leaf_count == k ** (k + 1)

    def test_nodes_on_level(self):
        geometry = TreeGeometry.paper_shape(3)
        assert [geometry.nodes_on_level(level) for level in range(4)] == [1, 3, 9, 27]

    def test_total_inner_nodes_geometric_sum(self):
        geometry = TreeGeometry(arity=2, depth=3)
        assert geometry.total_inner_nodes() == 1 + 2 + 4 + 8

    def test_all_nodes_root_first(self):
        geometry = TreeGeometry(arity=2, depth=2)
        nodes = geometry.all_nodes()
        assert nodes[0] == 0
        assert len(nodes) == geometry.total_inner_nodes()
        assert [geometry.level_of(node) for node in nodes] == [0, 1, 1, 2, 2, 2, 2]

    def test_leaves_under(self):
        geometry = TreeGeometry.paper_shape(2)  # leaves = 8
        assert geometry.leaves_under(0) == 8
        assert geometry.leaves_under(1) == 4  # level 1, index 0
        assert geometry.leaves_under(6) == 2  # level 2, index 3

    def test_for_processors_rounds_up(self):
        assert TreeGeometry.for_processors(8).arity == 2
        assert TreeGeometry.for_processors(9).arity == 3
        assert TreeGeometry.for_processors(81).arity == 3
        assert TreeGeometry.for_processors(82).arity == 4

    @pytest.mark.parametrize("arity,depth", [(1, 2), (2, 0), (0, 0)])
    def test_invalid_shapes_rejected(self, arity, depth):
        with pytest.raises(ConfigurationError):
            TreeGeometry(arity=arity, depth=depth)


class TestAdjacency:
    def test_parent_child_inverse(self):
        geometry = TreeGeometry.paper_shape(3)
        for level in range(geometry.depth):
            for node in geometry.level_nodes(level):
                for child in geometry.children(node):
                    assert geometry.parent(child) == node

    def test_root_has_no_parent(self):
        with pytest.raises(ConfigurationError):
            TreeGeometry.paper_shape(2).parent(0)

    def test_last_level_has_leaf_children(self):
        geometry = TreeGeometry.paper_shape(2)
        first_on_last_level = 3
        assert not geometry.children(first_on_last_level)
        assert list(geometry.leaf_children(first_on_last_level)) == [1, 2]

    def test_leaf_children_partition_leaves(self):
        geometry = TreeGeometry.paper_shape(2)
        seen = []
        for node in geometry.level_nodes(geometry.depth):
            seen.extend(geometry.leaf_children(node))
        assert seen == list(range(1, geometry.leaf_count + 1))

    def test_leaf_children_only_on_last_level(self):
        geometry = TreeGeometry.paper_shape(2)
        with pytest.raises(ConfigurationError):
            geometry.leaf_children(1)

    def test_leaf_parent(self):
        geometry = TreeGeometry.paper_shape(2)
        assert geometry.leaf_parent(1) == 3
        assert geometry.leaf_parent(2) == 3
        assert geometry.leaf_parent(3) == 4
        assert geometry.leaf_parent(8) == 6

    def test_leaf_parent_bounds(self):
        geometry = TreeGeometry.paper_shape(2)
        with pytest.raises(ConfigurationError):
            geometry.leaf_parent(0)
        with pytest.raises(ConfigurationError):
            geometry.leaf_parent(9)

    def test_path_to_root_has_depth_plus_one_nodes(self):
        geometry = TreeGeometry.paper_shape(3)
        path = geometry.path_to_root(1)
        assert len(path) == geometry.depth + 1
        assert path[-1] == 0
        assert path[0] == geometry.leaf_parent(1)

    def test_out_of_range_addr_rejected(self):
        geometry = TreeGeometry.paper_shape(2)
        with pytest.raises(ConfigurationError):
            geometry.children(7)
        with pytest.raises(ConfigurationError):
            geometry.children(-1)
        for key in (("node", 1, 5), ("node", 7, 0), ("node", 1, -1), ("leaf", 1)):
            with pytest.raises(ProtocolError):
                geometry.decode(key)


class TestIdentifierScheme:
    def test_intervals_disjoint_and_within_n(self):
        geometry = TreeGeometry.paper_shape(3)
        seen: set[int] = set()
        for node in geometry.all_nodes()[1:]:
            interval = geometry.id_interval(node)
            ids = set(interval)
            assert not ids & seen, f"overlap at {node}"
            seen |= ids
        assert max(seen) == geometry.max_interval_id() == 3 * 3**3
        assert geometry.max_interval_id() <= geometry.leaf_count

    def test_interval_width_shrinks_with_level(self):
        geometry = TreeGeometry.paper_shape(3)
        widths = [
            len(geometry.id_interval(geometry.level_nodes(level)[0]))
            for level in range(1, geometry.depth + 1)
        ]
        assert widths == [9, 3, 1]  # k^(k-i) for i = 1..k

    def test_levels_occupy_disjoint_bands(self):
        geometry = TreeGeometry.paper_shape(2)
        band = geometry.arity**geometry.depth
        for node in geometry.all_nodes()[1:]:
            interval = geometry.id_interval(node)
            level = geometry.level_of(node)
            assert (level - 1) * band < interval.start
            assert interval.stop - 1 <= level * band

    def test_root_has_no_interval(self):
        with pytest.raises(ConfigurationError):
            TreeGeometry.paper_shape(2).id_interval(0)

    def test_initial_workers_unique_among_non_root(self):
        geometry = TreeGeometry.paper_shape(3)
        workers = [geometry.initial_worker(node) for node in geometry.all_nodes()[1:]]
        assert len(workers) == len(set(workers))

    def test_root_initial_worker_is_one(self):
        assert TreeGeometry.paper_shape(4).initial_worker(0) == 1

    def test_processor_requirement_covers_everything(self):
        for k in (2, 3, 4):
            geometry = TreeGeometry.paper_shape(k)
            requirement = geometry.processor_requirement()
            assert requirement >= geometry.leaf_count
            assert requirement >= geometry.max_interval_id()
            assert requirement >= geometry.root_walk_budget()


class TestInitialStateArithmetic:
    """The pid -> initial state maps a late-built worker relies on are
    the exact inverses of the node -> pid maps."""

    SHAPES = [(2, 2), (3, 3), (4, 4), (2, 4), (3, 1), (5, 2)]

    @pytest.mark.parametrize("arity,depth", SHAPES)
    def test_initially_worked_node_inverts_initial_worker(self, arity, depth):
        geometry = TreeGeometry(arity=arity, depth=depth)
        expected = {
            geometry.initial_worker(node): node for node in geometry.all_nodes()[1:]
        }
        assert len(expected) == geometry.total_inner_nodes() - 1
        for pid in range(-1, geometry.processor_requirement() + 3):
            assert geometry.initially_worked_node(pid) == expected.get(pid)

    @pytest.mark.parametrize("arity,depth", SHAPES)
    def test_initial_leaf_parent_worker_skips_no_step(self, arity, depth):
        geometry = TreeGeometry(arity=arity, depth=depth)
        for leaf in range(1, geometry.leaf_count + 1):
            assert geometry.initial_leaf_parent_worker(
                leaf
            ) == geometry.initial_worker(geometry.leaf_parent(leaf))
        for outside in (0, geometry.leaf_count + 1):
            with pytest.raises(ConfigurationError):
                geometry.initial_leaf_parent_worker(outside)


class TestBoundCurve:
    def test_lower_bound_k_solves_the_equation(self):
        for k in (2, 3, 4, 5, 6):
            n = k ** (k + 1)
            assert lower_bound_k(n) == pytest.approx(k, abs=1e-6)

    def test_lower_bound_k_monotone(self):
        values = [lower_bound_k(n) for n in (2, 10, 100, 10_000, 10**8)]
        assert values == sorted(values)

    def test_lower_bound_k_small_n(self):
        assert lower_bound_k(1) == 1.0
        assert lower_bound_k(0) == 1.0

    def test_paper_k_for_matches_for_processors(self):
        for n in (2, 8, 9, 81, 82, 1024, 1025):
            assert paper_k_for(n) == TreeGeometry.for_processors(n).arity

