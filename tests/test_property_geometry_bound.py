"""Property-based tests for tree geometry and the bound arithmetic."""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TreeGeometry, lower_bound_k
from repro.lowerbound import (
    LedgerStep,
    am_gm_holds,
    evaluate_ledger,
    message_load_bound,
    paper_n,
)

shapes = st.tuples(st.integers(2, 5), st.integers(1, 4))


class TestGeometryProperties:
    @given(shape=shapes)
    def test_leaf_partition(self, shape):
        """Last-level nodes partition the leaves exactly."""
        arity, depth = shape
        geometry = TreeGeometry(arity=arity, depth=depth)
        seen: list[int] = []
        for node in geometry.level_nodes(depth):
            seen.extend(geometry.leaf_children(node))
        assert seen == list(range(1, geometry.leaf_count + 1))

    @given(shape=shapes, leaf=st.integers(0, 10_000))
    def test_path_to_root_is_consistent(self, shape, leaf):
        arity, depth = shape
        geometry = TreeGeometry(arity=arity, depth=depth)
        pid = (leaf % geometry.leaf_count) + 1
        path = geometry.path_to_root(pid)
        assert path[-1] == 0
        assert len(path) == depth + 1
        for lower, upper in zip(path, path[1:]):
            assert geometry.parent(lower) == upper
            assert lower in geometry.children(upper)

    @given(shape=shapes)
    def test_intervals_pairwise_disjoint(self, shape):
        arity, depth = shape
        geometry = TreeGeometry(arity=arity, depth=depth)
        seen: set[int] = set()
        for node in geometry.all_nodes()[1:]:
            ids = set(geometry.id_interval(node))
            assert not (ids & seen)
            seen |= ids

    @given(shape=shapes)
    def test_interval_sizes_sum_to_band_per_level(self, shape):
        arity, depth = shape
        geometry = TreeGeometry(arity=arity, depth=depth)
        for level in range(1, depth + 1):
            total = sum(
                len(geometry.id_interval(node)) for node in geometry.level_nodes(level)
            )
            assert total == arity**depth

    @given(k=st.integers(2, 6))
    def test_paper_shape_identity(self, k):
        geometry = TreeGeometry.paper_shape(k)
        assert geometry.leaf_count == paper_n(k)
        assert geometry.max_interval_id() == paper_n(k)


class TestBoundProperties:
    @given(n=st.integers(2, 10**9))
    def test_bound_inverse_consistency(self, n):
        """k(n) satisfies k·kᵏ ≈ n within bisection tolerance."""
        k = lower_bound_k(n)
        assert abs((k + 1) * math.log(k) - math.log(n)) < 1e-6

    @given(n=st.integers(1, 10**7))
    def test_floor_bound_is_sound(self, n):
        assert message_load_bound(n) <= lower_bound_k(n) + 1e-6

    @given(a=st.integers(2, 10**6), b=st.integers(2, 10**6))
    def test_monotone(self, a, b):
        low, high = min(a, b), max(a, b)
        assert lower_bound_k(low) <= lower_bound_k(high) + 1e-9


ledger_steps = st.lists(
    st.tuples(
        st.lists(st.integers(1, 30), min_size=1, max_size=8),
        st.dictionaries(st.integers(1, 30), st.integers(0, 50), max_size=10),
    ),
    min_size=1,
    max_size=20,
)


class TestWeightProperties:
    @settings(max_examples=100)
    @given(raw=ledger_steps, base=st.floats(1.5, 16.0))
    def test_am_gm_always_holds(self, raw, base):
        """The proof's AM–GM step is pure arithmetic: true on ANY ledger."""
        steps = [
            LedgerStep(
                op_index=index,
                q_list=tuple(labels),
                chosen_list_length=len(labels) - 1,
                loads_before=loads,
            )
            for index, (labels, loads) in enumerate(raw)
        ]
        report = evaluate_ledger(steps, base=base)
        assert am_gm_holds(report)

    @settings(max_examples=100)
    @given(raw=ledger_steps, base=st.floats(1.5, 16.0))
    def test_weights_nonnegative_and_bounded(self, raw, base):
        steps = [
            LedgerStep(
                op_index=index,
                q_list=tuple(labels),
                chosen_list_length=len(labels) - 1,
                loads_before=loads,
            )
            for index, (labels, loads) in enumerate(raw)
        ]
        report = evaluate_ledger(steps, base=base)
        max_load = max(
            (m for _, loads in raw for m in loads.values()), default=0
        )
        # w <= (max_load+1) * Σ base^-j < (max_load+1) * 1/(base-1).
        ceiling = (max_load + 1) / (base - 1.0)
        for weight in report.weights:
            assert 0.0 <= weight <= ceiling + 1e-9
