"""Property-based tests for the paper's tree counter itself.

Hypothesis drives random sub-workloads, orders and delivery seeds
through the full counter and asserts the §4 lemma checkers plus global
conservation laws on every execution.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TreeCounter, TreeGeometry
from repro.core.invariants import check_all
from repro.lowerbound import check_hot_spot
from repro.sim.network import Network
from repro.sim.policies import RandomDelay, UnitDelay
from repro.workloads import run_sequence


@settings(max_examples=25, deadline=None)
@given(
    k=st.integers(2, 3),
    order_seed=st.integers(0, 10_000),
    subset_fraction=st.floats(0.3, 1.0),
    delivery_seed=st.one_of(st.none(), st.integers(0, 10_000)),
)
def test_lemmas_hold_on_arbitrary_one_shot_subsets(
    k, order_seed, subset_fraction, delivery_seed
):
    """Any subset of processors, any order, any delays: lemmas hold.

    The paper's bound is for the full one-shot workload; a prefix/subset
    only lowers traffic, so every lemma must still pass.
    """
    import random

    n = k ** (k + 1)
    rng = random.Random(order_seed)
    population = list(range(1, n + 1))
    rng.shuffle(population)
    subset = population[: max(1, int(subset_fraction * n))]
    policy = UnitDelay() if delivery_seed is None else RandomDelay(seed=delivery_seed)
    network = Network(policy=policy)
    counter = TreeCounter(network, n)
    result = run_sequence(counter, subset)

    assert result.values() == list(range(len(subset)))
    for report in check_all(counter, result):
        assert report.holds, f"{report.lemma}: {report.detail}"
    assert check_hot_spot(result).holds
    # Conservation: every send has exactly one receive.
    assert sum(result.trace.loads().values()) == 2 * result.total_messages


@settings(max_examples=15, deadline=None)
@given(k=st.integers(2, 3), seed=st.integers(0, 10_000))
def test_roles_never_alias_after_any_run(k, seed):
    """No two inner nodes ever share a worker (the id discipline)."""
    import random

    n = k ** (k + 1)
    order = list(range(1, n + 1))
    random.Random(seed).shuffle(order)
    network = Network()
    counter = TreeCounter(network, n)
    run_sequence(counter, order)
    workers = [
        role.worker
        for role in counter.registry.all_roles()
        if not role.is_root
    ]
    assert len(workers) == len(set(workers))


@settings(max_examples=15, deadline=None)
@given(k=st.integers(2, 3), seed=st.integers(0, 10_000))
def test_message_kinds_are_closed(k, seed):
    """Only the four §4 message kinds ever appear on the wire."""
    import random

    n = k ** (k + 1)
    order = list(range(1, n + 1))
    random.Random(seed).shuffle(order)
    network = Network(policy=RandomDelay(seed=seed))
    counter = TreeCounter(network, n)
    run_sequence(counter, order)
    kinds = {record.kind for record in network.trace.records}
    assert kinds <= {"inc", "value", "handoff", "id-update"}


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_causality_send_before_delivery(seed):
    """Every record is delivered strictly after it was sent."""
    network = Network(policy=RandomDelay(seed=seed))
    counter = TreeCounter(network, 27)
    run_sequence(counter, list(range(1, 28)))
    for record in network.trace.records:
        assert record.deliver_time > record.send_time


@settings(max_examples=10, deadline=None)
@given(
    arity=st.integers(2, 4),
    depth=st.integers(1, 3),
    seed=st.integers(0, 1000),
)
def test_generalized_shapes_count_correctly(arity, depth, seed):
    """Non-paper shapes (the E10 family) still count correctly."""
    import random

    from repro.core import IntervalMode, TreePolicy

    geometry = TreeGeometry(arity=arity, depth=depth)
    n = min(geometry.leaf_count, 64)
    order = list(range(1, n + 1))
    random.Random(seed).shuffle(order)
    network = Network()
    counter = TreeCounter(
        network,
        n,
        geometry=geometry,
        policy=TreePolicy(
            retire_threshold=4 * arity, interval_mode=IntervalMode.WRAP
        ),
    )
    result = run_sequence(counter, order)
    assert result.values() == list(range(n))
