"""The sharded keyspace over every registered protocol.

``CounterShardMap``'s batching contract — at most one combined
traversal in flight per shard — means *every* registered spec can back
a shard, including sequential-only protocols the live single-counter
service refuses (``arrow``, ``static-tree``).  The matrix here runs
each spec name literally (``ww-tree`` in wrap mode, since a service
repeats operation intervals) through increments, a split, and a merge,
then pins the combining amortization, topology semantics, automatic
rebalancing, and the misuse surface.
"""

from __future__ import annotations

import pytest

from repro.errors import CapabilityError, ConfigurationError
from repro.registry import registered_names
from repro.shard import (
    CounterShardMap,
    RebalancePolicy,
    hash_key,
    validate_key,
)

pytestmark = pytest.mark.shard

# Literal, not computed: tests/test_registry.py greps the shard-marked
# test files for every registered spec name, so a new spec cannot
# register without being added here (the guard test below catches the
# drift).
EVERY_SPEC = (
    "arrow",
    "byz-counter",
    "central",
    "central[standby]",
    "combining-tree",
    "combining-tree[bypass]",
    "counting-network",
    "diffracting-tree",
    "quorum[crumbling-wall]",
    "quorum[maekawa]",
    "quorum[majority]",
    "quorum[singleton]",
    "quorum[tree-paths]",
    "quorum[wheel]",
    "static-tree",
    "ww-tree",
)
CRASH_TOLERANT = ("central[standby]", "combining-tree[bypass]")


def test_every_registered_spec_is_in_the_matrix():
    assert EVERY_SPEC == registered_names()


def _spec_for(name: str) -> str:
    # Strict ww-tree enforces one-shot id discipline; a keyspace
    # repeats operation intervals, so it shards in wrap mode.
    return "ww-tree?interval_mode=wrap" if name == "ww-tree" else name


def _n_for(name: str) -> int:
    # Maekawa quorums require a perfect-square population.
    return 9 if name == "quorum[maekawa]" else 8


class TestEveryRegisteredSpecShards:
    @pytest.mark.parametrize("name", EVERY_SPEC)
    def test_keyed_increments_across_resharding(self, name):
        shard_map = CounterShardMap(
            _spec_for(name), _n_for(name), shards=2, seed=1, batch_max=4
        )
        model: dict[str, int] = {}

        def bump(keys):
            values = shard_map.apply(keys)
            for key, value in zip(keys, values):
                assert value == model.get(key, 0), (name, key)
                model[key] = model.get(key, 0) + 1

        bump([f"k{i % 5}" for i in range(12)])
        shard_map.split(shard_map.router.shard_ids()[0])
        bump([f"k{i % 3}" for i in range(6)])
        survivor, absorbed = shard_map.router.shard_ids()[:2]
        shard_map.merge(survivor, absorbed)
        bump(["k0", "k9"])
        shard_map.verify()
        assert shard_map.snapshot() == model
        assert shard_map.total_ops == 20


class TestBatchCombining:
    def test_window_pays_one_traversal(self):
        # 16 increments, batch_max=8, one shard: exactly two combined
        # traversals (two begin_inc calls), not sixteen.
        shard_map = CounterShardMap("central", 4, shards=1, batch_max=8)
        values = shard_map.apply([f"k{i % 4}" for i in range(16)])
        shard = shard_map.shards()[0]
        assert shard.batches == 2
        assert shard.local_ops == 16
        assert values == [i // 4 for i in range(16)]

    def test_batching_amortizes_message_cost(self):
        # The same workload, combined vs one-op windows: combining must
        # strictly reduce the protocol messages (the paper's Theta(k)
        # traversal paid per batch instead of per increment).
        def messages(batch_max: int) -> int:
            shard_map = CounterShardMap(
                "combining-tree", 8, shards=1, batch_max=batch_max
            )
            shard_map.apply([f"k{i % 4}" for i in range(32)])
            return sum(
                entry["messages"]
                for entry in shard_map.stats()["per_shard"]
            )

        assert messages(32) < messages(1) / 4

    def test_values_decompose_from_the_per_key_ledger(self):
        shard_map = CounterShardMap("central", 4, shards=1, batch_max=8)
        assert shard_map.apply(["a", "b", "a", "a", "b"]) == [
            0, 0, 1, 2, 1,
        ]
        assert shard_map.value_of("a") == 3
        assert shard_map.value_of("b") == 2
        assert shard_map.value_of("never") == 0


class TestTopology:
    def test_split_moves_exactly_the_upper_half_ledger(self):
        shard_map = CounterShardMap("central", 4, shards=1, batch_max=8)
        keys = [f"user:{i}" for i in range(40)]
        shard_map.apply(keys)
        donor = shard_map.router.shard_ids()[0]
        new_id = shard_map.split(donor)
        new_range = shard_map.router.range_of(new_id)
        moved = {k for k in keys if hash_key(k) in new_range}
        assert shard_map.shard(new_id).key_counts == {
            key: 1 for key in moved
        }
        assert set(shard_map.shard(donor).key_counts) == set(keys) - moved
        shard_map.verify()

    def test_merge_absorbs_ledger_and_retires_the_pool(self):
        shard_map = CounterShardMap("central", 4, shards=2, batch_max=8)
        shard_map.apply([f"user:{i}" for i in range(20)])
        survivor, absorbed = shard_map.router.shard_ids()
        absorbed_keys = dict(shard_map.shard(absorbed).key_counts)
        shard_map.merge(survivor, absorbed)
        assert shard_map.shard_count == 1
        for key, count in absorbed_keys.items():
            assert shard_map.shard(survivor).key_counts[key] == count
        with pytest.raises(ConfigurationError, match="unknown shard"):
            shard_map.shard(absorbed)
        shard_map.verify()
        assert shard_map.total_ops == 20

    @pytest.mark.parametrize("name", CRASH_TOLERANT)
    def test_failover_drills_and_service_continues(self, name):
        shard_map = CounterShardMap(name, 8, shards=2, batch_max=4)
        shard_map.apply([f"k{i}" for i in range(8)])
        for shard_id in shard_map.router.shard_ids():
            shard_map.failover(shard_id)
        shard_map.apply([f"k{i}" for i in range(8)])
        shard_map.verify()
        assert shard_map.stats()["failovers"] == 2
        assert shard_map.total_ops == 16

    def test_failover_refused_without_crash_tolerance(self):
        shard_map = CounterShardMap("central", 4, shards=1)
        with pytest.raises(CapabilityError, match="does not tolerate"):
            shard_map.failover(shard_map.router.shard_ids()[0])


class TestRebalancePolicy:
    def test_hot_spot_splits(self):
        shard_map = CounterShardMap(
            "central",
            4,
            shards=1,
            batch_max=4,
            rebalance=RebalancePolicy(window=8, split_share=0.6),
        )
        shard_map.apply(["hot"] * 8)  # 100% share on one shard
        assert shard_map.shard_count == 2
        assert shard_map.stats()["splits"] == 1
        shard_map.verify()

    def test_cold_neighbors_merge_when_splitting_is_capped(self):
        shard_map = CounterShardMap(
            "central",
            4,
            shards=4,
            batch_max=4,
            rebalance=RebalancePolicy(
                window=8, split_share=0.6, merge_share=0.1, max_shards=4
            ),
        )
        # all traffic on one key: the hot shard cannot split (at
        # max_shards), so the coldest adjacent zero-traffic pair merges
        shard_map.apply(["hot"] * 8)
        assert shard_map.shard_count == 3
        assert shard_map.stats()["merges"] == 1
        shard_map.verify()

    def test_no_action_before_the_window_fills(self):
        shard_map = CounterShardMap(
            "central",
            4,
            shards=1,
            batch_max=4,
            rebalance=RebalancePolicy(window=64, split_share=0.6),
        )
        shard_map.apply(["hot"] * 8)
        assert shard_map.shard_count == 1
        assert shard_map.maybe_rebalance() == []

    def test_policy_validation(self):
        for bad in (
            dict(window=0),
            dict(split_share=0.0),
            dict(split_share=1.5),
            dict(merge_share=1.0),
            dict(min_shards=0),
            dict(min_shards=8, max_shards=4),
        ):
            with pytest.raises(ConfigurationError):
                RebalancePolicy(**bad)


class TestMisuseSurface:
    def test_key_validation(self):
        for bad in ("", "has space", "bang!", "k" * 129, "tab\tkey"):
            with pytest.raises(ConfigurationError, match="illegal"):
                validate_key(bad)
        assert validate_key("A-ok_1.2:3") == "A-ok_1.2:3"

    def test_batch_windows_are_validated_before_mutation(self):
        shard_map = CounterShardMap("central", 4, shards=2, batch_max=2)
        shard_id = shard_map.locate("mine")
        other = next(
            s for s in shard_map.router.shard_ids() if s != shard_id
        )
        with pytest.raises(ConfigurationError, match="at least one op"):
            shard_map.begin_batch(shard_id, [])
        with pytest.raises(ConfigurationError, match="exceeds batch_max"):
            shard_map.begin_batch(shard_id, [("mine", None)] * 3)
        with pytest.raises(ConfigurationError, match="belongs to shard"):
            shard_map.begin_batch(other, [("mine", None)])
        # nothing leaked into any ledger from the rejected windows
        assert shard_map.snapshot() == {}

    def test_one_batch_in_flight_per_shard(self):
        shard_map = CounterShardMap("central", 4, shards=1, batch_max=4)
        shard_id = shard_map.router.shard_ids()[0]
        batch = shard_map.begin_batch(shard_id, [("k", None)])
        with pytest.raises(ConfigurationError, match="strictly sequential"):
            shard_map.begin_batch(shard_id, [("k", None)])
        for action in (
            lambda: shard_map.split(shard_id),
            lambda: shard_map.merge(shard_id, shard_id),
            lambda: shard_map.failover(shard_id),
        ):
            with pytest.raises(ConfigurationError, match="in flight"):
                action()
        shard_map.shard(shard_id).session.runtime.until_quiescent()
        shard_map.settle_batch(batch)
        with pytest.raises(ConfigurationError, match="no batch in flight"):
            shard_map.settle_batch(batch)

    def test_settle_requires_a_drained_runtime(self):
        shard_map = CounterShardMap("central", 4, shards=1, batch_max=4)
        shard_id = shard_map.router.shard_ids()[0]
        batch = shard_map.begin_batch(shard_id, [("k", None)])
        with pytest.raises(ConfigurationError, match="drain the shard"):
            shard_map.settle_batch(batch)

    def test_bad_batch_max(self):
        with pytest.raises(ConfigurationError, match="batch_max"):
            CounterShardMap("central", 4, batch_max=0)


class TestIntrospection:
    def test_stats_and_fingerprints(self):
        shard_map = CounterShardMap("central", 4, shards=2, batch_max=4)
        shard_map.apply([f"k{i}" for i in range(10)])
        stats = shard_map.stats()
        assert stats["spec"] == "central"
        assert stats["shards"] == 2
        assert stats["ops"] == 10
        assert stats["keys"] == 10
        assert len(stats["per_shard"]) == 2
        assert sum(e["ops"] for e in stats["per_shard"]) == 10
        fingerprints = shard_map.fingerprints()
        assert set(fingerprints) == set(shard_map.router.shard_ids())
        assert all(fp is not None for fp in fingerprints.values())

    def test_settled_batches_leave_no_per_op_trace_columns_at_loads(self):
        keys = [f"k{i % 97}" for i in range(10_000)]
        maps = {
            level: CounterShardMap(
                "central", 4, shards=2, batch_max=1, trace_level=level
            )
            for level in ("LOADS", "FULL")
        }
        for shard_map in maps.values():
            assert shard_map.apply(keys) == [i // 97 for i in range(10_000)]
        for lean, full in zip(maps["LOADS"].shards(), maps["FULL"].shards()):
            assert lean.batches == full.batches > 1_000
            lean_trace = lean.session.network.trace
            full_trace = full.session.network.trace
            assert lean_trace.op_indices() == []
            # FULL keeps them: the fingerprint hashes every record
            # (batches the hub initiates itself send nothing)
            assert len(full_trace.op_indices()) > 1_000
            assert lean_trace.total_messages == full_trace.total_messages
            assert lean.load_profile() == full.load_profile()

    def test_settled_batches_leave_no_result_history(self):
        """The shard reads each value through its own hook and pops it
        at settle, and the counter keeps none, so 10 000 batches leave
        no stored result and no per-op trace entry behind."""
        shard_map = CounterShardMap(
            "ww-tree?interval_mode=wrap", 8, shards=2, batch_max=1,
            trace_level="LOADS",
        )
        keys = [f"k{i % 97}" for i in range(10_000)]
        assert shard_map.apply(keys) == [i // 97 for i in range(10_000)]
        for shard in shard_map.shards():
            counter = shard.session.counter
            assert shard.batches > 1_000
            assert counter.value == shard.batches
            assert shard.delivered == {}
            assert shard.session.network.trace.op_indices() == []

    def test_loads_trace_level_disables_fingerprints(self):
        shard_map = CounterShardMap(
            "central", 4, shards=2, trace_level="LOADS"
        )
        shard_map.apply(["k"])
        assert all(
            fp is None for fp in shard_map.fingerprints().values()
        )
