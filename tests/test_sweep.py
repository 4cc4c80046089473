"""The sweep runner: parallel == serial, and the cache is transparent."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.workloads import SweepOutcome, SweepPoint, SweepRunner, execute_point

E7_GRID = [
    SweepPoint(counter=counter, n=n)
    for counter in ("central", "static-tree", "ww-tree")
    for n in (8, 27)
]


class TestSweepPoint:
    def test_hash_is_stable_and_distinct(self):
        a = SweepPoint(counter="central", n=8)
        b = SweepPoint(counter="central", n=8)
        c = SweepPoint(counter="central", n=16)
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()

    def test_unknown_counter_rejected(self):
        with pytest.raises(ConfigurationError):
            execute_point(SweepPoint(counter="nonesuch", n=8))

    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigurationError):
            execute_point(SweepPoint(counter="central", n=8, workload="storm"))

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            execute_point(SweepPoint(counter="central", n=8, policy="warp"))

    def test_unknown_transport_rejected(self):
        with pytest.raises(ConfigurationError):
            execute_point(SweepPoint(counter="central", n=8, transport="udp"))

    @pytest.mark.faults
    def test_equivalent_fault_spellings_share_a_hash(self):
        a = SweepPoint(counter="central", n=8, faults="dup=0.01,drop=0.05")
        b = SweepPoint(counter="central", n=8, faults="drop=0.05, dup=0.01")
        c = SweepPoint(counter="central", n=8, faults="drop=0.1")
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()
        assert a.config_hash() != SweepPoint(counter="central", n=8).config_hash()

    @pytest.mark.faults
    def test_faulty_point_reports_transport_extras(self):
        point = SweepPoint(
            counter="central",
            n=8,
            policy="random",
            faults="drop=0.1",
            transport="reliable",
        )
        outcome = execute_point(point)
        assert outcome.extras["transport"]["delivered"] > 0
        assert sum(outcome.extras["fault_counts"].values()) >= 0
        assert outcome.operations == 8


class TestSerialVsParallel:
    def test_e7_grid_identical(self):
        serial = SweepRunner(workers=1).run(E7_GRID)
        parallel = SweepRunner(workers=3).run(E7_GRID)
        assert serial == parallel

    def test_results_in_input_order(self):
        outcomes = SweepRunner(workers=2).run(E7_GRID)
        assert [o.point for o in outcomes] == E7_GRID

    def test_workers_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            SweepRunner(workers=0)


class TestSerialFallback:
    def _spy_fan_out(self, monkeypatch):
        import repro.workloads.sweep as sweep_module

        calls = []
        original = sweep_module.fan_out

        def spy(fn, items, workers):
            calls.append(workers)
            return original(fn, items, workers)

        monkeypatch.setattr(sweep_module, "fan_out", spy)
        return calls

    def test_small_grid_runs_serially(self, monkeypatch):
        calls = self._spy_fan_out(monkeypatch)
        grid = E7_GRID[:3]  # below the default threshold of 8
        SweepRunner(workers=4).run(grid)
        assert calls == [1]

    def test_large_grid_keeps_requested_workers(self, monkeypatch):
        calls = self._spy_fan_out(monkeypatch)
        grid = [
            SweepPoint(counter="central", n=n) for n in (8, 9, 10, 11, 12, 13, 14, 15)
        ]
        SweepRunner(workers=4).run(grid)
        assert calls == [4]

    def test_threshold_zero_never_falls_back(self, monkeypatch):
        calls = self._spy_fan_out(monkeypatch)
        SweepRunner(workers=2, serial_threshold=0).run(E7_GRID[:1])
        assert calls == [2]

    def test_threshold_counts_uncached_points_only(self, tmp_path, monkeypatch):
        grid = [SweepPoint(counter="central", n=n) for n in range(8, 17)]
        SweepRunner(cache_dir=tmp_path).run(grid[:6])
        calls = self._spy_fan_out(monkeypatch)
        # 9 requested, 6 already cached: only 3 need computing → serial.
        SweepRunner(workers=4, cache_dir=tmp_path, serial_threshold=5).run(grid)
        assert calls == [1]

    def test_negative_threshold_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepRunner(serial_threshold=-1)

    def test_fallback_results_match_parallel(self):
        grid = E7_GRID[:4]
        fallback = SweepRunner(workers=3).run(grid)  # 4 < 8 → serial
        forced = SweepRunner(workers=3, serial_threshold=0).run(grid)
        assert fallback == forced


class TestOutcome:
    def test_central_counter_measurements(self):
        outcome = execute_point(SweepPoint(counter="central", n=8))
        # Sequential central counter: 2 messages per op, server load 2(n-1).
        assert outcome.operations == 8
        assert outcome.total_messages == 14
        assert outcome.bottleneck_load == 14
        assert outcome.messages_per_op == pytest.approx(14 / 8)

    def test_tree_extras_present(self):
        outcome = execute_point(SweepPoint(counter="ww-tree", n=8))
        assert set(outcome.extras) == {"retirements", "root_ids_used", "forwarded"}

    def test_json_round_trip(self):
        outcome = execute_point(SweepPoint(counter="central", n=8))
        restored = SweepOutcome.from_json(
            json.loads(json.dumps(outcome.to_json()))
        )
        assert restored == outcome
        assert all(isinstance(pid, int) for pid in restored.loads)

    def test_seeded_workload_changes_order_not_load_totals(self):
        base = execute_point(SweepPoint(counter="central", n=8))
        shuf = execute_point(
            SweepPoint(counter="central", n=8, workload="shuffled", seed=3)
        )
        assert base.total_messages == shuf.total_messages


class TestCache:
    def test_cache_hit_avoids_recompute(self, tmp_path, monkeypatch):
        runner = SweepRunner(cache_dir=tmp_path)
        first = runner.run(E7_GRID)
        assert len(list(tmp_path.glob("*.json"))) == len(E7_GRID)

        import repro.workloads.sweep as sweep_module

        def boom(point):
            raise AssertionError("cache miss on a cached point")

        monkeypatch.setattr(sweep_module, "execute_point", boom)
        second = SweepRunner(cache_dir=tmp_path).run(E7_GRID)
        assert second == first

    def test_corrupt_cache_entry_recomputed(self, tmp_path):
        runner = SweepRunner(cache_dir=tmp_path)
        point = SweepPoint(counter="central", n=8)
        (tmp_path / f"{point.config_hash()}.json").write_text("{not json")
        outcome = runner.run([point])[0]
        assert outcome.bottleneck_load == 14

    @pytest.mark.parametrize(
        "entry", ["{}", '{"point": {"counter": "central"}}', "[1, 2]"]
    )
    def test_parseable_but_wrong_cache_entry_recomputed(self, tmp_path, entry):
        runner = SweepRunner(cache_dir=tmp_path)
        point = SweepPoint(counter="central", n=8)
        path = tmp_path / f"{point.config_hash()}.json"
        path.write_text(entry)
        outcome = runner.run([point])[0]
        assert outcome.bottleneck_load == 14
        assert SweepOutcome.from_json(json.loads(path.read_text())) == outcome

    def test_cache_respects_trace_level_in_key(self, tmp_path):
        runner = SweepRunner(cache_dir=tmp_path)
        runner.run([SweepPoint(counter="central", n=8)])
        runner.run([SweepPoint(counter="central", n=8, trace_level="full")])
        assert len(list(tmp_path.glob("*.json"))) == 2
