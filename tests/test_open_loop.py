"""Tests for open-loop driving: arrivals, the driver, knee detection.

Open-loop means arrivals are fixed before the run and injected on
schedule no matter how far behind the counter is — the regime where the
paper's bottleneck shows up as a latency knee rather than a polite
slowdown.
"""

from __future__ import annotations

import pytest

from repro.analysis.latency import detect_knee
from repro.counters import CentralCounter
from repro.errors import CapabilityError, ConfigurationError, ProtocolError
from repro.registry import RunSession
from repro.sim.network import Network
from repro.workloads import (
    ARRIVAL_PROCESSES,
    OpenLoopResult,
    arrival_times,
    bursty_arrivals,
    poisson_arrivals,
    run_open_loop,
)


class TestArrivalProcesses:
    def test_poisson_basic_shape(self):
        offsets = poisson_arrivals(200, rate=5.0, seed=1)
        assert len(offsets) == 200
        assert offsets == sorted(offsets)
        assert offsets[0] >= 0.0
        # mean inter-arrival ~ 1/rate: the 200th arrival lands near 40
        assert 20.0 < offsets[-1] < 80.0

    def test_poisson_deterministic_per_seed(self):
        assert poisson_arrivals(50, 2.0, seed=7) == poisson_arrivals(
            50, 2.0, seed=7
        )
        assert poisson_arrivals(50, 2.0, seed=7) != poisson_arrivals(
            50, 2.0, seed=8
        )

    def test_bursty_same_mean_heavier_tail(self):
        rate = 4.0
        poisson = poisson_arrivals(4000, rate, seed=3)
        bursty = bursty_arrivals(4000, rate, seed=3)
        poisson_mean = poisson[-1] / len(poisson)
        bursty_mean = bursty[-1] / len(bursty)
        # Pareto inter-arrivals are scaled to the same mean rate...
        assert bursty_mean == pytest.approx(poisson_mean, rel=0.35)
        # ...but the largest single gap is burstier than exponential's
        gaps = lambda xs: [b - a for a, b in zip(xs, xs[1:])]  # noqa: E731
        assert max(gaps(bursty)) > max(gaps(poisson))

    def test_dispatcher_covers_registered_processes(self):
        assert set(ARRIVAL_PROCESSES) == {"poisson", "bursty"}
        for process in ARRIVAL_PROCESSES:
            offsets = arrival_times(process, 10, 2.0, seed=1)
            assert len(offsets) == 10
        with pytest.raises(ConfigurationError, match="arrival process"):
            arrival_times("uniform", 10, 2.0)

    @pytest.mark.parametrize("bad", [0, -3])
    def test_ops_must_be_positive(self, bad):
        with pytest.raises(ConfigurationError):
            poisson_arrivals(bad, 1.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_rate_must_be_positive(self, bad):
        with pytest.raises(ConfigurationError):
            bursty_arrivals(10, bad)


class TestKneeDetection:
    def test_finds_first_rate_past_threshold(self):
        rates = [1.0, 2.0, 4.0, 8.0]
        latencies = [2.0, 2.2, 7.0, 40.0]
        assert detect_knee(rates, latencies) == 4.0

    def test_none_when_flat(self):
        assert detect_knee([1.0, 2.0, 4.0], [2.0, 2.1, 2.3]) is None

    def test_zero_baseline_uses_first_nonzero(self):
        assert detect_knee([1.0, 2.0, 4.0], [0.0, 0.0, 3.0]) == 4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            detect_knee([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            detect_knee([2.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            detect_knee([1.0, 2.0], [1.0, 1.0], threshold=1.0)


class TestOpenLoopDriver:
    def test_values_are_a_permutation(self):
        network = Network()
        counter = CentralCounter(network, 8)
        result = run_open_loop(counter, poisson_arrivals(24, 2.0, seed=1))
        assert isinstance(result, OpenLoopResult)
        assert sorted(result.values()) == list(range(24))
        assert result.operation_count == 24

    def test_latency_includes_queueing(self):
        network = Network()
        counter = CentralCounter(network, 2)
        # 8 simultaneous arrivals onto 2 clients: later ops queue
        result = run_open_loop(counter, [0.0] * 8)
        waits = [o.queueing_delay for o in result.outcomes]
        assert min(waits) == 0.0
        assert max(waits) > 0.0
        for outcome in result.outcomes:
            assert outcome.latency == pytest.approx(
                outcome.queueing_delay + outcome.service_time
            )

    def test_turnaround_zero_allows_immediate_reuse(self):
        network = Network()
        counter = CentralCounter(network, 2)
        result = run_open_loop(counter, [0.0] * 6, turnaround=0.0)
        assert sorted(result.values()) == list(range(6))

    def test_turnaround_must_be_nonnegative(self):
        counter = CentralCounter(Network(), 2)
        with pytest.raises(ValueError, match="turnaround"):
            run_open_loop(counter, [0.0], turnaround=-1.0)

    def test_arrivals_must_be_ascending(self):
        counter = CentralCounter(Network(), 2)
        with pytest.raises(ValueError, match="ascending"):
            run_open_loop(counter, [1.0, 0.5])

    def test_result_hook_restored_after_run(self):
        network = Network()
        counter = CentralCounter(network, 4)
        seen = []
        observer = lambda pid, value: seen.append(value)
        counter.on_result = observer
        run_open_loop(counter, poisson_arrivals(8, 2.0, seed=2))
        assert "deliver_result" not in counter.__dict__
        # the driver borrowed the one observer slot and gave it back
        assert counter.on_result is observer
        assert seen == []

    def test_percentiles_and_throughput(self):
        network = Network()
        counter = CentralCounter(network, 8)
        result = run_open_loop(counter, poisson_arrivals(40, 4.0, seed=5))
        lats = sorted(result.latencies())
        assert result.latency_percentile(0.0) == lats[0]
        assert result.latency_percentile(1.0) == lats[-1]
        assert lats[0] <= result.latency_percentile(0.5) <= lats[-1]
        assert result.throughput > 0.0
        assert result.mean_latency == pytest.approx(
            sum(lats) / len(lats)
        )

    def test_sequential_only_counter_rejected(self):
        session = RunSession("arrow", 8)
        with pytest.raises(CapabilityError):
            run_open_loop(session.counter, [0.0, 1.0])

    def test_strict_ww_tree_interval_exhaustion_is_loud(self):
        """Strict mode enforces one-shot ids; repeated load must say so."""
        session = RunSession("ww-tree", 8)
        with pytest.raises(ProtocolError, match="IntervalMode.WRAP"):
            session.run_open_loop(ops=64, rate=8.0)


class TestSessionOpenLoop:
    def test_defaults_to_two_ops_per_client(self):
        session = RunSession("central", 8)
        result = session.run_open_loop(rate=2.0)
        assert result.operation_count == 16
        assert sorted(result.values()) == list(range(16))
        assert result.counter_name == "central"
        assert result.n == 8

    def test_bursty_process_supported(self):
        session = RunSession("central", 8)
        result = session.run_open_loop(ops=12, rate=2.0, process="bursty")
        assert sorted(result.values()) == list(range(12))

    def test_wrap_mode_ww_tree_sustains_repeated_load(self):
        session = RunSession("ww-tree?interval_mode=wrap", 27)
        result = session.run_open_loop(ops=108, rate=10.0)
        assert sorted(result.values()) == list(range(108))

    def test_asyncio_runtime_produces_identical_outcomes(self):
        sim = RunSession("central", 8)
        aio = RunSession("central", 8, runtime="asyncio")
        sim_result = sim.run_open_loop(ops=24, rate=3.0)
        aio_result = aio.run_open_loop(ops=24, rate=3.0)
        assert [
            (o.op_index, o.initiator, o.value, o.completion_time)
            for o in sim_result.outcomes
        ] == [
            (o.op_index, o.initiator, o.value, o.completion_time)
            for o in aio_result.outcomes
        ]
        assert (
            sim.network.trace.fingerprint()
            == aio.network.trace.fingerprint()
        )

    def test_saturation_raises_latency(self):
        """Offered load far past capacity must show up in mean latency."""
        low = RunSession("central", 8).run_open_loop(ops=40, rate=0.5)
        high = RunSession("central", 8).run_open_loop(ops=40, rate=50.0)
        assert high.mean_latency > 3.0 * low.mean_latency

    def test_knee_detected_across_a_sweep(self):
        rates = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
        means = []
        for rate in rates:
            session = RunSession("central", 8)
            means.append(
                session.run_open_loop(ops=48, rate=rate).mean_latency
            )
        knee = detect_knee(rates, means)
        assert knee is not None
        # capacity ~ n / (service + turnaround) = 8/3: knee lands past it
        assert knee >= 2.0
