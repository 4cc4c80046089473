"""Direct tests of the DistributedCounter base-class contract."""

from __future__ import annotations

import pytest

from repro.api import CounterFactory, DistributedCounter
from repro.counters import CentralCounter
from repro.errors import ConfigurationError, ProtocolError
from repro.sim.network import Network
from repro.workloads import one_shot, run_sequence


class TestConstruction:
    def test_nonpositive_n_rejected(self):
        class Dummy(DistributedCounter):
            def begin_inc(self, pid, op_index):
                pass

        with pytest.raises(ConfigurationError):
            Dummy(Network(), 0)
        with pytest.raises(ConfigurationError):
            Dummy(Network(), -3)

    def test_client_ids_is_one_through_n(self):
        counter = CentralCounter(Network(), 7)
        assert list(counter.client_ids()) == [1, 2, 3, 4, 5, 6, 7]

    def test_network_property(self):
        network = Network()
        counter = CentralCounter(network, 3)
        assert counter.network is network
        assert counter.n == 3


class TestResultBookkeeping:
    def test_results_accumulate_in_order(self):
        network = Network()
        counter = CentralCounter(network, 4)
        run_sequence(counter, [2, 2, 2])
        assert counter.results_for(2) == [0, 1, 2]
        assert counter.results_for(3) == []

    def test_last_result_for(self):
        network = Network()
        counter = CentralCounter(network, 4)
        run_sequence(counter, [3, 3])
        assert counter.last_result_for(3) == 1

    def test_last_result_for_empty_raises(self):
        counter = CentralCounter(Network(), 4)
        with pytest.raises(ProtocolError):
            counter.last_result_for(1)

    def test_all_results_collects_everything(self):
        network = Network()
        counter = CentralCounter(network, 4)
        run_sequence(counter, one_shot(4))
        assert sorted(counter.all_results()) == [0, 1, 2, 3]

    def test_results_for_returns_copies(self):
        network = Network()
        counter = CentralCounter(network, 4)
        run_sequence(counter, [1])
        snapshot = counter.results_for(1)
        snapshot.append(999)
        assert counter.results_for(1) == [0]

    def test_result_times_monotone_per_processor(self):
        network = Network()
        counter = CentralCounter(network, 4)
        run_sequence(counter, [2, 2, 2])
        times = counter.result_times_for(2)
        assert times == sorted(times)
        assert len(times) == 3

    def test_release_results_forgets_one_processors_history(self):
        counter = CentralCounter(Network(), 4)
        run_sequence(counter, [2, 3, 2])
        counter.release_results(2)
        counter.release_results(4)  # nothing delivered yet: nothing to do
        assert counter.results_for(2) == [] == counter.result_times_for(2)
        assert counter.results_for(3) == [1]
        with pytest.raises(ProtocolError):
            counter.last_result_for(2)
        # the counter itself is untouched: the next value is still 3
        counter.begin_inc(2, 3)
        counter.network.run_until_quiescent()
        assert counter.results_for(2) == [3]

    def test_on_result_observes_each_value_as_it_is_recorded(self):
        counter = CentralCounter(Network(), 4)
        assert counter.on_result is None
        seen = []

        def observer(pid, value):
            # already recorded when the observer runs
            assert counter.last_result_for(pid) == value
            seen.append((pid, value))

        counter.on_result = observer
        run_sequence(counter, [2, 3, 2])
        assert seen == [(2, 0), (3, 1), (2, 2)]
        counter.on_result = None
        run_sequence(counter, [4], check_values=False)
        assert len(seen) == 3 and counter.results_for(4) == [3]


class TestFactoryProtocol:
    def test_class_is_a_factory(self):
        factory: CounterFactory = CentralCounter
        network = Network()
        counter = factory(network, 5)
        assert isinstance(counter, DistributedCounter)

    def test_lambda_is_a_factory(self):
        factory: CounterFactory = lambda net, n: CentralCounter(
            net, n, server_id=n
        )
        counter = factory(Network(), 5)
        assert counter.server_id == 5
