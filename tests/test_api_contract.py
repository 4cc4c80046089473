"""Direct tests of the DistributedCounter base-class contract."""

from __future__ import annotations

import pytest

from repro.api import CounterFactory, DistributedCounter
from repro.counters import CentralCounter
from repro.errors import ConfigurationError
from repro.sim.network import Network
from repro.workloads import one_shot, run_concurrent, run_open_loop, run_sequence

from conftest import all_values, observed, values


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


def _inc(counter, initiators):
    """Drive *counter* by hand, quiescing after each inc."""
    for op_index, pid in enumerate(initiators):
        counter.begin_inc(pid, op_index)
        counter.network.run_until_quiescent()


class TestResultBookkeeping:
    """The counter keeps no history: every value leaves through
    ``on_result``, and whoever installed the observer keeps the record."""

    def test_results_accumulate_in_order(self):
        counter = CentralCounter(Network(), 4)
        received = observed(counter)
        _inc(counter, [2, 2, 2])
        assert values(received, 2) == [0, 1, 2]
        assert values(received, 3) == []
        result = run_sequence(CentralCounter(Network(), 4), [2, 2, 2])
        assert [(o.initiator, o.value) for o in result.outcomes] == [
            (2, 0), (2, 1), (2, 2)
        ]

    def test_all_results_collects_everything(self):
        counter = CentralCounter(Network(), 4)
        received = observed(counter)
        _inc(counter, one_shot(4))
        assert all_values(received) == [0, 1, 2, 3]
        assert vars(counter).keys() == vars(CentralCounter(Network(), 4)).keys()

    def test_result_times_monotone_per_processor(self):
        network = Network()
        counter = CentralCounter(network, 4)
        received = observed(counter)
        _inc(counter, [2, 2, 2])
        times = [time for _, time in received.by_pid[2]]
        assert times == sorted(times)
        assert len(times) == 3

    def test_on_result_observes_each_value_as_it_is_recorded(self):
        counter = CentralCounter(Network(), 4)
        assert counter.on_result is None
        seen = []
        counter.on_result = lambda pid, value: seen.append((pid, value))
        _inc(counter, [2, 3, 2])
        assert seen == [(2, 0), (3, 1), (2, 2)]
        # a driver observes through its own record for its run, then
        # puts the previous observer back
        run_sequence(counter, [4], check_values=False)
        run_concurrent(counter, [[1, 2]], check_values=False)
        run_open_loop(counter, [0.0, 0.0], check_values=False)
        assert len(seen) == 3
        counter.begin_inc(1, 9)
        counter.network.run_until_quiescent()
        assert seen[3:] == [(1, 8)]


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
