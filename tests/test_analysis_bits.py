"""Tests for message-size accounting (the O(log n)-bit claim)."""

from __future__ import annotations

import math

import pytest

from repro.analysis.bits import BitLoadAnalyzer, value_bits
from repro.core import TreeCounter
from repro.counters import CentralCounter
from repro.sim.faults import parse_fault_spec
from repro.sim.network import Network
from repro.workloads import one_shot, run_sequence


class TestValueBits:
    def test_small_ints(self):
        assert value_bits(0) == 2  # 1 magnitude + 1 sign
        assert value_bits(1) == 2
        assert value_bits(255) == 9

    def test_int_grows_logarithmically(self):
        assert value_bits(2**40) == 42

    def test_negative_int(self):
        assert value_bits(-5) == value_bits(5)

    def test_bool_and_none(self):
        assert value_bits(True) == 1
        assert value_bits(None) == 1

    def test_float(self):
        assert value_bits(1.5) == 64

    def test_string_utf8(self):
        assert value_bits("inc") == 24

    def test_containers_sum(self):
        assert value_bits([1, 2]) == value_bits(1) + value_bits(2) + 4
        assert value_bits({"a": 1}) == value_bits("a") + value_bits(1) + 2

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            value_bits(object())


class TestBitLoadAnalyzer:
    def _analyze(self, factory, n):
        network = Network()
        analyzer = BitLoadAnalyzer(n)
        analyzer.attach(network)
        counter = factory(network, n)
        result = run_sequence(counter, one_shot(n))
        return analyzer, result

    def test_observes_every_message(self):
        analyzer, result = self._analyze(CentralCounter, 16)
        assert analyzer.message_count == result.total_messages

    def test_installing_a_fault_plan_keeps_the_analyzer_attached(self):
        network = Network()
        analyzer = BitLoadAnalyzer(8)
        analyzer.attach(network)
        network.install_fault_plan(parse_fault_spec("dup=0.0"))
        result = run_sequence(CentralCounter(network, 8), one_shot(8))
        assert result.total_messages > 0
        assert analyzer.message_count == result.total_messages

    def test_bit_bottleneck_matches_message_bottleneck_for_central(self):
        analyzer, result = self._analyze(CentralCounter, 16)
        assert analyzer.bit_bottleneck()[0] == result.bottleneck_processor()

    def test_tree_messages_are_logarithmic(self):
        """The paper's claim: every tree message is O(log n) bits."""
        for n in (81, 1024):
            analyzer, _ = self._analyze(TreeCounter, n)
            # Generous constant: kind tag + addressing + a few ids.
            assert analyzer.max_message_bits <= 60 * math.log2(n)

    def test_max_message_size_grows_sublinearly(self):
        small, _ = self._analyze(TreeCounter, 81)
        large, _ = self._analyze(TreeCounter, 1024)
        # n grew 12.6x; message size must grow far slower.
        assert large.max_message_bits <= 2 * small.max_message_bits

    def test_mean_message_bits_positive(self):
        analyzer, _ = self._analyze(CentralCounter, 8)
        assert analyzer.mean_message_bits() > 0

    def test_empty_analyzer(self):
        analyzer = BitLoadAnalyzer(8)
        assert analyzer.bit_bottleneck() == (0, 0)
        assert analyzer.mean_message_bits() == 0.0
