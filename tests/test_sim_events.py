"""Unit tests for the discrete-event queue."""

from __future__ import annotations

import pytest

from repro.sim.events import Event, EventQueue


class TestEventQueueBasics:
    def test_starts_empty_at_time_zero(self):
        queue = EventQueue()
        assert len(queue) == 0
        assert not queue
        assert queue.now == 0.0

    def test_schedule_returns_event_with_absolute_time(self):
        queue = EventQueue()
        event = queue.schedule(2.5, lambda: None)
        assert isinstance(event, Event)
        assert event.time == 2.5
        assert len(queue) == 1

    def test_pop_returns_the_event_schedule_reported(self):
        # One view, no queue-local ``seq`` to disagree about: the event
        # handed out at schedule time is the event that pops.
        queue = EventQueue()
        first = queue.schedule(1.0, lambda: None)
        second = queue.schedule(1.0, lambda: None)
        assert not hasattr(first, "seq")
        assert queue.pop() == first
        assert queue.pop() == second

    def test_pop_advances_now(self):
        queue = EventQueue()
        queue.schedule(3.0, lambda: None)
        queue.pop()
        assert queue.now == 3.0

    def test_negative_delay_rejected(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            queue.schedule(-0.1, lambda: None)

    def test_zero_delay_allowed(self):
        queue = EventQueue()
        queue.schedule(0.0, lambda: None)
        assert len(queue) == 1

    def test_clear_drops_pending_events(self):
        queue = EventQueue()
        fired = []
        queue.schedule(1.0, lambda: fired.append(1))
        queue.clear()
        assert not queue
        assert fired == []

    def test_clear_resets_simulated_time(self):
        queue = EventQueue()
        queue.schedule(3.0, lambda: None)
        queue.run_next()
        assert queue.now == 3.0
        queue.schedule(1.0, lambda: None)
        queue.clear()
        assert queue.now == 0.0
        # The reused queue starts a fresh timeline, not the abandoned one.
        queue.schedule(2.0, lambda: None)
        queue.run_next()
        assert queue.now == 2.0


class TestEventOrdering:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        order = []
        queue.schedule(5.0, lambda: order.append("late"))
        queue.schedule(1.0, lambda: order.append("early"))
        queue.schedule(3.0, lambda: order.append("middle"))
        while queue:
            queue.run_next()
        assert order == ["early", "middle", "late"]

    def test_ties_break_fifo(self):
        queue = EventQueue()
        order = []
        for tag in range(10):
            queue.schedule(1.0, lambda t=tag: order.append(t))
        while queue:
            queue.run_next()
        assert order == list(range(10))

    def test_relative_scheduling_compounds(self):
        queue = EventQueue()
        times = []

        def chain():
            times.append(queue.now)
            if len(times) < 3:
                queue.schedule(2.0, chain)

        queue.schedule(2.0, chain)
        while queue:
            queue.run_next()
        assert times == [2.0, 4.0, 6.0]

    def test_event_scheduled_during_run_is_executed(self):
        queue = EventQueue()
        fired = []
        queue.schedule(1.0, lambda: queue.schedule(0.0, lambda: fired.append(1)))
        while queue:
            queue.run_next()
        assert fired == [1]

    def test_same_time_nested_event_runs_after_existing(self):
        queue = EventQueue()
        order = []
        queue.schedule(1.0, lambda: (order.append("a"), queue.schedule(0.0, lambda: order.append("c"))))
        queue.schedule(1.0, lambda: order.append("b"))
        while queue:
            queue.run_next()
        assert order == ["a", "b", "c"]


class TestDeterminism:
    def test_identical_schedules_pop_identically(self):
        def build():
            queue = EventQueue()
            order = []
            for tag in range(50):
                queue.schedule((tag * 7) % 5 + 0.5, lambda t=tag: order.append(t))
            while queue:
                queue.run_next()
            return order

        assert build() == build()
