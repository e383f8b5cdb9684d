"""Tests for the discrete-event queue."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.events import EventQueue


class TestEventQueue:
    def test_runs_in_time_order(self):
        queue = EventQueue()
        log = []
        queue.call(30, log.append, "c")
        queue.call(10, log.append, "a")
        queue.call(20, log.append, "b")
        queue.run()
        assert log == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        queue = EventQueue()
        log = []
        for tag in "abc":
            queue.call(5, lambda t=tag: log.append(t))
        queue.run()
        assert log == ["a", "b", "c"]

    def test_now_advances(self):
        queue = EventQueue()
        seen = []
        queue.call(7, lambda: seen.append(queue.now))
        queue.run()
        assert seen == [7]

    def test_events_can_schedule_events(self):
        queue = EventQueue()
        log = []

        def first():
            queue.call(5, lambda: log.append(queue.now))

        queue.call(10, first)
        queue.run()
        assert log == [15]

    def test_negative_delay_rejected(self):
        queue = EventQueue()
        with pytest.raises(ValueError, match="past"):
            queue.call(-1, lambda: None)

    def test_max_events_bound(self):
        queue = EventQueue()
        for _ in range(10):
            queue.call(1, lambda: None)
        assert queue.run(max_events=4) == 4
        assert len(queue) == 6

    def test_max_events_zero_is_a_noop(self):
        """Regression: a zero budget must not pop (or run) anything."""
        queue = EventQueue()
        fired = []
        queue.call(5, fired.append, "boom")
        assert queue.run(max_events=0) == 0
        assert fired == []
        assert len(queue) == 1
        assert queue.now == 0
        # the queue is still fully drainable afterwards
        assert queue.run() == 1
        assert fired == ["boom"]

    def test_negative_max_events_rejected(self):
        queue = EventQueue()
        with pytest.raises(ValueError, match="max_events"):
            queue.run(max_events=-1)

    def test_budget_stops_mid_bucket_preserving_fifo(self):
        queue = EventQueue()
        log = []
        for tag in "abcd":
            queue.call(3, log.append, tag)
        assert queue.run(max_events=2) == 2
        assert log == ["a", "b"]
        assert len(queue) == 2
        assert queue.run() == 2
        assert log == ["a", "b", "c", "d"]

    def test_same_cycle_events_scheduled_while_draining_run_in_pass(self):
        queue = EventQueue()
        log = []

        def first():
            log.append("first")
            queue.call(0, log.append, "tail")

        queue.call(7, first)
        queue.call(7, log.append, "second")
        assert queue.run() == 3
        assert log == ["first", "second", "tail"]
        assert len(queue) == 0

    def test_exception_mid_bucket_keeps_queue_consistent(self):
        queue = EventQueue()
        log = []

        def boom():
            raise RuntimeError("boom")

        queue.call(1, log.append, "ok")
        queue.call(1, boom)
        queue.call(1, log.append, "after")
        with pytest.raises(RuntimeError, match="boom"):
            queue.run()
        # The raising event was consumed; the remainder is intact.
        assert log == ["ok"]
        assert len(queue) == 1
        assert queue.run() == 1
        assert log == ["ok", "after"]

    @given(st.lists(st.integers(0, 1000), max_size=50))
    def test_monotone_time(self, delays):
        queue = EventQueue()
        times = []
        for delay in delays:
            queue.call(delay, lambda: times.append(queue.now))
        queue.run()
        assert times == sorted(times)
