"""Unit tests: virtual clock and the deterministic event queue."""

import pytest

from repro.runtime.clock import VirtualClock
from repro.runtime.events import EventQueue


class TestClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0.0

    def test_advance(self):
        c = VirtualClock()
        c.advance_to(2.5)
        assert c.now == 2.5
        c.advance_to(2.5)  # idempotent advance is fine

    def test_never_backwards(self):
        c = VirtualClock(5.0)
        with pytest.raises(ValueError):
            c.advance_to(4.9)


class TestEventQueue:
    def test_time_order(self):
        q = EventQueue()
        out = []
        q.schedule(3.0, lambda: out.append("c"))
        q.schedule(1.0, lambda: out.append("a"))
        q.schedule(2.0, lambda: out.append("b"))
        while q:
            _t, action = q.pop()
            action()
        assert out == ["a", "b", "c"]

    def test_fifo_tie_break_at_same_time(self):
        q = EventQueue()
        out = []
        for i in range(10):
            q.schedule(1.0, lambda i=i: out.append(i))
        while q:
            q.pop()[1]()
        assert out == list(range(10))

    def test_priority_orders_same_instant(self):
        q = EventQueue()
        out = []
        q.schedule(1.0, lambda: out.append("normal"), priority=0)
        q.schedule(1.0, lambda: out.append("bus"), priority=-1)
        while q:
            q.pop()[1]()
        assert out == ["bus", "normal"]

    def test_pop_empty_returns_none(self):
        assert EventQueue().pop() is None

    def test_peek_time(self):
        q = EventQueue()
        assert q.peek_time() is None
        q.schedule(7.0, lambda: None)
        assert q.peek_time() == 7.0

    def test_rejects_nonfinite_times(self):
        q = EventQueue()
        # ``-inf`` too: the guard read "must be finite" and let it through.
        for bad in (float("inf"), float("nan"), float("-inf")):
            with pytest.raises(ValueError, match="finite"):
                q.schedule(bad, lambda: None)
        assert len(q) == 0
        q.schedule(0.0, lambda: None)
        q.schedule(-3.5, lambda: None)  # a past time is legal: fires at once
        assert [q.pop()[0], q.pop()[0]] == [-3.5, 0.0]

    def test_counters(self):
        q = EventQueue()
        q.schedule(1.0, lambda: None)
        q.schedule(2.0, lambda: None)
        q.pop()
        assert q.executed_count == 1
        assert len(q) == 1
