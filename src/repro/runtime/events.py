"""The discrete-event queue driving the simulation.

Events are ``(time, priority, seq, action, tag)`` entries in a binary
heap.  ``seq`` is a monotone counter breaking ties deterministically: two
events at the same instant run in scheduling order, never in hash order —
a hard requirement for reproducibility.  ``priority`` orders classes of
work at the same instant (e.g. bus deliveries before actor processing)
without resorting to epsilon time offsets.

Schedule exploration hooks
--------------------------
The scheduling-order tie-break is itself a *semantic* choice: the runtime
promises the same observable behavior for every order of same-instant,
same-priority events, and the conformance harness (``repro.check``) wants
to test that promise.  Two optional knobs expose the choice point without
perturbing default behavior:

* ``schedule(..., tag=...)`` lets scheduling sites label events with a
  small tuple describing what the event does (e.g. ``("deliver", addr)``),
  so a controller can tell which tied events actually conflict;
* :attr:`EventQueue.tiebreaker` — when set, :meth:`pop` gathers *all*
  entries tied on ``(time, priority)`` and asks the tiebreaker which to
  run first.  ``None`` (the default) keeps the historical FIFO order and
  costs nothing on the hot path.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

_INF = float("inf")


class EventQueue:
    """A deterministic time-ordered queue of zero-argument actions."""

    __slots__ = ("_heap", "_counter", "executed_count", "tiebreaker")

    def __init__(self):
        self._heap: list[tuple[float, int, int, Callable[[], None], object]] = []
        self._counter = itertools.count()
        self.executed_count = 0
        #: Optional schedule controller: an object with a
        #: ``choose(tags: list) -> int`` method consulted whenever several
        #: events are tied on ``(time, priority)``.  ``None`` = FIFO.
        self.tiebreaker = None

    def schedule(self, time: float, action: Callable[[], None],
                 priority: int = 0, tag: object = None) -> None:
        """Enqueue ``action`` to run at virtual ``time``.

        Lower ``priority`` runs first among same-time events.  ``tag`` is
        an optional label (conventionally a small tuple) consumed by a
        schedule-exploration tiebreaker; it never affects default order.
        """
        if not -_INF < time < _INF:  # NaN, +inf and -inf all fail the chain
            raise ValueError(f"event time must be finite, got {time}")
        heapq.heappush(self._heap, (time, priority, next(self._counter), action, tag))

    def pop(self) -> tuple[float, Callable[[], None]] | None:
        """Remove and return the next ``(time, action)``, or ``None`` if empty."""
        if not self._heap:
            return None
        if self.tiebreaker is not None:
            entry = self._pop_with_tiebreak()
        else:
            entry = heapq.heappop(self._heap)
        self.executed_count += 1
        return entry[0], entry[3]

    def _pop_with_tiebreak(self):
        """Gather all entries tied on (time, priority); let the controller pick."""
        first = heapq.heappop(self._heap)
        ties = [first]
        while self._heap and self._heap[0][0] == first[0] and self._heap[0][1] == first[1]:
            ties.append(heapq.heappop(self._heap))
        if len(ties) == 1:
            return first
        index = self.tiebreaker.choose([e[4] for e in ties])
        if not 0 <= index < len(ties):
            index = 0
        chosen = ties.pop(index)
        for entry in ties:
            heapq.heappush(self._heap, entry)
        return chosen

    def peek_time(self) -> float | None:
        """The timestamp of the next event without removing it."""
        return self._heap[0][0] if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def __repr__(self):
        nxt = f" next@{self._heap[0][0]:.4f}" if self._heap else ""
        return f"<EventQueue {len(self._heap)} pending{nxt}>"
