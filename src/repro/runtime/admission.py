"""Admission control: rate limiting and circuit breaking at the door.

The bounded mailbox (``core/mailbox.py``) protects one actor; admission
control protects the *route*.  The coordinator consults this module in
``_route`` — before an envelope is even put in flight — and sheds at the
door when the destination is known to be saturated, which is strictly
cheaper than delivering into a full mailbox and shedding there:

* :class:`TokenBucket` — per ``(src, dst)`` route rate limiting.  A
  bucket of ``burst`` tokens refills at ``rate`` tokens per (virtual)
  second; an envelope that finds the bucket empty is rejected with
  reason ``admission_rate``.
* :class:`CircuitBreaker` — per destination node.  The breaker trips
  (reason ``circuit_open``) when the destination's mailboxes shed more
  than ``threshold`` envelopes within ``window`` seconds, or when its
  dead-letter queue is saturated past ``dlq_fraction`` of capacity.  It
  re-closes after ``cooldown`` seconds without fresh sheds — the
  half-open probe is simply the first admitted envelope, whose fate
  feeds the same shed counters back in.

Rejections are not drops: the coordinator parks rejected envelopes in
the :class:`~repro.runtime.failure.DeadLetterQueue` with capped backoff
redelivery (queue-based load leveling), so every admission decision is
visible in typed events, counters, and DLQ accounting.

Everything here is deterministic and clock-driven — no wall-clock reads,
no background tasks — so the simulator's virtual time and the TCP
runtime's wall clock both drive it identically.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .host import Host


class TokenBucket:
    """Classic token bucket: ``burst`` capacity, ``rate`` tokens/second."""

    __slots__ = ("rate", "burst", "tokens", "last")

    def __init__(self, rate: float, burst: float, now: float):
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.last = now

    def try_take(self, now: float) -> bool:
        if now > self.last:
            self.tokens = min(self.burst,
                              self.tokens + (now - self.last) * self.rate)
            self.last = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class CircuitBreaker:
    """Open on recent overload at the destination; close after cooldown."""

    __slots__ = ("threshold", "window", "cooldown", "_sheds", "open",
                 "opened_at", "trips")

    def __init__(self, threshold: int, window: float, cooldown: float):
        self.threshold = threshold
        self.window = window
        self.cooldown = cooldown
        #: Timestamps of recent destination-side sheds.
        self._sheds: deque[float] = deque()
        self.open = False
        self.opened_at = 0.0
        self.trips = 0

    def record_shed(self, now: float, count: int = 1) -> None:
        for _ in range(count):
            self._sheds.append(now)
        self._trim(now)

    def _trim(self, now: float) -> None:
        cutoff = now - self.window
        sheds = self._sheds
        while sheds and sheds[0] < cutoff:
            sheds.popleft()

    def allow(self, now: float, saturated: bool) -> bool:
        """One admission decision; updates open/closed state."""
        self._trim(now)
        tripping = saturated or len(self._sheds) >= self.threshold
        if not self.open:
            if tripping:
                self.open = True
                self.opened_at = now
                self.trips += 1
                return False
            return True
        # Open: stay open while the condition holds (re-arming the
        # cooldown), close once it has been quiet for ``cooldown``.
        if tripping:
            self.opened_at = now
            return False
        if now - self.opened_at >= self.cooldown:
            self.open = False
            return True
        return False


class AdmissionControl:
    """Shared per-system admission state, consulted by every coordinator.

    ``rate``/``burst`` of ``None`` disables rate limiting; a
    ``breaker_threshold`` of ``None`` disables the breaker.  With both
    off the host never constructs this object, so the default hot
    path pays only an attribute read.
    """

    def __init__(
        self,
        system: "Host",
        *,
        rate: float | None = None,
        burst: float | None = None,
        breaker_threshold: int | None = None,
        breaker_window: float = 1.0,
        breaker_cooldown: float = 0.5,
        dlq_fraction: float = 0.9,
    ):
        if rate is not None and rate <= 0:
            raise ValueError(f"admission rate must be positive, got {rate}")
        self.system = system
        self.rate = rate
        self.burst = burst if burst is not None else (rate or 0.0)
        self.breaker_threshold = breaker_threshold
        self.breaker_window = breaker_window
        self.breaker_cooldown = breaker_cooldown
        self.dlq_fraction = dlq_fraction
        self._buckets: dict[tuple[int, int], TokenBucket] = {}
        self._breakers: dict[int, CircuitBreaker] = {}
        self.rejected_rate = 0
        self.rejected_breaker = 0

    # -- feedback from the delivery path ------------------------------------

    def on_overflow(self, dst_node: int, now: float, count: int = 1) -> None:
        """A mailbox on ``dst_node`` shed ``count`` envelopes."""
        if self.breaker_threshold is None:
            return
        self._breaker(dst_node).record_shed(now, count)

    # -- the decision -------------------------------------------------------

    def check(self, src_node: int, dst_node: int, now: float) -> str | None:
        """Admission verdict for one envelope: ``None`` = admit, else
        the rejection reason (``admission_rate`` / ``circuit_open``)."""
        if self.breaker_threshold is not None:
            breaker = self._breaker(dst_node)
            was_open = breaker.open
            if not breaker.allow(now, self._dlq_saturated(dst_node)):
                if not was_open:
                    self.system.tracer.on_overload(
                        "breaker_open", node=src_node, t=now,
                        dst_node=dst_node)
                self.rejected_breaker += 1
                return "circuit_open"
            if was_open:
                self.system.tracer.on_overload(
                    "breaker_closed", node=src_node, t=now,
                    dst_node=dst_node)
        if self.rate is not None:
            bucket = self._buckets.get((src_node, dst_node))
            if bucket is None:
                bucket = TokenBucket(self.rate, self.burst, now)
                self._buckets[(src_node, dst_node)] = bucket
            if not bucket.try_take(now):
                self.rejected_rate += 1
                return "admission_rate"
        return None

    # -- plumbing -----------------------------------------------------------

    def _breaker(self, dst_node: int) -> CircuitBreaker:
        breaker = self._breakers.get(dst_node)
        if breaker is None:
            breaker = CircuitBreaker(self.breaker_threshold or 1,
                                     self.breaker_window,
                                     self.breaker_cooldown)
            self._breakers[dst_node] = breaker
        return breaker

    def _dlq_saturated(self, dst_node: int) -> bool:
        dlq = self.system.dead_letters
        return dlq.pending(dst_node) >= self.dlq_fraction * dlq.capacity

    def metrics(self) -> dict:
        return {
            "rejected_rate": self.rejected_rate,
            "rejected_breaker": self.rejected_breaker,
            "breaker_trips": sum(b.trips for b in self._breakers.values()),
            "breakers_open": sum(b.open for b in self._breakers.values()),
        }

    def __repr__(self):
        return (f"<AdmissionControl rate={self.rate} "
                f"breaker_threshold={self.breaker_threshold} "
                f"rejected={self.rejected_rate + self.rejected_breaker}>")
