"""NTP-style per-peer clock alignment for multi-node traces.

Each node process keeps wall-clock time as *elapsed seconds since its
own start* (:class:`~repro.net.runtime.WallClock`), so two nodes'
flight-recorder timestamps differ by an arbitrary offset — whatever the
gap between their process launches was.  Merging their event logs onto
one timeline therefore needs, per peer, an estimate of

``offset(peer) = peer_clock - local_clock``  (at the same real instant)

which is exactly the classic NTP client computation.  Every sample is a
four-timestamp exchange::

    t_send      local clock when the request left
    t_peer1     peer  clock when the request arrived
    t_peer2     peer  clock when the reply   left
    t_recv      local clock when the reply   arrived

    rtt    = (t_recv - t_send) - (t_peer2 - t_peer1)
    offset = ((t_peer1 - t_send) + (t_peer2 - t_recv)) / 2

The offset error is bounded by ``rtt / 2`` (the request/response legs
are assumed symmetric), so the *best* estimate is the sample with the
smallest round trip.  :class:`ClockSync` keeps a bounded window of
recent samples per peer and answers with the minimum-RTT one — a burst
of congested samples cannot evict one crisp measurement until it ages
out of the window.

One producer feeds it: the launcher's
:class:`~repro.net.cluster.TelemetryCollector`, whose control-plane
``ping`` round trips (``t_peer1 == t_peer2``) place every node's events
on *its* timeline.  The nodes themselves estimate no offsets.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Hashable

#: How many recent samples to keep per peer; the min-RTT one answers.
SAMPLE_WINDOW = 32


class ClockSample:
    """One four-timestamp exchange, reduced to (offset, rtt)."""

    __slots__ = ("offset", "rtt", "at")

    def __init__(self, offset: float, rtt: float, at: float):
        self.offset = offset
        self.rtt = rtt
        self.at = at

    def __repr__(self):
        return f"<ClockSample offset={self.offset:+.6f} rtt={self.rtt:.6f}>"


class ClockSync:
    """Per-peer clock-offset estimation from timestamped round trips.

    A peer is any sortable key; the collector's is ``(node,
    incarnation)``.

    Parameters
    ----------
    clock:
        The *local* timescale the caller's timestamps use (the
        collector's ``time.monotonic``).  Only consistency matters:
        every ``t_send``/``t_recv`` handed to :meth:`add_sample` must
        come from this clock.
    window:
        Samples retained per peer (oldest evicted first).
    """

    def __init__(self, clock: Callable[[], float] | None = None,
                 window: int = SAMPLE_WINDOW):
        self.clock = clock if clock is not None else time.monotonic
        self.window = window
        self._samples: dict[Hashable, deque[ClockSample]] = {}
        self.samples_total = 0
        self.samples_rejected = 0

    # -- recording ---------------------------------------------------------------

    def add_sample(self, peer: Hashable, t_send: float, t_peer1: float,
                   t_peer2: float, t_recv: float) -> ClockSample | None:
        """Fold one exchange in; ``None`` if the timestamps are unusable.

        A sample is rejected when its computed round trip is negative
        (clock retrograde, a peer restart mid-exchange, or a stale echo)
        — a garbage sample must not displace a good one.
        """
        rtt = (t_recv - t_send) - (t_peer2 - t_peer1)
        if rtt < 0 or t_recv < t_send:
            self.samples_rejected += 1
            return None
        offset = ((t_peer1 - t_send) + (t_peer2 - t_recv)) / 2
        sample = ClockSample(offset, rtt, self.clock())
        bucket = self._samples.get(peer)
        if bucket is None:
            bucket = self._samples[peer] = deque(maxlen=self.window)
        bucket.append(sample)
        self.samples_total += 1
        return sample

    # -- queries -----------------------------------------------------------------

    def best(self, peer: Hashable) -> ClockSample | None:
        """The minimum-RTT sample currently held for ``peer``."""
        bucket = self._samples.get(peer)
        if not bucket:
            return None
        return min(bucket, key=lambda s: s.rtt)

    def offset(self, peer: Hashable) -> float | None:
        """``peer_clock - local_clock``, or ``None`` before any sample."""
        sample = self.best(peer)
        return sample.offset if sample is not None else None

    def rtt(self, peer: Hashable) -> float | None:
        sample = self.best(peer)
        return sample.rtt if sample is not None else None

    def to_local(self, peer: Hashable, t_peer: float) -> float:
        """Map a peer-clock instant onto the local timescale.

        Identity when no sample exists yet — an unaligned timestamp is
        more useful than a crash, and callers can consult
        :meth:`offset` to know whether alignment actually happened.
        """
        offset = self.offset(peer)
        if offset is None:
            return t_peer
        return t_peer - offset

    def peers(self) -> list:
        return sorted(p for p, bucket in self._samples.items() if bucket)

    def snapshot(self) -> dict:
        """Wire-safe summary: per-peer best offset/rtt + sample counts."""
        peers = {}
        for peer in self.peers():
            sample = self.best(peer)
            peers[peer] = {
                "offset_s": sample.offset,
                "rtt_s": sample.rtt,
                "samples": len(self._samples[peer]),
            }
        return {
            "peers": peers,
            "samples_total": self.samples_total,
            "samples_rejected": self.samples_rejected,
        }

    def __repr__(self):
        return (f"<ClockSync peers={len(self.peers())} "
                f"samples={self.samples_total}>")
