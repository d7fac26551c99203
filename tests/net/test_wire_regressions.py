"""Regressions from the sharded-plane work: credit classes + link races.

Two wire bugs surfaced when per-shard traffic started riding the data
plane:

* the receiver granted credit back only for ENVELOPE frames while the
  sender debited its window for *every* data-class frame — a stream of
  ``SHARD_FWD``/``BUS_OP`` frames exhausted the window permanently and
  the link stalled forever;
* a late simultaneous dial re-registered the peer link and orphaned the
  frames queued on the losing link (credit grants wake only the
  registered link), deadlocking the stream at exactly one window.
"""

import asyncio
import time

import pytest

from repro.net.cluster import _free_ports, loopback_available
from repro.net.codec import FrameKind
from repro.net.peer import _DATA_KINDS, PeerHub, PeerLink

pytestmark = pytest.mark.skipif(
    not loopback_available(), reason="loopback TCP unavailable")


async def _poll(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        await asyncio.sleep(0.02)
    return False


def test_every_bus_frame_kind_is_data_class():
    """A shed BUS_OP is a hole in a replica's log; a shed SHARD_FWD is a
    lost visibility op.  All payload-bearing kinds must ride the
    credit-gated (and never silently shed) data plane."""
    assert FrameKind.ENVELOPE in _DATA_KINDS
    assert FrameKind.SHARD_FWD in _DATA_KINDS
    assert FrameKind.BUS_OP in _DATA_KINDS
    # Liveness and flow control stay control-class: they must cross even
    # while data is stalled.
    assert FrameKind.HEARTBEAT not in _DATA_KINDS
    assert FrameKind.CREDIT not in _DATA_KINDS
    # A sync replay's end marker carries no op: control-class, like the
    # request it answers.
    assert FrameKind.SYNC_DONE not in _DATA_KINDS


@pytest.mark.parametrize("kind", [FrameKind.SHARD_FWD, FrameKind.BUS_OP])
def test_non_envelope_data_frames_replenish_the_credit_window(kind):
    """Send far more data frames than the credit window: delivery past
    ``window`` proves the receiver granted credit back for this kind."""
    window = 8
    total = 10 * window

    async def scenario():
        ports = dict(enumerate(_free_ports(2)))
        got = []

        def on_frame(src, frame_kind, payload, link):
            got.append((src, frame_kind, payload))

        hubs = [PeerHub(i, ports, on_frame, credit_window=window)
                for i in range(2)]
        try:
            for hub in hubs:
                await hub.start()
            assert await _poll(lambda: all(len(h.links) == 1 for h in hubs))
            for i in range(total):
                assert hubs[0].send(1, kind, {"i": i})
            assert await _poll(
                lambda: sum(1 for _s, k, _p in got if k is kind) >= total), (
                f"stalled: {sum(1 for _s, k, _p in got if k is kind)}"
                f"/{total} delivered with window={window}")
            assert hubs[0].credit_stalls >= 1, (
                "window never exhausted: the test is not exercising credit")
        finally:
            for hub in hubs:
                await hub.stop()

    asyncio.run(scenario())


def test_duplicate_registration_migrates_queued_frames():
    """The losing link of a registration race hands its backlog to the
    winner instead of orphaning it."""

    async def scenario():
        hub = PeerHub(0, {0: 1, 1: 2}, lambda *a: None)
        loser = PeerLink(1, "node", None, None)
        loser.queue.extend([(b"data-frame", 0.0), (b"data-frame-2", 0.0)])
        loser.queue_bytes = 23
        loser.ctrl_queue.append((b"ctrl", 0.0))
        loser.ctrl_bytes = 4
        hub._register(loser)
        assert hub.links[1] is loser

        winner = PeerLink(1, "node", None, None)
        hub._register(winner)
        assert hub.links[1] is winner
        assert [f for f, _t in winner.queue] == [b"data-frame", b"data-frame-2"]
        assert winner.queue_bytes == 23
        assert [f for f, _t in winner.ctrl_queue] == [b"ctrl"]
        assert winner.ctrl_bytes == 4
        assert winner.wake.is_set()
        # The loser is drained and told to die; its flusher wakes to exit.
        assert loser.closing and not loser.queue and not loser.ctrl_queue
        assert loser.queue_bytes == 0 and loser.ctrl_bytes == 0
        assert loser.wake.is_set()

    asyncio.run(scenario())


def test_reregistration_resets_the_credit_window():
    """A fresh link restarts both sides of the flow-control ledger."""

    async def scenario():
        hub = PeerHub(0, {0: 1, 1: 2}, lambda *a: None, credit_window=16)
        first = PeerLink(1, "node", None, None)
        hub._register(first)
        hub.data_credit[1] = 3       # nearly exhausted
        hub.data_consumed[1] = 7     # grant pending
        replacement = PeerLink(1, "node", None, None)
        hub._register(replacement)
        assert hub.data_credit[1] == 16
        assert hub.data_consumed[1] == 0

    asyncio.run(scenario())
