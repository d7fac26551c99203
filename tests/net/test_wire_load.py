"""Hot-path wire tests: flush policy, bounded send queues, piggybacked
liveness, and the broadcast encode-once guarantee.

The flush-policy tests drive ``PeerHub._flush_loop`` against an
in-memory writer — no sockets — so each trigger (queue-empty, size
watermark) is exercised deterministically.  The liveness
and broadcast tests run real loopback hubs like the rest of the link
layer suite.
"""

import asyncio
import time

import pytest

import repro.net.peer as peer_module
from repro.net.cluster import _free_ports, loopback_available
from repro.net.codec import FrameDecoder, FrameKind, encode_frame
from repro.net.peer import PeerHub, PeerLink

pytestmark = pytest.mark.skipif(
    not loopback_available(), reason="loopback TCP unavailable")


async def _poll(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        await asyncio.sleep(0.02)
    return False


class _FakeWriter:
    """Captures writes; quacks enough like a StreamWriter for the flusher."""

    def __init__(self):
        self.writes: list[bytes] = []
        self.closed = False

    def write(self, data):
        self.writes.append(bytes(data))

    async def drain(self):
        await asyncio.sleep(0)

    def is_closing(self):
        return self.closed


def _bench_link(hub):
    link = PeerLink(1, "node", None, _FakeWriter())
    hub.links[1] = link
    return link


def _frames(writer):
    """Flatten everything written (batched or bare) back to frames."""
    decoder = FrameDecoder()
    out = []
    for data in writer.writes:
        out.extend(decoder.feed(data))
    return out


def _quiet_hub(**kw):
    return PeerHub(0, {0: 1, 1: 2}, lambda *a: None, **kw)


# -- flush policy ----------------------------------------------------------------


def test_flush_on_queue_empty_writes_single_frame_bare():
    """One queued frame flushes immediately and without batch framing."""
    async def scenario():
        hub = _quiet_hub()
        link = _bench_link(hub)
        flusher = asyncio.ensure_future(hub._flush_loop(link))
        frame = encode_frame(FrameKind.HEARTBEAT, {"n": 1})
        assert hub.send(1, FrameKind.HEARTBEAT, {"n": 1})
        assert await _poll(lambda: link.writer.writes)
        assert link.writer.writes == [frame]
        assert hub.batches_out == 0 and link.queue_bytes == 0
        flusher.cancel()

    asyncio.run(scenario())


def test_backlog_coalesces_into_one_batch_write():
    """Frames queued while the flusher is busy leave in one BATCH frame."""
    async def scenario():
        hub = _quiet_hub()
        link = _bench_link(hub)
        payloads = [{"n": index} for index in range(5)]
        for payload in payloads:
            assert hub.send(1, FrameKind.HEARTBEAT, payload)
        # Flusher starts with a 5-frame backlog: one coalesced write.
        flusher = asyncio.ensure_future(hub._flush_loop(link))
        assert await _poll(lambda: link.writer.writes)
        assert len(link.writer.writes) == 1
        assert hub.batches_out == 1
        decoded = _frames(link.writer)
        assert [p for _k, p in decoded] == payloads  # FIFO preserved
        flusher.cancel()

    asyncio.run(scenario())


def test_size_watermark_splits_writes():
    """A backlog larger than batch_max_bytes flushes as multiple writes."""
    async def scenario():
        frame = encode_frame(FrameKind.HEARTBEAT, {"fill": "x" * 64})
        hub = _quiet_hub(batch_max_bytes=len(frame) * 2)
        link = _bench_link(hub)
        for index in range(6):
            assert hub.send(1, FrameKind.HEARTBEAT, {"fill": "x" * 64})
        flusher = asyncio.ensure_future(hub._flush_loop(link))
        assert await _poll(lambda: len(_frames(link.writer)) == 6)
        assert len(link.writer.writes) >= 3  # capped at ~2 frames per write
        flusher.cancel()

    asyncio.run(scenario())


# -- bounded memory ---------------------------------------------------------------


def test_stalled_link_sheds_instead_of_growing():
    """With no flusher draining, the data queue is capped and sheds beyond it."""
    async def scenario():
        frame = encode_frame(FrameKind.ENVELOPE, {"fill": "x" * 256})
        hub = _quiet_hub(max_pending_bytes=len(frame) * 4)
        link = _bench_link(hub)
        results = [hub.send(1, FrameKind.ENVELOPE, {"fill": "x" * 256})
                   for _ in range(10)]
        assert results.count(True) == 4 and results.count(False) == 6
        assert link.queue_bytes <= hub.max_pending_bytes
        assert link.frames_shed == 6 and hub.frames_shed == 6
        snapshot = hub.metrics_snapshot()
        assert snapshot["frames_shed"] == 6
        assert snapshot["send_buffer_bytes"] == link.queue_bytes

    asyncio.run(scenario())


def test_saturated_data_queue_does_not_shed_liveness():
    """Regression: data saturation used to shed heartbeats too, so a
    live-but-stalled peer went silent and got falsely suspected.
    Control frames now ride a separate shed-exempt budget."""
    async def scenario():
        frame = encode_frame(FrameKind.ENVELOPE, {"fill": "x" * 256})
        hub = _quiet_hub(max_pending_bytes=len(frame) * 2)
        link = _bench_link(hub)
        # Saturate the data queue: further data frames shed...
        for _ in range(8):
            hub.send(1, FrameKind.ENVELOPE, {"fill": "x" * 256})
        assert link.frames_shed == 6
        # ...yet heartbeats are still accepted, on their own queue.
        assert hub.send(1, FrameKind.HEARTBEAT, {"n": 1})
        assert link.ctrl_queue and link.ctrl_bytes > 0
        assert link.frames_shed == 6  # unchanged by the heartbeat
        # The control budget itself is bounded too: a wedged socket
        # must not grow the control queue without limit.
        beacon = encode_frame(FrameKind.HEARTBEAT, {"n": 1})
        limit = hub.ctrl_pending_bytes // len(beacon) + 2
        results = [hub.send(1, FrameKind.HEARTBEAT, {"n": 1})
                   for _ in range(limit)]
        assert False in results
        assert link.ctrl_bytes <= hub.ctrl_pending_bytes
        snapshot = hub.metrics_snapshot()
        assert snapshot["ctrl_buffer_bytes"] == link.ctrl_bytes
        assert snapshot["send_buffer_bytes"] == link.queue_bytes

    asyncio.run(scenario())


# -- credit flow control ----------------------------------------------------------


def test_credit_window_pauses_data_and_control_still_flows():
    """An exhausted credit window pauses the flusher's data path —
    frames wait in the bounded queue instead of being shed — while
    control frames keep flowing; a CREDIT grant resumes data."""
    async def scenario():
        hub = _quiet_hub(credit_window=4)
        link = _bench_link(hub)
        flusher = asyncio.ensure_future(hub._flush_loop(link))
        for n in range(10):
            assert hub.send(1, FrameKind.ENVELOPE, {"n": n})

        def envelopes_out():
            return [p for k, p in _frames(link.writer)
                    if k == FrameKind.ENVELOPE]

        assert await _poll(lambda: len(envelopes_out()) == 4)
        await asyncio.sleep(0.05)
        assert len(envelopes_out()) == 4          # paused, not shed
        assert len(link.queue) == 6               # waiting, not dropped
        assert link.frames_shed == 0
        assert hub.credit_stalls == 1             # one episode, not per-poll
        # Control frames bypass the gate entirely.
        assert hub.send(1, FrameKind.HEARTBEAT, {"hb": True})
        assert await _poll(lambda: any(
            k == FrameKind.HEARTBEAT for k, _p in _frames(link.writer)))
        assert len(envelopes_out()) == 4
        # A grant wakes the flusher and releases exactly that much data.
        hub._on_credit(link, {"n": 4})
        assert await _poll(lambda: len(envelopes_out()) == 8)
        await asyncio.sleep(0.05)
        assert len(envelopes_out()) == 8
        # FIFO survived the pause.
        assert [p["n"] for p in envelopes_out()] == list(range(8))
        flusher.cancel()

    asyncio.run(scenario())


def test_receiver_grants_credit_at_half_window():
    """Over a real link, the receiver tops the sender's window back up
    every ``credit_window // 2`` consumed envelopes."""
    async def scenario():
        ports = dict(enumerate(_free_ports(2)))
        received = []
        a = PeerHub(0, ports, lambda *args: None, credit_window=8)
        b = PeerHub(1, ports, lambda src, kind, payload, link:
                    received.append(payload), credit_window=8)
        try:
            await a.start()
            await b.start()
            assert await _poll(lambda: 1 in a.links and 0 in b.links)
            for n in range(8):
                assert a.send(1, FrameKind.ENVELOPE, {"n": n})
            assert await _poll(lambda: len(received) == 8)
            # b consumed 8 envelopes = two half-windows -> two grants,
            # which restore a's window to full.
            assert await _poll(lambda: a.credit_grants_in >= 2)
            assert b.credit_grants_out >= 2
            assert a.data_credit[1] == 8
        finally:
            await a.stop()
            await b.stop()

    asyncio.run(scenario())


# -- piggybacked liveness ---------------------------------------------------------


def test_data_flow_suppresses_heartbeats_and_keeps_peer_live():
    """A busy link needs no beacons: data refreshes recency on the
    receiver, and the sender reports the peer as non-idle."""
    async def scenario():
        ports = dict(enumerate(_free_ports(2)))
        sink = []
        a = PeerHub(0, ports, lambda *args: None)
        b = PeerHub(1, ports, lambda src, kind, payload, link:
                    sink.append((src, kind)))
        try:
            await a.start()
            await b.start()
            assert await _poll(lambda: 1 in a.links and 0 in b.links)
            window = 0.1
            floor = time.monotonic()
            while time.monotonic() - floor < 3 * window:
                a.send(1, FrameKind.ENVELOPE, {"n": 1})
                # Data keeps flowing: node 1 never goes idle from 0's
                # point of view, so 0 would send it no explicit beacon.
                assert 1 not in a.idle_peers(window)
                await asyncio.sleep(window / 5)
            # No HEARTBEAT was ever sent, yet recency stayed fresh
            # throughout — strictly newer than the flood's start.
            assert all(kind != FrameKind.HEARTBEAT for _src, kind in sink)
            assert b.last_heard[0] > floor
            # Silence, and the link becomes beacon-eligible again.
            await asyncio.sleep(2 * window)
            assert 1 in a.idle_peers(window)
        finally:
            await a.stop()
            await b.stop()

    asyncio.run(scenario())


# -- broadcast encode-once ---------------------------------------------------------


def test_broadcast_encodes_payload_exactly_once(monkeypatch):
    """Regression: ``broadcast`` used to re-encode per link."""
    async def scenario():
        ports = dict(enumerate(_free_ports(3)))
        sink = []
        hubs = [PeerHub(i, ports,
                        lambda src, kind, payload, link, i=i:
                        sink.append((i, src, payload)))
                for i in range(3)]
        try:
            for hub in hubs:
                await hub.start()
            assert await _poll(
                lambda: all(len(h.links) == 2 for h in hubs))
            calls = []
            real_encode = peer_module.encode_frame

            def counting_encode(kind, payload=None):
                calls.append(kind)
                return real_encode(kind, payload)

            monkeypatch.setattr(peer_module, "encode_frame", counting_encode)
            fanout = hubs[0].broadcast(FrameKind.ENVELOPE, {"n": 7})
            assert fanout == 2
            assert len(calls) == 1  # one encode for two links
            assert await _poll(
                lambda: {(1, 0), (2, 0)} <=
                {(receiver, src) for receiver, src, _p in sink})
        finally:
            for hub in hubs:
                await hub.stop()

    asyncio.run(scenario())
