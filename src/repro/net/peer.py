"""Peer links: one asyncio TCP server + per-peer dialers per node process.

Each node process runs a :class:`PeerHub`.  The hub listens on the node's
own port, dials every other node, and keeps exactly one *registered* link
per peer node id (whichever handshake completed most recently wins — with
both sides dialing, two TCP connections per pair may exist; frames are
accepted from either, sends go out on the registered one).

Handshake: the connecting side writes a HELLO frame carrying
(protocol version, schema version, node id, role, cluster id).  The
accepting side validates and answers WELCOME — or REJECT with a reason,
then closes.  A version- or cluster-mismatched peer never gets past this
point, so the codec can assume both ends share one schema.

Reconnect: each dialer loops forever with capped exponential backoff
(reset after a successful handshake), because in an open system peers
come and go — a node process restarting must be re-adopted without any
operator action.

Drain: :meth:`PeerHub.stop` sends BYE on every live link, flushes the
write buffers, and only then closes — a graceful shutdown must not strand
frames in userspace buffers.

Throughput: sends never touch the socket directly.  Each link owns a
FIFO send queue and a flusher task that drains it, coalescing whatever
is queued into one ``writer.write`` (wrapped in a single BATCH frame
when more than one frame is pending) and honoring asyncio's write
backpressure via ``drain()`` between writes.  The flush policy has two
triggers: queue-empty (write whatever accumulated while the last write
drained) and size (cut a batch at ``batch_max_bytes``).
The queue itself is bounded: once ``max_pending_bytes`` of frames are
waiting (a peer stalled mid-``drain``), further sends are *shed* and
counted — a frozen peer must cost bounded memory, not the process.

Overload protection (two mechanisms, one per direction of causality):

* **Control/data queue split.**  Each link keeps *two* FIFO queues.
  Payload-bearing frames (envelopes, bus submissions and fan-out,
  cross-shard forwards) ride the big ``max_pending_bytes``-bounded
  queue; everything else — heartbeats, control replies,
  credit grants — rides a small separate queue with its own
  ``ctrl_pending_bytes`` budget that data saturation cannot consume.
  Before the split, a saturated link shed heartbeats along with data,
  so a live-but-stalled peer went fully silent and its receiver falsely
  suspected it.  The flusher always drains control ahead of data.
* **Credit-based flow control.**  A receiver grants the sender a window
  of ``credit_window`` data frames at link registration and tops it up
  with CREDIT frames as it consumes (every ``credit_window // 2``
  envelopes).  The flusher stops writing data frames when the window is
  exhausted — the sender *pauses* (frames wait in the bounded queue)
  instead of blind-shedding into a receiver that cannot keep up.
  Control frames are never credit-gated, so grants and liveness flow
  even while data is stalled.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Any, Callable

from repro.runtime.metrics import HistogramMetric

from .codec import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    FrameKind,
    WireError,
    encode_frame,
    hello_payload,
    hello_problem,
    wrap_batch,
)

#: Cap on the dialer's exponential backoff between reconnect attempts.
RECONNECT_MAX = 2.0
RECONNECT_BASE = 0.05

#: Cut a coalesced write once this many payload bytes are gathered.
BATCH_MAX_BYTES = 256 * 1024
#: Bound on *data* frames queued behind a non-draining link before shedding.
MAX_PENDING_BYTES = 4 * 1024 * 1024
#: Separate shed-exempt budget for control/liveness frames: data
#: saturation must never silence heartbeats or credit grants.  Control
#: frames are small; a backlog this deep means the socket itself is
#: wedged, at which point suspicion is correct.
CTRL_PENDING_BYTES = 256 * 1024
#: Data frames a receiver lets a sender keep in flight before the
#: sender's flusher pauses; replenished by CREDIT grants at half-window.
CREDIT_WINDOW_FRAMES = 1024
#: asyncio transport write-buffer high watermark (drain() blocks above).
WRITE_HIGH_WATER = 256 * 1024

#: Frame kinds subject to the data bound + credit gating; everything
#: else is control-class (shed-exempt budget, never credit-gated).
#: Alongside envelopes, the bus replication stream (SHARD_FWD
#: submissions, BUS_OP fan-out and sync replay) is payload-bearing,
#: unbounded-volume traffic:
#: it must get backpressure from the big credit-gated queue, not
#: overflow the small control budget and shed — a shed BUS_OP is a hole
#: in a replica's log.  Heartbeats and grants keep their own lane.
_DATA_KINDS = frozenset({FrameKind.ENVELOPE, FrameKind.SHARD_FWD,
                         FrameKind.BUS_OP})


class PeerLink:
    """One live, handshake-complete connection to a peer.

    Owns the per-link send state: the FIFO queue of already-encoded
    frames, its byte total, the event its flusher sleeps on, and the
    shed counter.  FIFO queue + single flusher is what makes batching
    order-preserving within a link.
    """

    __slots__ = ("node", "role", "reader", "writer", "opened_at",
                 "queue", "queue_bytes", "ctrl_queue", "ctrl_bytes",
                 "wake", "frames_shed", "credit_stalled", "closing")

    def __init__(self, node: int, role: str,
                 reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.node = node
        self.role = role
        self.reader = reader
        self.writer = writer
        self.opened_at = time.monotonic()
        #: Data-frame FIFO of (encoded frame, perf_counter at enqueue) —
        #: the second element times the enqueue->flush wire-path stage.
        self.queue: deque[tuple[bytes, float]] = deque()
        self.queue_bytes = 0
        #: Control/liveness FIFO with its own shed-exempt budget; the
        #: flusher drains it ahead of data and never credit-gates it.
        self.ctrl_queue: deque[tuple[bytes, float]] = deque()
        self.ctrl_bytes = 0
        self.wake = asyncio.Event()
        self.frames_shed = 0
        #: Flusher is currently paused on an exhausted credit window
        #: (edge flag so the stall counter counts episodes, not polls).
        self.credit_stalled = False
        self.closing = False

    def __repr__(self):
        return f"<PeerLink {self.role}:{self.node}>"


class PeerHub:
    """The per-process connection manager (see module docstring).

    Parameters
    ----------
    node_id:
        This node's id.
    ports:
        ``{node_id: tcp_port}`` for every node in the cluster, this one
        included (the hub listens on ``ports[node_id]``).
    on_frame:
        ``(src_node, kind, payload, link)`` callback for every decoded
        frame from a handshake-complete link.  Runs on the event loop;
        exceptions are logged and the offending connection dropped.
    on_batch_end:
        Optional ``()`` callback after the last ``on_frame`` of each
        inbound read batch, before the link awaits more bytes.
    on_peer_up:
        Optional ``(node)`` callback when a *node* link registers.
    """

    def __init__(
        self,
        node_id: int,
        ports: dict[int, int],
        on_frame: Callable[[int, FrameKind, Any, PeerLink], None],
        *,
        host: str = "127.0.0.1",
        cluster_id: str = "actorspace",
        on_batch_end: Callable[[], None] | None = None,
        on_peer_up: Callable[[int], None] | None = None,
        log: Callable[[str], None] | None = None,
        batch_max_bytes: int = BATCH_MAX_BYTES,
        max_pending_bytes: int = MAX_PENDING_BYTES,
        ctrl_pending_bytes: int = CTRL_PENDING_BYTES,
        credit_window: int = CREDIT_WINDOW_FRAMES,
    ):
        self.node_id = node_id
        self.ports = dict(ports)
        self.host = host
        self.cluster_id = cluster_id
        self.on_frame = on_frame
        self.on_batch_end = on_batch_end
        self.on_peer_up = on_peer_up
        self._log = log or (lambda text: None)
        self.batch_max_bytes = batch_max_bytes
        self.max_pending_bytes = max_pending_bytes
        self.ctrl_pending_bytes = ctrl_pending_bytes
        #: Data frames a peer may have in flight to us before pausing;
        #: 0 disables credit gating entirely.
        self.credit_window = credit_window
        #: Wire-path stage timers (seconds, perf_counter deltas).
        self.h_send_queue = HistogramMetric("send_queue", 4096)
        self.h_decode = HistogramMetric("decode", 4096)
        self.h_deliver = HistogramMetric("deliver", 4096)
        #: Registered node links: peer node id -> live link.
        self.links: dict[int, PeerLink] = {}
        #: Wall-clock (monotonic) instant we last received any frame from
        #: each peer node; the TcpTransport's heartbeat oracle reads this.
        self.last_heard: dict[int, float] = {}
        #: Monotonic instant we last queued any frame *to* each peer node;
        #: the runtime suppresses explicit heartbeats while data flows
        #: (the peer's oracle counts those frames as liveness already).
        self.last_sent: dict[int, float] = {}
        self.frames_in = 0
        self.frames_out = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.writes = 0
        self.batches_out = 0
        self.batches_in = 0
        self.frames_shed = 0
        #: High-water mark of any single link's data send queue, in bytes
        #: — how close the run came to the shed bound.
        self.queue_peak_bytes = 0
        self.handshakes_rejected = 0
        self.reconnects = 0
        #: Credit flow control: remaining data-frame window per peer node
        #: (what *we* may still send), envelopes consumed since our last
        #: grant to each peer, and the episode/grant counters.
        self.data_credit: dict[int, int] = {}
        self.data_consumed: dict[int, int] = {}
        self.credit_stalls = 0
        self.credit_grants_in = 0
        self.credit_grants_out = 0
        self._server: asyncio.AbstractServer | None = None
        self._tasks: set[asyncio.Task] = set()
        self._running = False

    # -- lifecycle --------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener and start dialing every other node."""
        self._running = True
        self._server = await asyncio.start_server(
            self._on_inbound, self.host, self.ports[self.node_id]
        )
        for peer in sorted(self.ports):
            if peer != self.node_id:
                self._spawn(self._dial_loop(peer))

    async def stop(self, drain: bool = True) -> None:
        """Graceful shutdown: flush queues, BYE on every link, then close."""
        self._running = False
        if drain:
            for link in list(self.links.values()):
                try:
                    # Let the flusher empty the send queue first so BYE
                    # stays the last frame on the stream, then write it
                    # directly (the flusher may already be gone).
                    await self._drain_link(link, timeout=1.0)
                    link.closing = True
                    link.wake.set()
                    link.writer.write(encode_frame(FrameKind.BYE, None))
                    await asyncio.wait_for(link.writer.drain(), timeout=1.0)
                except (OSError, asyncio.TimeoutError):
                    pass
        for link in list(self.links.values()):
            link.closing = True
            link.wake.set()
            link.writer.close()
        self.links.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()

    def _spawn(self, coro) -> None:
        task = asyncio.ensure_future(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    # -- sending ----------------------------------------------------------------

    def connected(self, node: int) -> bool:
        """Is there a registered, live link to ``node`` right now?"""
        return node in self.links

    def send(self, node: int, kind: FrameKind, payload: Any = None) -> bool:
        """Queue one frame to peer ``node``; False when no link is up.

        Frames go to the link's send queue and are coalesced onto the
        socket by its flusher; a peer that dies with frames in flight
        simply loses them — exactly the at-most-once link behavior the
        dead-letter queue exists to compensate.  A link whose queue is
        over ``max_pending_bytes`` (stalled peer) sheds the frame and
        answers False, same as no link at all.
        """
        link = self.links.get(node)
        if link is None:
            return False
        return self.send_link(link, kind, payload)

    def send_link(self, link: PeerLink, kind: FrameKind, payload: Any = None) -> bool:
        """Queue one frame on an explicit link (control replies)."""
        try:
            data = encode_frame(kind, payload)
        except WireError as exc:
            self._log(f"send to {link!r} failed: {exc}")
            return False
        return self._enqueue(link, data, kind in _DATA_KINDS)

    def broadcast(self, kind: FrameKind, payload: Any = None,
                  exclude: tuple = ()) -> int:
        """Send one frame to every registered node link; returns count.

        The frame is encoded exactly once; every link queues the same
        bytes object (the frame body is identical per peer by design).
        """
        targets = [self.links[node] for node in sorted(self.links)
                   if node not in exclude]
        if not targets:
            return 0
        try:
            data = encode_frame(kind, payload)
        except WireError as exc:
            self._log(f"broadcast encode failed: {exc}")
            return 0
        is_data = kind in _DATA_KINDS
        return sum(1 for link in targets if self._enqueue(link, data, is_data))

    def _enqueue(self, link: PeerLink, data: bytes, is_data: bool = True) -> bool:
        """FIFO-queue encoded bytes on ``link``; shed when over the bound.

        Data frames ride the big ``max_pending_bytes`` queue; control
        frames ride the separate shed-exempt-from-data budget, so a
        saturated data queue can never silence liveness or credit.
        ``last_sent`` is deliberately *not* touched here — a frame that
        only made it into a userspace queue proves nothing to the peer's
        liveness oracle; the flusher records it after the actual write.
        """
        if link.closing or link.writer.is_closing():
            return False
        budget = self.max_pending_bytes if is_data else self.ctrl_pending_bytes
        used = link.queue_bytes if is_data else link.ctrl_bytes
        if used + len(data) > budget:
            link.frames_shed += 1
            self.frames_shed += 1
            return False
        if is_data:
            link.queue.append((data, time.perf_counter()))
            link.queue_bytes += len(data)
            if link.queue_bytes > self.queue_peak_bytes:
                self.queue_peak_bytes = link.queue_bytes
        else:
            link.ctrl_queue.append((data, time.perf_counter()))
            link.ctrl_bytes += len(data)
        link.wake.set()
        self.frames_out += 1
        self.bytes_out += len(data)
        return True

    def idle_peers(self, window: float) -> list[int]:
        """Node links with no outbound frame within ``window`` seconds.

        The heartbeat loop beacons only these: a peer we are actively
        sending data to refreshes its recency oracle with every frame,
        so an explicit HEARTBEAT would be pure overhead on a busy link.
        """
        now = time.monotonic()
        return [node for node in sorted(self.links)
                if now - self.last_sent.get(node, 0.0) >= window]

    # -- flushing ----------------------------------------------------------------

    def _next_chunks(self, link: PeerLink) -> list[bytes]:
        """Pop the next coalesced write off ``link``: control ahead of data.

        Control frames always flow; data frames are additionally gated
        by the peer's remaining credit window (node links only).  An
        empty return with data still queued means the flusher should go
        back to sleep — a CREDIT grant will wake it.
        """
        now = time.perf_counter()
        chunks: list[bytes] = []
        size = 0
        while link.ctrl_queue and size < self.batch_max_bytes:
            nxt, t_enq = link.ctrl_queue[0]
            if chunks and size + len(nxt) + 9 > MAX_FRAME_BYTES:
                return chunks  # batch header + chunks must stay a legal frame
            link.ctrl_queue.popleft()
            link.ctrl_bytes -= len(nxt)
            self.h_send_queue.observe(now - t_enq)
            chunks.append(nxt)
            size += len(nxt)
        gated = link.role == "node"
        avail = self.data_credit.get(link.node, self.credit_window) \
            if gated else -1
        taken = 0
        while link.queue and size < self.batch_max_bytes \
                and (avail < 0 or taken < avail):
            nxt, t_enq = link.queue[0]
            if chunks and size + len(nxt) + 9 > MAX_FRAME_BYTES:
                break
            link.queue.popleft()
            link.queue_bytes -= len(nxt)
            self.h_send_queue.observe(now - t_enq)
            chunks.append(nxt)
            size += len(nxt)
            taken += 1
        if gated:
            if taken:
                self.data_credit[link.node] = avail - taken
            # Edge-count stall episodes: data waiting, window exhausted.
            stalled = bool(link.queue) and (avail - taken) <= 0
            if stalled and not link.credit_stalled:
                self.credit_stalls += 1
                self._log(f"credit stall on {link.node}: "
                          f"{len(link.queue)} data frames waiting")
            link.credit_stalled = stalled
        return chunks

    async def _flush_loop(self, link: PeerLink) -> None:
        """Drain ``link``'s send queues until it closes (one task per link).

        Coalesces every queued frame into as few writes as possible:
        runs of more than one frame travel as a single BATCH frame.
        ``drain()`` between writes is the backpressure seam — while a
        slow peer keeps it blocked, frames accumulate in the queue (and
        are shed past ``max_pending_bytes``), not in the transport.
        Control frames always go first; data stops when the credit
        window is exhausted and resumes when a CREDIT grant wakes us.
        """
        try:
            while True:
                await link.wake.wait()
                link.wake.clear()
                while True:
                    chunks = self._next_chunks(link)
                    if not chunks:
                        break
                    if len(chunks) == 1:
                        link.writer.write(chunks[0])
                    else:
                        link.writer.write(wrap_batch(chunks))
                        self.batches_out += 1
                    self.writes += 1
                    if link.role == "node":
                        # Liveness is a wire fact: record the send only
                        # once bytes actually left for the socket.
                        self.last_sent[link.node] = time.monotonic()
                    await link.writer.drain()
                if link.closing:
                    return
        except (OSError, WireError, RuntimeError, asyncio.CancelledError) as exc:
            # Connection died mid-flush (or shutdown); the serve loop
            # owns unregistration and close.
            if not isinstance(exc, asyncio.CancelledError):
                self._log(f"flusher for {link!r} died: {exc!r}")

    async def _drain_link(self, link: PeerLink, timeout: float = 1.0) -> None:
        """Wait (bounded) until ``link``'s queue and transport are empty."""
        deadline = time.monotonic() + timeout
        while (link.queue or link.ctrl_queue) and time.monotonic() < deadline:
            await asyncio.sleep(0.005)
        try:
            await asyncio.wait_for(link.writer.drain(),
                                   timeout=max(deadline - time.monotonic(), 0.05))
        except (OSError, asyncio.TimeoutError):
            pass

    # -- inbound connections ----------------------------------------------------

    async def _on_inbound(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        """Server side of the handshake: validate HELLO, WELCOME, serve."""
        decoder = FrameDecoder()
        pending: deque = deque()
        try:
            frame = await asyncio.wait_for(
                self._read_one(reader, decoder, pending), timeout=5.0)
        except (asyncio.TimeoutError, WireError, OSError, asyncio.IncompleteReadError):
            writer.close()
            return
        if frame is None or frame[0] != FrameKind.HELLO:
            writer.close()
            return
        problem = hello_problem(frame[1], self.cluster_id)
        if problem is not None:
            self.handshakes_rejected += 1
            self._log(f"rejected inbound handshake: {problem}")
            try:
                writer.write(encode_frame(FrameKind.REJECT, {"reason": problem}))
                await writer.drain()
            except OSError:
                pass
            writer.close()
            return
        peer, role = frame[1]["node"], frame[1]["role"]
        try:
            writer.write(encode_frame(FrameKind.WELCOME,
                                      {"node": self.node_id}))
            await writer.drain()
        except OSError:
            writer.close()
            return
        link = PeerLink(peer, role, reader, writer)
        if role == "node":
            self._register(link)
        await self._serve_link(link, decoder, pending)

    # -- outbound connections ---------------------------------------------------

    async def _dial_loop(self, peer: int) -> None:
        """Connect to ``peer`` forever, with capped exponential backoff."""
        backoff = RECONNECT_BASE
        while self._running:
            dialed = None
            try:
                dialed = await self._dial_once(peer)
            except (OSError, asyncio.TimeoutError, WireError, ConnectionError,
                    asyncio.IncompleteReadError):
                dialed = None
            if dialed is not None:
                # Keep the handshake decoder AND any frames already
                # buffered behind the WELCOME: the peer registers this
                # link the instant it accepts, so real traffic can share
                # a TCP segment with the handshake reply.  A fresh
                # decoder here silently ate those frames.
                link, decoder, pending = dialed
                backoff = RECONNECT_BASE
                self._register(link)
                await self._serve_link(link, decoder, pending)
                if self._running:
                    self.reconnects += 1
            if not self._running:
                return
            await asyncio.sleep(backoff)
            backoff = min(backoff * 2, RECONNECT_MAX)

    async def _dial_once(
        self, peer: int,
    ) -> tuple[PeerLink, FrameDecoder, deque] | None:
        """One connect + handshake attempt; None on rejection.

        Returns the link *plus* the handshake decoder and any frames that
        arrived bundled with the WELCOME, so the serve loop never drops
        bytes the peer sent the instant it registered us.
        """
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(self.host, self.ports[peer]), timeout=2.0)
        writer.write(encode_frame(
            FrameKind.HELLO, hello_payload(self.node_id, "node", self.cluster_id)))
        await writer.drain()
        decoder = FrameDecoder()
        pending: deque = deque()
        frame = await asyncio.wait_for(
            self._read_one(reader, decoder, pending), timeout=5.0)
        if frame is None or frame[0] != FrameKind.WELCOME:
            reason = frame[1].get("reason") if frame and isinstance(frame[1], dict) else "closed"
            self.handshakes_rejected += 1
            self._log(f"dial to node {peer} rejected: {reason}")
            writer.close()
            return None
        return PeerLink(peer, "node", reader, writer), decoder, pending

    # -- shared serving ---------------------------------------------------------

    async def _read_one(self, reader: asyncio.StreamReader,
                        decoder: FrameDecoder,
                        pending: deque) -> tuple[FrameKind, Any] | None:
        """Read until one complete frame is available (handshake phase).

        Any frames decoded beyond the first are pushed onto ``pending``
        for the serve loop — a peer may pipeline traffic right behind its
        handshake frame, and those bytes must not be discarded.
        """
        while True:
            if pending:
                return pending.popleft()
            data = await reader.read(65536)
            if not data:
                return None
            self.bytes_in += len(data)
            pending.extend(decoder.feed(data))

    async def _serve_link(self, link: PeerLink, decoder: FrameDecoder,
                          pending: deque | None = None) -> None:
        """Pump frames off ``link`` until it dies or BYE arrives."""
        pending = pending if pending is not None else deque()
        try:
            link.writer.transport.set_write_buffer_limits(
                high=WRITE_HIGH_WATER)
        except (AttributeError, RuntimeError):  # pragma: no cover - exotic transports
            pass
        flusher = asyncio.ensure_future(self._flush_loop(link))
        self._tasks.add(flusher)
        flusher.add_done_callback(self._tasks.discard)
        batches_seen = decoder.batches_in
        try:
            while True:
                goodbye = False
                while pending:
                    kind, payload = pending.popleft()
                    self.frames_in += 1
                    if link.role == "node":
                        self.last_heard[link.node] = time.monotonic()
                    if kind == FrameKind.BYE:
                        goodbye = True
                        break
                    if kind == FrameKind.CREDIT:
                        # Flow-control grants are link-layer traffic:
                        # top up the window and wake the flusher; the
                        # runtime never sees them.
                        self._on_credit(link, payload)
                        continue
                    t0 = time.perf_counter()
                    try:
                        self.on_frame(link.node, kind, payload, link)
                    except Exception as exc:  # noqa: BLE001 - isolate handlers
                        self._log(f"frame handler failed on {kind.name} "
                                  f"from {link!r}: {exc!r}")
                    self.h_deliver.observe(time.perf_counter() - t0)
                    if kind in _DATA_KINDS and link.role == "node":
                        # Grant-back must mirror the sender's spend: the
                        # flusher debits credit for every data-class
                        # frame, so SHARD_FWD consumption replenishes
                        # the window exactly like ENVELOPE does.
                        self._note_consumed(link.node)
                if self.on_batch_end is not None:
                    self.on_batch_end()
                if goodbye:
                    break
                data = await link.reader.read(65536)
                if not data:
                    break
                self.bytes_in += len(data)
                try:
                    t0 = time.perf_counter()
                    pending.extend(decoder.feed(data))
                    self.h_decode.observe(time.perf_counter() - t0)
                except WireError as exc:
                    self._log(f"corrupt stream from {link!r}: {exc}")
                    break
                if decoder.batches_in != batches_seen:
                    self.batches_in += decoder.batches_in - batches_seen
                    batches_seen = decoder.batches_in
        except (OSError, asyncio.CancelledError):
            pass
        finally:
            link.closing = True
            link.wake.set()
            flusher.cancel()
            self._unregister(link)
            link.writer.close()

    # -- credit flow control ----------------------------------------------------

    def _on_credit(self, link: PeerLink, payload: Any) -> None:
        """A peer granted us more data-frame window; wake its flusher."""
        n = payload.get("n", 0) if isinstance(payload, dict) else 0
        if link.role != "node" or not isinstance(n, int) or n <= 0:
            return
        self.credit_grants_in += 1
        node = link.node
        # Cap at the full window so post-reconnect double-grants cannot
        # inflate the window; drift self-heals toward ``credit_window``.
        self.data_credit[node] = min(
            self.credit_window, self.data_credit.get(node, self.credit_window) + n)
        registered = self.links.get(node)
        if registered is not None:
            registered.wake.set()

    def _note_consumed(self, node: int) -> None:
        """Count one consumed envelope; grant credit back at half-window."""
        consumed = self.data_consumed.get(node, 0) + 1
        if consumed >= max(1, self.credit_window // 2) \
                and self.send(node, FrameKind.CREDIT, {"n": consumed}):
            self.credit_grants_out += 1
            consumed = 0
        self.data_consumed[node] = consumed

    # -- link registry ----------------------------------------------------------

    def _register(self, link: PeerLink) -> None:
        previous = self.links.get(link.node)
        self.links[link.node] = link
        if previous is not None and previous is not link:
            # A duplicate connection won the registration race (late
            # simultaneous dial).  Frames still queued on the losing
            # link would be orphaned — credit grants wake only the
            # *registered* link, so its flusher would sleep on a stalled
            # window forever.  Migrate the backlog, retire the loser.
            link.queue.extend(previous.queue)
            link.queue_bytes += previous.queue_bytes
            link.ctrl_queue.extend(previous.ctrl_queue)
            link.ctrl_bytes += previous.ctrl_bytes
            previous.queue.clear()
            previous.queue_bytes = 0
            previous.ctrl_queue.clear()
            previous.ctrl_bytes = 0
            previous.closing = True
            previous.wake.set()
            link.wake.set()
        self.last_heard[link.node] = time.monotonic()
        # The handshake frames just crossed the wire, so the peer's
        # recency oracle is fresh as of now (last_sent is otherwise
        # only advanced by the flusher, after real writes).
        self.last_sent[link.node] = time.monotonic()
        # Fresh link, fresh window on both sides: sender restarts with a
        # full grant, receiver restarts its consumed count.
        self.data_credit[link.node] = self.credit_window
        self.data_consumed[link.node] = 0
        if previous is None and self.on_peer_up is not None:
            self.on_peer_up(link.node)

    def _unregister(self, link: PeerLink) -> None:
        if link.role != "node":
            return
        if self.links.get(link.node) is link:
            del self.links[link.node]

    def metrics_snapshot(self) -> dict:
        """Link-layer counters, read now (the counters stay plain
        attributes: nothing becomes a call per frame).  The host registers
        this as its registry's ``hub`` source."""
        return {
            "links_up": len(self.links),
            "ctrl_buffer_bytes": sum(
                link.ctrl_bytes for link in self.links.values()),
            "credit": {
                "window": self.credit_window,
                "stalls": self.credit_stalls,
                "grants_in": self.credit_grants_in,
                "grants_out": self.credit_grants_out,
                "data_credit": {str(node): credit for node, credit
                                in sorted(self.data_credit.items())},
            },
            "frames_in": self.frames_in,
            "frames_out": self.frames_out,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "writes": self.writes,
            "batches_out": self.batches_out,
            "batches_in": self.batches_in,
            "frames_shed": self.frames_shed,
            # Data queues only: the fault drill's bounded-memory
            # assertion gates it against ``max_pending_bytes``.
            "send_buffer_bytes": sum(
                link.queue_bytes for link in self.links.values()),
            "queue_peak_bytes": self.queue_peak_bytes,
            "handshakes_rejected": self.handshakes_rejected,
            "reconnects": self.reconnects,
            "stage_latency": {
                "send_queue": self.h_send_queue.summary(),
                "decode": self.h_decode.summary(),
                "deliver": self.h_deliver.summary(),
            },
        }
