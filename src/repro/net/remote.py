"""The distribution seam: Transport and bus over TCP.

Two pieces make a node process a full ActorSpace replica:

* :class:`TcpTransport` — the existing
  :class:`~repro.runtime.transport.Transport` interface backed by real
  links.  Latency is real, so ``try_deliver`` answers 0.0 ("send now")
  or ``None`` ("cannot send"), and doubles as the failure detector's
  heartbeat oracle: probing *peer -> me* consults how recently the hub
  heard real bytes from the peer.  This is what lets the PR-3
  :class:`~repro.runtime.failure.FailureDetector` run unmodified — its
  suspect/confirm path is now driven by genuinely missed heartbeats,
  observed from the host's one local node.
* :class:`RemoteSequencerBus` — the driver that runs one shard's
  :class:`~repro.runtime.sequencer.SequencerCore` (the protocol the
  simulator runs) over SHARD_FWD/BUS_OP/SYNC_REQ/SYNC_DONE frames; a
  node's plane is a :class:`~repro.shard.ShardedBus` of them.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from repro.runtime.bus import BUS_PRIORITY, VisibilityOp
from repro.runtime.sequencer import OP, SUBMIT, SYNC_REQ, SequencerCore
from repro.runtime.transport import Transport

from .codec import FrameKind

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import NodeRuntime


class TcpTransport(Transport):
    """Link liveness + heartbeat-recency oracle over the peer hub.

    The simulator's transports *decide* a latency and let the event queue
    enact it; over real sockets the latency just happens.  So this
    transport answers the two questions the runtime actually asks:

    * ``deliver_latency(me, dst)`` / ``try_deliver(me, dst)`` — may I
      route to ``dst`` right now?  ``NodeDownError`` / ``None`` when
      ``dst`` is confirmed down (terminal, feeds the dead-letter queue).
    * ``try_deliver(peer, me)`` — the detector's heartbeat probe:
      did real bytes from ``peer`` arrive within the recency window?
    """

    def __init__(self, runtime: "NodeRuntime", heartbeat_window: float):
        super().__init__()
        self.runtime = runtime
        #: How recently (wall seconds) a peer must have been heard for a
        #: heartbeat probe to succeed; > one heartbeat interval so a
        #: single delayed beacon is not a miss.
        self.heartbeat_window = heartbeat_window
        #: Nodes confirmed down by this process's detector.
        self.crashed: set[int] = set()

    def node_is_down(self, node: int) -> bool:
        return node in self.crashed

    def crash_node(self, node: int) -> None:
        self.crashed.add(node)

    def recover_node(self, node: int) -> None:
        self.crashed.discard(node)

    def recency(self, node: int) -> float | None:
        """Seconds since *any* frame arrived from ``node`` (None: never).

        This is the piggybacked-liveness oracle: every inbound frame —
        envelope, bus op, batch member — refreshes the hub's last-heard
        table, so a peer too busy to slot explicit HEARTBEATs into its
        write stream still reads as alive as long as its data flows.
        The sender-side complement lives in the runtime's heartbeat
        loop, which suppresses explicit beacons on links that carried
        data within the last interval.
        """
        heard_at = self.runtime.hub.last_heard.get(node)
        if heard_at is None:
            return None
        return time.monotonic() - heard_at

    def try_deliver(self, src_node: int, dst_node: int) -> float | None:
        self.attempts += 1
        me = self.runtime.node_id
        if dst_node == me and src_node != me:
            # Heartbeat probe: has src been heard within the window?
            since = self.recency(src_node)
            if since is None or since > self.heartbeat_window:
                self.drops += 1
                return None
            return 0.0
        if dst_node in self.crashed or src_node in self.crashed:
            self.drops += 1
            return None
        if dst_node != me and not self.runtime.hub.connected(dst_node):
            self.drops += 1
            return None
        return 0.0

    def deliver_latency(self, src_node: int, dst_node: int,
                        max_retries: int = 100) -> float:
        # Confirmed crashes are terminal, never retried (matches
        # NetworkTransport): the router turns this into a DLQ capture.
        if dst_node in self.crashed or src_node in self.crashed:
            self.attempts += 1
            self.drops += 1
            from repro.core.errors import NodeDownError

            down = dst_node if dst_node in self.crashed else src_node
            raise NodeDownError(f"node {down} is down")
        self.attempts += 1
        return 0.0

    def timeout_interval(self, src_node: int, dst_node: int) -> float:
        return self.heartbeat_window


class RemoteSequencerBus:
    """The TCP driver of one shard's sequencer protocol.

    The protocol is :class:`~repro.runtime.sequencer.SequencerCore`,
    the one the simulator runs; this class is its host port over a node
    process: ``SHARD_FWD``/``BUS_OP``/``SYNC_REQ``/``SYNC_DONE`` frames
    through the hub (a frame to this node itself is fed straight back
    in), the coordinator's cursor, the node's event heap for timers.
    """

    def __init__(self, runtime: "NodeRuntime", shard_id: int, home_node: int):
        self.runtime = runtime
        #: Which visibility-plane shard this bus orders.
        self.shard_id = shard_id
        self.protocol_messages = 0
        self.core = core = SequencerCore(runtime.node_id, runtime.nodes,
                                         home_node, self)
        # Liveness changes and seat moves go straight to the core.
        self.on_node_down = core.on_node_down
        self.on_node_recovered = core.on_node_recovered
        self.rebalance = core.rebalance

    sequencer_node = property(lambda self: self.core.seat)

    # -- inputs (defined here so the span recorder can wrap them) ----------------

    def submit(self, op: VisibilityOp) -> None:
        """Accept a local op for global ordering (never raises)."""
        self.core.submit(op)

    def on_submit(self, from_node: int, op: VisibilityOp) -> None:
        self.core.on_submit(from_node, op)

    def on_op(self, seq: int, op: VisibilityOp) -> None:
        self.core.on_op(seq, op)

    def on_sync_req(self, node: int, from_seq: int, round: int) -> None:
        self.core.on_sync_req(node, from_seq, round)

    def on_peer_up(self, node: int) -> None:
        """A peer link registered: catch up across it if either end holds
        the seat (every replica mirrors the log a restarted seat missed)."""
        if self.core.seat in (node, self.core.me):
            self.core.request_sync()

    # -- the core's port ---------------------------------------------------------

    def send(self, to: int, msg: str, a, b) -> None:
        core = self.core
        if to == core.me:  # fed straight back in
            return core.on_op(a, b) if msg is OP else core.on_submit(to, a)
        self.protocol_messages += 1
        # An unreachable peer is fine: a submission stays unacked and is
        # re-driven, a lost op or replay is asked for again.  Ops and
        # submissions ride the credit-controlled data class.
        if msg is OP:
            kind, payload = FrameKind.BUS_OP, {"seq": a, "op": b}
        elif msg is SUBMIT:
            kind, payload = FrameKind.SHARD_FWD, {"op": a}
        elif msg is SYNC_REQ:
            kind, payload = FrameKind.SYNC_REQ, {
                "node": core.me, "from_seq": a, "round": b}
        else:
            kind, payload = FrameKind.SYNC_DONE, {
                "node": core.me, "upto": a, "round": b}
        payload["shard"] = self.shard_id
        self.runtime.hub.send(to, kind, payload)

    def is_down(self, node: int) -> bool:
        return self.runtime.transport.node_is_down(node)

    def cursor(self) -> int:
        return self.runtime.coordinator._shard_cursors[self.shard_id]

    def deliver(self, seq: int, op: VisibilityOp) -> None:
        self.runtime.coordinator.on_bus_delivery(seq, op)

    def timer(self, delay: float, fn) -> None:
        runtime = self.runtime
        runtime.events.schedule(runtime.clock.now + delay, fn,
                                priority=BUS_PRIORITY, tag=("bus_ctl",))

    def sequenced(self, seq: int, op: VisibilityOp) -> None:
        event_log = self.runtime.event_log
        if event_log is not None and event_log.enabled:
            event_log.emit(
                "bus_sequenced", self.runtime.clock.now, self.core.me, None,
                global_seq=seq, op=op.kind.value, origin_node=op.origin_node,
                origin_seq=op.origin_seq)

    def failover(self, leader: int, reason: str) -> None:
        self.runtime.tracer.on_failover(
            node=leader, t=self.runtime.clock.now, protocol="sequencer-tcp",
            reason=reason, new_leader=leader)

    def status(self) -> dict:
        return {**self.core.status(), "applied": self.cursor(),
                "protocol_messages": self.protocol_messages}
