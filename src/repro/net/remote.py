"""The distribution seam: Transport, FailureDetector, and bus over TCP.

Three pieces make a node process a full ActorSpace replica:

* :class:`TcpTransport` — the existing
  :class:`~repro.runtime.transport.Transport` interface backed by real
  links.  Latency is real, so ``try_deliver`` answers 0.0 ("send now")
  or ``None`` ("cannot send"), and doubles as the failure detector's
  heartbeat oracle: probing *peer -> me* consults how recently the hub
  heard real bytes from the peer.  This is what lets the PR-3
  :class:`~repro.runtime.failure.FailureDetector` run unmodified — its
  suspect/confirm path is now driven by genuinely missed heartbeats.
* :class:`NetFailureDetector` — the simulator's detector narrowed to a
  single observer (this process's node); every process runs its own.
* :class:`RemoteSequencerBus` — the PR-3 sequencer protocol for one
  shard's stream, spoken in SHARD_FWD/BUS_OP/SYNC_REQ frames:
  submissions travel to the shard's sequencer node, get stamped into
  that shard's order with per-origin FIFO holdback, and fan out to
  every replica.  On sequencer death each replica independently
  re-elects (the shard's home seat if live, else the lowest node it
  still believes live) and re-drives its unacked submissions; dedup by
  (origin, origin_seq) keeps re-driven ops idempotent.  A recovering
  replica catches up by SYNC_REQ log replay.
* :class:`ShardedRemoteBus` — a node's visibility plane: one
  :class:`RemoteSequencerBus` per shard of the map (``n >= 1``).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from repro.runtime.bus import BUS_PRIORITY, VisibilityOp
from repro.runtime.failure import FailureDetector
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
        #: Last HEARTBEAT received per peer: (peer clock stamp, local
        #: clock at receipt).  Echoed back in our next beacon so the
        #: peer can close an NTP-style four-timestamp exchange.
        self._hb_seen: dict[int, tuple[float, float]] = {}

    # -- heartbeat clock exchange ------------------------------------------------

    def on_heartbeat(self, src: int, payload) -> None:
        """Fold an inbound HEARTBEAT into the clock-offset estimate.

        Each beacon carries the sender's clock (``t``) plus an echo of
        the last beacon *we* sent it (``echo_t``, our clock when it
        left) and the hold time between receiving and echoing it
        (``echo_dt``).  That completes the four timestamps of one
        NTP-style sample — the periodic liveness traffic doubles as a
        free, continuously refreshing clock-sync stream.
        """
        if not isinstance(payload, dict):
            return
        t_peer = payload.get("t")
        if not isinstance(t_peer, (int, float)):
            return
        now = self.runtime.clock.now
        self._hb_seen[src] = (t_peer, now)
        echo_t = payload.get("echo_t")
        echo_dt = payload.get("echo_dt")
        if isinstance(echo_t, (int, float)) and isinstance(echo_dt, (int, float)):
            # Our beacon left at echo_t, reached the peer at
            # (t_peer - echo_dt) on its clock, and its reply left at
            # t_peer, arriving now.
            self.runtime.hub.clock_sync.add_sample(
                src, echo_t, t_peer - echo_dt, t_peer, now)

    def heartbeat_payload(self, dst: int) -> dict:
        """The beacon body for ``dst``: our clock + echo of its last one."""
        now = self.runtime.clock.now
        payload = {"node": self.runtime.node_id, "t": now}
        seen = self._hb_seen.get(dst)
        if seen is not None:
            t_peer, heard_at = seen
            payload["echo_t"] = t_peer
            payload["echo_dt"] = now - heard_at
        return payload

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


class NetFailureDetector(FailureDetector):
    """The PR-3 detector with one real vantage point: this process.

    ``_tick`` runs on the node's wall-clock event pump; the heartbeat
    probe consults the hub's last-heard table through
    :meth:`TcpTransport.try_deliver`.  Suspicion and confirmation
    therefore reflect genuinely missing bytes, not a model.  Recovery is
    *not* detected here — a confirmed-down peer reads as down forever in
    the transport — the frame-receive path notices returning peers and
    calls ``runtime.on_peer_recovered`` instead.
    """

    def __init__(self, runtime: "NodeRuntime", interval: float = 0.2,
                 suspect_after: int = 2, confirm_after: int = 4):
        super().__init__(runtime, interval=interval,
                         suspect_after=suspect_after,
                         confirm_after=confirm_after)
        self.observers = [runtime.node_id]


class RemoteSequencerBus:
    """The sequencer total-order protocol over BUS_* frames.

    Mirrors :class:`~repro.runtime.bus.SequencerBus` state per process:
    the sequenced log (for SYNC_REQ state transfer), per-origin FIFO
    holdback (only exercised at the sequencer), the unacked-submission
    set (re-driven after failover), and dedup of re-driven ops by
    ``(origin_node, origin_seq)``.

    Origin-side callbacks (``on_applied``/``on_rejected``) cannot cross
    the wire; the origin keeps its local op object and substitutes it
    when the sequenced copy comes back, so apply-time validation still
    reports to the caller that issued the op.
    """

    FAILOVER_DELAY = 0.05

    def __init__(self, runtime: "NodeRuntime", shard_id: int, home_node: int):
        self.runtime = runtime
        self.nodes = list(runtime.nodes)
        #: Which visibility-plane shard this bus orders.
        self.shard_id = shard_id
        #: Preferred sequencer seat (the shard map's assignment).  The
        #: role sticks here while the node is live, falls back to the
        #: lowest live node during an outage, and returns on recovery.
        self.home_node = home_node
        self.sequencer_node = home_node
        #: The sequenced log: per-shard seq -> op (SYNC_REQ replay source).
        self.log: dict[int, VisibilityOp] = {}
        self._next_seq = 0
        #: Highest seq present in ``log`` (watermark, so a freshly
        #: elected sequencer continues the order in O(1) instead of
        #: scanning the whole log on every sequenced op).
        self._log_high = -1
        #: Per-origin FIFO reassembly (sequencer role only).
        self._expected: dict[int, int] = {}
        self._holdback: dict[tuple[int, int], VisibilityOp] = {}
        #: Ops stamped into the global order, keyed by identity that
        #: survives re-drives: (origin_node, origin_seq).
        self._sequenced: set[tuple[int, int]] = set()
        #: Local submissions not yet seen in the global order.
        self._unacked: dict[int, VisibilityOp] = {}
        #: Local op objects (with callbacks), substituted on fan-in.
        self._local_ops: dict[int, VisibilityOp] = {}
        self._redrive_scheduled = False
        self._gap_sync_scheduled = False
        self.protocol_messages = 0
        self.ops_sequenced = 0
        self.failovers = 0
        #: Optional :class:`repro.store.NodeStore`: sequenced ops are
        #: staged with their local delivery or fan-out as the effect the
        #: host's end-of-turn commit releases (transactional outbox), on
        #: the sequencer and replica paths alike, so a SIGKILL at any
        #: instant loses only ops no replica has seen.
        self.store = None

    # -- origin side -------------------------------------------------------------

    def submit(self, op: VisibilityOp) -> None:
        """Accept a local op for global ordering (never raises)."""
        self._local_ops[op.op_id] = op
        self._unacked[op.op_id] = op
        self._send_submit(op)

    def _send_submit(self, op: VisibilityOp) -> None:
        if (op.origin_node, op.origin_seq) in self._sequenced:
            return
        if self.sequencer_node == self.runtime.node_id:
            self._sequence(op)
            return
        self.protocol_messages += 1
        # An unreachable sequencer is fine: the op stays unacked and the
        # failover/reconnect paths re-drive it.  The submission is
        # payload-bearing traffic, so it rides the credit-controlled
        # data class on the wire (SHARD_FWD; BUS_SUBMIT from an older
        # peer is still handled).
        self.runtime.hub.send(self.sequencer_node, FrameKind.SHARD_FWD,
                              {"op": op, "shard": self.shard_id})

    # -- sequencer side ----------------------------------------------------------

    def on_submit(self, from_node: int, op: VisibilityOp) -> None:
        """A submission arrived; only meaningful if we are the sequencer."""
        if self.runtime.node_id != self.sequencer_node:
            # A stale submit aimed at a deposed sequencer; the origin
            # re-elects and re-drives on its own.
            return
        self.protocol_messages += 1
        self._sequence(op)

    def _sequence(self, op: VisibilityOp) -> None:
        origin = op.origin_node
        if (origin, op.origin_seq) in self._sequenced:
            return  # duplicate of a re-driven op that already made it
        # A freshly elected sequencer continues the order after the
        # highest seq it has observed (its log mirrors the fan-out) —
        # and never below what it has applied: after a restart from a
        # snapshot the log is truncated, and re-minting an applied seq
        # would be dropped everywhere as a replay overlap.
        self._next_seq = max(self._next_seq, self._log_high + 1,
                             self._applied_cursor())
        self._expected.setdefault(origin, 0)
        self._holdback[(origin, op.origin_seq)] = op
        while (origin, self._expected[origin]) in self._holdback:
            ready = self._holdback.pop((origin, self._expected[origin]))
            self._expected[origin] += 1
            seq = self._next_seq
            self._next_seq += 1
            self.ops_sequenced += 1
            self._sequenced.add((ready.origin_node, ready.origin_seq))
            self.log[seq] = ready
            self._log_high = max(self._log_high, seq)
            event_log = self.runtime.event_log
            if event_log is not None and event_log.enabled:
                event_log.emit(
                    "bus_sequenced", self.runtime.clock.now,
                    self.runtime.node_id, None, global_seq=seq,
                    op=ready.kind.value, origin_node=ready.origin_node,
                    origin_seq=ready.origin_seq,
                )
            self._once_durable(
                lambda seq=seq, op=ready: self._fan_out(seq, op), seq, ready)

    def _once_durable(self, effect, *record) -> None:
        """Run ``effect`` once ``record`` — a ``(seq, op)`` to persist,
        if given — and everything staged before it are on disk: at the
        host's next commit point, in staging order (at once when there
        is no store)."""
        if self.store is None:
            effect()
        elif record:
            self.store.append_op(*record, then=effect)
        else:
            self.store.defer(effect)

    def _fan_out(self, seq: int, op: VisibilityOp) -> None:
        for node in self.nodes:
            if node == self.runtime.node_id:
                self._deliver_local(seq, op)
            else:
                self.protocol_messages += 1
                self.runtime.hub.send(node, FrameKind.BUS_OP,
                                      {"seq": seq, "op": op,
                                       "shard": self.shard_id})

    # -- replica side ------------------------------------------------------------

    def on_op(self, seq: int, op: VisibilityOp) -> None:
        """A globally sequenced op arrived (fan-out or SYNC replay)."""
        first_sight = seq not in self.log
        self.log[seq] = op
        self._log_high = max(self._log_high, seq)
        self._sequenced.add((op.origin_node, op.origin_seq))
        self._expected[op.origin_node] = max(
            self._expected.get(op.origin_node, 0), op.origin_seq + 1)
        if op.origin_node == self.runtime.node_id:
            # Our own op echoed back — possibly from a *previous
            # incarnation* of this node (SYNC replay after a restart).
            # Continue origin numbering past it, or every op this
            # process mints would collide with a pre-crash (origin,
            # origin_seq) pair and be deduped into the void.
            origin_seqs = self.runtime.coordinator._origin_seqs
            origin_seqs[self.shard_id] = max(
                origin_seqs[self.shard_id], op.origin_seq + 1)
        # Outbox on the replica path too: the op is durable here before
        # the coordinator applies it, so this replica's recovery never
        # depends on the sequencer's disk.  A replayed duplicate is not
        # persisted twice, but still queues behind its first copy.
        record = (seq, op) if first_sight else ()
        self._once_durable(lambda: self._deliver_remote(seq, op), *record)

    def _deliver_remote(self, seq: int, op: VisibilityOp) -> None:
        self._deliver_local(seq, op)
        if self._applied_cursor() <= seq:
            # This op landed beyond the applied cursor: some earlier seq
            # is missing (lost frame, or fan-out raced a failover).  Ask
            # the sequencer to replay the hole after a debounce — the
            # stream self-heals instead of stalling at the gap forever.
            self._schedule_gap_sync()

    def _applied_cursor(self) -> int:
        """How far this replica has applied *this shard's* stream."""
        return self.runtime.coordinator._shard_cursors[self.shard_id]

    def _deliver_local(self, seq: int, op: VisibilityOp) -> None:
        local = self._local_ops.pop(op.op_id, None)
        self._unacked.pop(op.op_id, None)
        if seq < self._applied_cursor():
            return  # SYNC replay overlap: already applied here
        self.runtime.coordinator.on_bus_delivery(
            seq, local if local is not None else op)

    # -- state transfer ----------------------------------------------------------

    def restore_log(self, ops: dict[int, VisibilityOp]) -> None:
        """Rebuild bus state from persisted ops (recovery, pre-serve).

        Restores the log (so this node can serve SYNC_REQ and continue
        the order if elected sequencer), the dedup set, and the
        per-origin FIFO watermarks — without delivering anything: the
        caller replays ops into the coordinator separately.
        """
        for seq, op in ops.items():
            self.log.setdefault(seq, op)
            self._log_high = max(self._log_high, seq)
            self._sequenced.add((op.origin_node, op.origin_seq))
            self._expected[op.origin_node] = max(
                self._expected.get(op.origin_node, 0), op.origin_seq + 1)
        self._next_seq = max(self._next_seq, self._log_high + 1)

    def request_sync(self) -> None:
        """Ask the current sequencer to replay the log we have not applied."""
        if self.sequencer_node == self.runtime.node_id:
            return
        self.protocol_messages += 1
        self.runtime.hub.send(
            self.sequencer_node, FrameKind.SYNC_REQ,
            {"node": self.runtime.node_id,
             "from_seq": self._applied_cursor(),
             "shard": self.shard_id})

    def on_sync_req(self, node: int, from_seq: int, shard: int = 0) -> None:
        """Replay every logged op >= ``from_seq`` back to ``node``.

        The log is dense up to ``_log_high`` bar lost frames: walk the
        range and skip holes, no sort per request.  The replay queues
        behind this turn's commit — the log may hold staged ops.
        """
        def replay() -> None:
            for seq in range(max(from_seq, 0), self._log_high + 1):
                op = self.log.get(seq)
                if op is not None:
                    self.protocol_messages += 1
                    self.runtime.hub.send(node, FrameKind.BUS_OP,
                                          {"seq": seq, "op": op,
                                           "shard": self.shard_id})
        self._once_durable(replay)

    def on_peer_up(self, node: int) -> None:
        """A peer link registered; catch up if it holds our sequencer role."""
        if node == self.sequencer_node:
            self.request_sync()
        elif self.sequencer_node == self.runtime.node_id:
            # We hold the seat.  A (re)starting seat-holder must adopt
            # the existing stream before sequencing over it — otherwise
            # it would re-mint seq numbers replicas have already applied
            # and those ops would be silently skipped.  Every replica
            # mirrors the log, so the newly linked peer can serve the
            # replay; a current seat-holder gets an empty reply.
            self.protocol_messages += 1
            self.runtime.hub.send(node, FrameKind.SYNC_REQ,
                                  {"node": self.runtime.node_id,
                                   "from_seq": self._applied_cursor(),
                                   "shard": self.shard_id})

    # -- failover ----------------------------------------------------------------

    def live_nodes(self) -> list[int]:
        transport = self.runtime.transport
        return [n for n in self.nodes if not transport.node_is_down(n)]

    def on_node_down(self, node: int) -> None:
        if node == self.sequencer_node:
            self._elect("sequencer_down")
        elif self._unacked:
            self._schedule_redrive()

    def on_node_recovered(self, node: int) -> None:
        # Leadership follows "lowest live": a returning low node takes
        # the role back, and every replica converges on the same answer
        # because each re-evaluates against its own liveness view.
        self._elect("sequencer_recovered")

    def rebalance(self, node: int) -> None:
        """Move this shard's home seat to ``node`` and re-elect, live."""
        self.home_node = node
        self._elect("rebalance")
        if self._unacked:
            self._schedule_redrive()

    def _elect(self, reason: str) -> None:
        live = self.live_nodes()
        if not live:
            return
        new = self.home_node if self.home_node in live else min(live)
        if new != self.sequencer_node:
            self.sequencer_node = new
            self.failovers += 1
            tracer = self.runtime.tracer
            if tracer is not None:
                tracer.on_failover(node=new, t=self.runtime.clock.now,
                                   protocol="sequencer-tcp", reason=reason,
                                   new_leader=new)
        if self._unacked:
            self._schedule_redrive()

    def _schedule_redrive(self) -> None:
        if self._redrive_scheduled:
            return
        self._redrive_scheduled = True
        self.runtime.events.schedule(
            self.runtime.clock.now + self.FAILOVER_DELAY, self._redrive,
            priority=BUS_PRIORITY, tag=("bus_ctl",))

    def _redrive(self) -> None:
        self._redrive_scheduled = False
        for op in sorted(self._unacked.values(),
                         key=lambda o: (o.origin_node, o.origin_seq)):
            self._send_submit(op)

    def _schedule_gap_sync(self) -> None:
        if self._gap_sync_scheduled:
            return
        self._gap_sync_scheduled = True
        self.runtime.events.schedule(
            self.runtime.clock.now + self.FAILOVER_DELAY, self._gap_sync,
            priority=BUS_PRIORITY, tag=("bus_ctl",))

    def _gap_sync(self) -> None:
        self._gap_sync_scheduled = False
        if (self.sequencer_node == self.runtime.node_id
                or self._applied_cursor() > self._log_high):
            return  # gap closed (or we hold the seat: nothing to ask)
        self.request_sync()
        # Re-arm: the replay itself rides the wire and can be lost too.
        self._schedule_gap_sync()

    # -- introspection -----------------------------------------------------------

    def metrics_snapshot(self) -> dict:
        return {
            "shard": self.shard_id,
            "sequencer_node": self.sequencer_node,
            "home_node": self.home_node,
            "ops_sequenced": self.ops_sequenced,
            "protocol_messages": self.protocol_messages,
            "failovers": self.failovers,
            "log_length": len(self.log),
            "unacked": len(self._unacked),
        }

    def __repr__(self):
        return (f"<RemoteSequencerBus shard={self.shard_id} "
                f"@n{self.sequencer_node} "
                f"log={len(self.log)} unacked={len(self._unacked)}>")


class ShardedRemoteBus:
    """One :class:`RemoteSequencerBus` per shard of the map, one facade.

    The wire analogue of :class:`repro.shard.bus.ShardedBus`: frames
    carry the shard id (SHARD_FWD submissions, BUS_OP/SYNC_REQ payload
    keys), every shard elects and re-drives independently, and a
    recovering replica catches up per shard.  The coordinator submits
    straight to the owning stream (``shards[op.shard]``); inbound frames
    are dispatched on ``op.shard``.
    """

    def __init__(self, runtime: "NodeRuntime", shard_map):
        self.runtime = runtime
        self.map = shard_map
        self.shards: dict[int, RemoteSequencerBus] = {
            k: RemoteSequencerBus(runtime, shard_id=k,
                                  home_node=shard_map.sequencer_for(k))
            for k in range(shard_map.n_shards)
        }

    # -- frame dispatch ----------------------------------------------------------

    def on_submit(self, from_node: int, op: VisibilityOp) -> None:
        self.shards[op.shard].on_submit(from_node, op)

    def on_op(self, seq: int, op: VisibilityOp) -> None:
        self.shards[op.shard].on_op(seq, op)

    def on_sync_req(self, node: int, from_seq: int, shard: int = 0) -> None:
        self.shards[shard].on_sync_req(node, from_seq)

    # -- liveness ----------------------------------------------------------------

    def on_node_down(self, node: int) -> None:
        for bus in self.shards.values():
            bus.on_node_down(node)

    def on_node_recovered(self, node: int) -> None:
        for bus in self.shards.values():
            bus.on_node_recovered(node)

    def on_peer_up(self, node: int) -> None:
        for bus in self.shards.values():
            bus.on_peer_up(node)

    # -- rebalance ---------------------------------------------------------------

    def rebalance(self, shard: int, node: int) -> int:
        """Move ``shard``'s sequencer seat to ``node``; new map version."""
        self.shards[shard].rebalance(node)
        return self.map.assign(shard, node)

    def apply_map(self, manifest: dict) -> bool:
        """Adopt a gossiped shard map if its version is newer."""
        if not self.map.apply_if_newer(manifest):
            return False
        for k, bus in self.shards.items():
            seat = self.map.sequencer_for(k)
            if seat != bus.home_node:
                bus.rebalance(seat)
        return True

    # -- introspection -----------------------------------------------------------

    def metrics_snapshot(self) -> dict:
        return {
            "shards": {k: b.metrics_snapshot()
                       for k, b in sorted(self.shards.items())},
            "map_version": self.map.version,
            "ops_sequenced": sum(b.ops_sequenced
                                 for b in self.shards.values()),
            "protocol_messages": sum(b.protocol_messages
                                     for b in self.shards.values()),
            "failovers": sum(b.failovers for b in self.shards.values()),
            "unacked": sum(len(b._unacked) for b in self.shards.values()),
        }

    def __repr__(self):
        seats = ",".join(f"{k}@n{b.sequencer_node}"
                         for k, b in sorted(self.shards.items()))
        return f"<ShardedRemoteBus {seats}>"
