"""NodeRuntime: one OS process hosting one real ActorSpace node.

The simulator's :class:`~repro.runtime.system.ActorSpaceSystem` plays
every node from a single process; a :class:`NodeRuntime` is the same
:class:`~repro.runtime.host.Host` with *one* local node plus stand-ins
for the others:

* one real :class:`~repro.runtime.coordinator.Coordinator` — actors,
  directory replica, resolution cache, parked messages: all unchanged;
* a :class:`RemoteNodeProxy` per peer, satisfying exactly the slice of
  the coordinator interface the runtime reaches for on *other* nodes
  (``_deliver`` becomes "serialize and send", ``crashed`` consults the
  failure detector's verdicts);
* a :class:`~repro.shard.ShardedBus` of one
  :class:`~repro.net.remote.RemoteSequencerBus` per shard of the map —
  ordering visibility ops in frames instead of simulated latency draws;
* the PR-3 :class:`~repro.runtime.failure.DeadLetterQueue` and
  :class:`~repro.runtime.failure.FailureDetector`, unchanged in logic
  but driven by wall-clock heartbeats: the probe consults the hub's
  last-heard table through :meth:`TcpTransport.try_deliver`, so
  suspicion and confirmation reflect genuinely missing bytes.  Recovery
  is *not* detected there — a confirmed-down peer reads as down for
  ever in the transport — the frame-receive path notices returning
  peers and calls :meth:`NodeRuntime.on_peer_recovered` instead;
* a wall clock and an asyncio event pump replacing virtual time — the
  event queue is the same heap, it just waits for real time to pass.

Address determinism is preserved on purpose: node ``k``'s address
factory mints the same ``(node, serial)`` sequence as the simulator's
node ``k`` given the same creation order, and node 0 consumes serial 0
for the root space exactly like ``ActorSpaceSystem`` does.  That is what
lets ``python -m repro check --transport tcp`` diff a real cluster
against the single-process oracle.
"""

from __future__ import annotations

import asyncio
import itertools
import sys
import time
from typing import Any

from repro.core.addresses import ActorAddress
from repro.core.mailbox import DEFAULT_MAILBOX_CAPACITY, ShedPolicy
from repro.core.messages import Envelope
from repro.runtime.eventlog import JsonlSink
from repro.runtime.events import EventQueue
from repro.runtime.failure import DeadLetterQueue, FailureDetector
from repro.runtime.host import Host
from repro.runtime.network import Topology
from repro.shard import ShardedBus
from repro.shard.merge import shard_dir

from . import registry
from .codec import FrameKind, WireError, encode_value
from .peer import PeerHub, PeerLink
from .remote import RemoteSequencerBus, TcpTransport

#: Detectors on a server run effectively forever; the PR-3 horizon only
#: exists so the *simulator* can quiesce.
_FOREVER = 1e12


def rebase_wire_counters(node_id: int) -> None:
    """Give this process a collision-free id block for envelopes/messages/ops.

    The module-global counters mint ids dense from 0; with one process
    per node, two nodes would mint the same envelope id and the
    in-flight / dead-letter bookkeeping keyed on it would collide.
    Rebasing each process to ``node_id << 44`` leaves ~17.6e12 ids per
    node — decoded objects carry their ids explicitly, so only local
    minting consumes the block.
    """
    from repro.core import messages as messages_mod
    from repro.runtime import bus as bus_mod

    base = node_id << 44
    messages_mod._envelope_ids = itertools.count(base)
    messages_mod._message_ids = itertools.count(base)
    bus_mod._op_ids = itertools.count(base)


class WallClock:
    """Real elapsed time behind the ``clock.now`` interface.

    ``now`` can be *pinned* while one event executes.  The simulator's
    virtual clock never advances during a turn, and behaviors lean on
    that — e.g. computing ``deadline - ctx.now`` twice and scheduling
    the difference must not come out negative.  The pump pins before
    dispatching each event and unpins after, so actor code observes the
    same frozen-time-per-turn contract in both runtimes.
    """

    __slots__ = ("_t0", "_pinned")

    def __init__(self):
        self._t0 = time.monotonic()
        self._pinned: float | None = None

    @property
    def now(self) -> float:
        if self._pinned is not None:
            return self._pinned
        return time.monotonic() - self._t0

    def pin(self) -> None:
        self._pinned = time.monotonic() - self._t0

    def unpin(self) -> None:
        self._pinned = None

    def advance_to(self, t: float) -> None:
        """No-op: wall time advances itself (the pump waits instead)."""


class _WakingEventQueue(EventQueue):
    """The simulator's event heap, poking the async pump on schedule."""

    def __init__(self, wake):
        super().__init__()
        self._wake = wake

    def schedule(self, time, action, priority=0, tag=None):
        handle = super().schedule(time, action, priority=priority, tag=tag)
        self._wake()
        return handle


class RemoteNodeProxy:
    """The slice of a peer's coordinator the local runtime touches.

    * ``_deliver`` — the simulator's "arrival at the destination node"
      hook; here it means *put the envelope on the wire*.
    * ``_route`` — the dead-letter queue redelivers via the destination
      node's coordinator; remotely that is just a local re-route.
    * ``actors`` — arbitration's load probe reads peer queue depths; a
      real deployment would need the paper's §8 monitoring daemons for
      remote load, so remote actors report load 0 (empty mapping).
    * ``crashed`` — the detector's verdict, read by the DLQ.
    """

    __slots__ = ("runtime", "node_id", "actors")

    def __init__(self, runtime: "NodeRuntime", node_id: int):
        self.runtime = runtime
        self.node_id = node_id
        self.actors: dict = {}

    @property
    def crashed(self) -> bool:
        return self.runtime.transport.node_is_down(self.node_id)

    def _deliver(self, envelope: Envelope) -> None:
        self.runtime.forward_envelope(envelope)

    def _route(self, envelope: Envelope, target: ActorAddress) -> None:
        self.runtime.coordinator._route(envelope, target)

    def __repr__(self):
        return f"<RemoteNodeProxy n{self.node_id}>"


class NodeRuntime(Host):
    """One process's ActorSpace node: the :class:`Host` of ``node_id``
    alone, plus the process — wall clock, peer hub, event pump, commit
    turn, recovery and snapshots, control plane (see module docstring).
    """

    def __init__(
        self,
        node_id: int,
        ports: dict[int, int],
        *,
        host: str = "127.0.0.1",
        cluster_id: str = "actorspace",
        seed: int = 0,
        heartbeat_interval: float = 0.2,
        suspect_after: int = 2,
        confirm_after: int = 4,
        trace: bool = True,
        trace_jsonl: str | None = None,
        quiet: bool = True,
        mailbox_capacity: int | None = DEFAULT_MAILBOX_CAPACITY,
        mailbox_policy: ShedPolicy | str = ShedPolicy.DROP_OLDEST,
        admission_rate: float | None = None,
        admission_burst: float | None = None,
        breaker_threshold: int | None = None,
        breaker_window: float = 1.0,
        breaker_cooldown: float = 0.5,
        credit_window: int | None = None,
        data_dir: str | None = None,
        fsync: str = "commit",
        snapshot_interval: float = 30.0,
        shards: int = 1,
        shard_sequencer: int | None = None,
    ):
        rebase_wire_counters(node_id)
        self.node_id = node_id
        self.nodes = sorted(ports)
        self.local_nodes = [node_id]
        self.quiet = quiet
        self.topology = Topology.lan(len(self.nodes))
        self.clock = WallClock()
        self.events: EventQueue = _WakingEventQueue(self._kick)
        super().__init__(
            seed, trace, mailbox_capacity, mailbox_policy, admission_rate,
            admission_burst, breaker_threshold, breaker_window,
            breaker_cooldown, shards, shard_sequencer)
        if trace_jsonl and trace:
            # Flush-on-write sink: a SIGKILLed node (the fault drills)
            # still leaves its flight recording on disk.
            self.event_log.add_sink(JsonlSink(trace_jsonl))
        self.coordinator = self.coordinators[node_id]
        self.heartbeat_interval = heartbeat_interval
        self.transport = TcpTransport(
            self, heartbeat_window=heartbeat_interval * 2.5)
        self.bus = ShardedBus(
            self.shard_map,
            lambda shard, seat: RemoteSequencerBus(self, shard, seat))
        self.dead_letters = DeadLetterQueue(self)
        self.failure_detector = FailureDetector(
            self, interval=heartbeat_interval,
            suspect_after=suspect_after, confirm_after=confirm_after)

        hub_kw = {} if credit_window is None else {"credit_window": credit_window}
        self.hub = PeerHub(
            node_id, ports, self._on_frame, host=host, cluster_id=cluster_id,
            on_batch_end=self._commit_turn,
            on_peer_up=self._on_peer_up, log=self._log,
            clock=lambda: self.clock.now, **hub_kw)
        self._wake: asyncio.Event | None = None
        self._stopping = False
        self.heartbeats_suppressed = 0
        # The process's own numbers, read when a dump is taken.
        source = self.metrics.source
        source("hub", self.hub.metrics_snapshot)
        source("bus", self.bus.status)
        source("store", self._store_status)
        source("heartbeats_suppressed", lambda: self.heartbeats_suppressed)
        self._seen_peers: set[int] = set()
        self._detector_armed = False
        self._retry_scheduled: set[int] = set()
        self._control_handlers = {
            # The driver verbs are the inherited Host methods.
            **{verb: getattr(self, verb) for verb in (
                "make_visible", "make_invisible", "change_attributes",
                "destroy_space", "send", "broadcast", "send_to",
                "resolve", "visible_attributes")},
            "create_space": lambda **args: {
                "address": self.create_space(**args)},
            "create_actor": self._ctl_create_actor,
            "ping": self._ctl_ping,
            "status": self._ctl_status,
            "has_space": self._ctl_has_space,
            "actor_state": self._ctl_actor_state,
            "directory": self._ctl_directory,
            "vis_burst": self._ctl_vis_burst,
            "shard_map": self._ctl_shard_map,
            "rebalance": self._ctl_rebalance,
            "snapshot": self._ctl_snapshot,
            "dlq": self._ctl_dlq,
            "shutdown": self._ctl_shutdown,
        }

        # Durability: open the data directory, recover the previous
        # incarnation's state, then attach the stores as transactional
        # outboxes (attachment happens *after* recovery so the replayed
        # suffix is not re-persisted as fresh records).
        self.data_dir = data_dir
        self.snapshot_interval = snapshot_interval
        self.store = None
        self.shard_stores: dict[int, Any] = {}
        self.recovery: dict | None = None
        if data_dir is not None:
            self._recover(data_dir, fsync)
        #: Every store this node appends to; the dead-letter journal
        #: last, since the shard logs' effects may append to it.
        self._stores = list(dict.fromkeys(
            [*self.shard_stores.values(), self.store])) \
            if self.store is not None else []

    # -- durability --------------------------------------------------------------

    def _recover(self, data_dir: str, fsync: str) -> None:
        """Open the node's stores and rebuild from what they hold.

        The top-level store keeps the snapshots and the dead-letter
        journal; shard ``k``'s op log lives in its own namespace
        (:func:`repro.shard.merge.shard_dir` — the top-level directory
        itself on a one-shard plane).  Recovery is snapshot + each
        shard's log suffix past that shard's snapshot cursor
        (:func:`repro.store.recovery.restore_node`).  A shard whose
        store is unreadable is skipped: it re-syncs from its sequencer's
        log over the wire and never blocks replay of the healthy shards.
        """
        from repro.store import NodeStore
        from repro.store.recovery import restore_node

        self.store = NodeStore(data_dir, fsync=fsync)
        recovered = self.store.load()
        opened = {data_dir: (self.store, recovered.ops)}
        shard_ops: dict[int, dict] = {}
        for k in self.bus.shards:
            path = shard_dir(data_dir, self.shards, k)
            if path not in opened:
                try:
                    store = NodeStore(path, fsync=fsync)
                    opened[path] = (store, store.load().ops)
                except Exception as exc:  # noqa: BLE001 - scoped recovery
                    self._log(f"shard {k} store unreadable ({exc!r}); "
                              f"will re-sync over the wire")
                    continue
            self.shard_stores[k], shard_ops[k] = opened[path]
        if not recovered.empty or any(shard_ops.values()):
            self.recovery = restore_node(
                self.node_id, self.coordinator, self.dead_letters,
                recovered, store=self.store, shard_ops=shard_ops)
            # The logs may be truncated below the snapshot; the persisted
            # per-origin watermarks keep wire dedup exact even for
            # origins whose every op predates the snapshot.
            expected = (recovered.snapshot or {}).get("expected", {})
            for k, ops in shard_ops.items():
                self.bus.shards[k].core.restore_log(ops, expected.get(k, {}))
            self.event_log.emit("node_recovered", self.clock.now,
                                self.node_id, **self.recovery)
            self._log(f"recovered from {data_dir}: {self.recovery}")
        for k, store in self.shard_stores.items():
            self.bus.shards[k].core.store = store
        self.dead_letters.store = self.store
        # A fresh snapshot caps the recovery cost of the *next* restart
        # even if this process dies before the first periodic snapshot
        # fires.
        if self.recovery is not None:
            self.write_snapshot_now()

    def _commit_turn(self) -> None:
        """The commit point, at the end of every inbound read batch and
        every burst of due events: one ``write()`` + ``fsync()`` per
        store touched, then its staged effects (which may stage more)."""
        try:
            while dirty := [s for s in self._stores if s.dirty]:
                for store in dirty:
                    store.commit()
                    store.arm_sync(self.events, self.clock.now)
        except Exception as exc:  # noqa: BLE001 - keep serving
            self._log(f"commit failed: {exc!r}")

    def write_snapshot_now(self) -> str | None:
        """Write a directory snapshot and truncate superseded segments."""
        if self.store is None:
            return None
        from repro.store.recovery import snapshot_state

        state = snapshot_state(
            self.node_id, self.coordinator, self.dead_letters,
            extra={"expected": {k: dict(bus.core.expected)
                                for k, bus in self.bus.shards.items()}})
        path = self.store.write_snapshot(state, self.shard_stores)
        self.event_log.emit(
            "snapshot_written", self.clock.now, self.node_id,
            applied_seq=self._applied_total())
        return path

    async def _snapshot_loop(self) -> None:
        while not self._stopping:
            await asyncio.sleep(self.snapshot_interval)
            if self._stopping:
                return
            try:
                self.write_snapshot_now()
            except Exception as exc:  # noqa: BLE001 - keep serving
                self._log(f"snapshot failed: {exc!r}")

    def _remote_coordinator(self, node: int) -> RemoteNodeProxy:
        return RemoteNodeProxy(self, node)

    def _log(self, text: str) -> None:
        if not self.quiet:
            print(f"[node {self.node_id} t={self.clock.now:8.3f}] {text}",
                  file=sys.stderr, flush=True)

    def _kick(self) -> None:
        if self._wake is not None:
            self._wake.set()

    # -- failure handling --------------------------------------------------------

    def _on_node_confirmed_down(self, node: int) -> int:
        self.transport.crash_node(node)
        masked = super()._on_node_confirmed_down(node)
        self._log(f"confirmed node {node} down (masked {masked} entries)")
        return masked

    def on_peer_recovered(self, node: int) -> None:
        """Real bytes arrived from a peer we had confirmed down.

        The detector cannot see this transition (a confirmed-down peer
        reads as down in the transport forever), so the frame-receive
        path calls in here: lift the verdict and the quarantine mask,
        reconsider parked messages the mask was hiding matches from,
        re-elect the bus leadership, and flush dead letters.
        """
        if node not in self.transport.crashed:
            return
        self.transport.recover_node(node)
        self.failure_detector.on_node_recovered(node)
        directory = self.coordinator.directory
        if node in directory.quarantined_nodes:
            directory.unquarantine_node(node)
            self.tracer.on_quarantine("unquarantined", self.node_id,
                                      self.clock.now, target_node=node)
            self.coordinator._recheck_parked()
        self.bus.on_node_recovered(node)
        self.dead_letters.flush(node)
        self._log(f"node {node} recovered")

    # -- outbound envelopes ------------------------------------------------------

    def forward_envelope(self, envelope: Envelope) -> None:
        """Ship a routed envelope to its target's home node.

        The local ``_route`` already did hop accounting and registered
        the envelope in-flight; it leaves this process's authority the
        moment it hits the socket buffer, so it is popped from in-flight
        here (the receiving node re-tracks it).  An unreachable peer
        (link down but not yet confirmed dead) parks the envelope in the
        dead-letter queue; reconnection flushes it.
        """
        target = envelope.target
        assert target is not None
        self.in_flight.pop(envelope.envelope_id, None)
        if self.hub.send(target.node, FrameKind.ENVELOPE, envelope):
            # The envelope left this node's authority: any dead-letter
            # attempt record for it is finished business (the receiving
            # node starts its own accounting from zero).
            self.dead_letters.note_delivered(envelope.envelope_id)
            return
        self.tracer.on_dropped("node_down", envelope, node=self.node_id,
                               t=self.clock.now)
        self.dead_letters.capture(envelope, target.node, "node_unreachable")
        self._schedule_unreachable_retry(target.node)

    def _schedule_unreachable_retry(self, node: int) -> None:
        """Keep retrying dead letters parked for a *transiently* down link.

        Peer-up and recovery events flush the queue, but a send can also
        fail mid-reconnect with no later edge to ride (the link was never
        lost from the hub's perspective) — so poll until the link is back
        or the failure detector upgrades the outage to confirmed-down
        (whose recovery path owns the flush from then on).
        """
        if node in self._retry_scheduled:
            return
        self._retry_scheduled.add(node)
        self.events.schedule(self.clock.now + self.heartbeat_interval,
                             lambda: self._retry_unreachable(node))

    def _retry_unreachable(self, node: int) -> None:
        self._retry_scheduled.discard(node)
        if node in self.transport.crashed:
            return
        if self.dead_letters.pending(node) == 0:
            return
        if node in self.hub.links:
            self.dead_letters.flush(node)
        if self.dead_letters.pending(node):
            self._schedule_unreachable_retry(node)

    # -- inbound frames ----------------------------------------------------------

    def _on_frame(self, src: int, kind: FrameKind, payload: Any,
                  link: PeerLink) -> None:
        if link.role == "node" and src in self.transport.crashed:
            self.on_peer_recovered(src)
        if kind == FrameKind.HEARTBEAT:
            # The hub already refreshed last_heard; the beacon's payload
            # additionally feeds the per-peer clock-offset estimate.
            self.transport.on_heartbeat(src, payload)
            return
        if kind == FrameKind.ENVELOPE:
            if isinstance(payload, Envelope):
                self.coordinator._deliver(payload)
            else:
                self._log(f"dropped ENVELOPE frame from node {src}: payload "
                          f"is a {type(payload).__name__}, not an envelope")
        elif kind == FrameKind.CONTROL:
            self._on_control(payload, link)
        # The sequencer protocol: a frame's shard stamp names its stream.
        elif kind == FrameKind.SHARD_FWD:
            self.bus.shards[payload["shard"]].on_submit(src, payload["op"])
        elif kind == FrameKind.BUS_OP:
            self.bus.shards[payload["shard"]].on_op(payload["seq"],
                                                    payload["op"])
        elif kind == FrameKind.SYNC_REQ:
            self.bus.shards[payload["shard"]].on_sync_req(
                payload["node"], payload["from_seq"], payload["round"])
        elif kind == FrameKind.SYNC_DONE:
            self.bus.shards[payload["shard"]].core.on_sync_done(
                payload["node"], payload["upto"], payload["round"])

    def _on_peer_up(self, node: int) -> None:
        """A node link registered (first connect or reconnect)."""
        self.on_peer_recovered(node)  # no-op unless it was confirmed down
        self._seen_peers.add(node)
        self.dead_letters.flush(node)
        # Catch up on visibility ops sequenced before we joined or while
        # we were away: per shard, across a link that has the seat on it.
        self.bus.on_peer_up(node)
        peers = {n for n in self.nodes if n != self.node_id}
        if not self._detector_armed and self._seen_peers >= peers:
            self._detector_armed = True
            self.failure_detector.start(_FOREVER)
            self._log("failure detector armed")

    # -- serving -----------------------------------------------------------------

    async def serve(self, ready: asyncio.Event | None = None) -> None:
        """Run the node until a control ``shutdown`` (or cancellation)."""
        self._wake = asyncio.Event()
        await self.hub.start()
        self._log(f"listening on {self.hub.host}:{self.hub.ports[self.node_id]} "
                  f"peers={[n for n in self.nodes if n != self.node_id]}")
        heartbeats = asyncio.ensure_future(self._heartbeat_loop())
        snapshots = None
        if self.store is not None and self.snapshot_interval > 0:
            snapshots = asyncio.ensure_future(self._snapshot_loop())
        if ready is not None:
            ready.set()
        try:
            await self._pump()
        finally:
            for task in (heartbeats, snapshots):
                if task is None:
                    continue
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
            await self.hub.stop(drain=True)
            if self.store is not None:
                # Orderly exit: fold everything into a final snapshot so
                # the next start replays nothing.  A SIGKILL skips this,
                # which is exactly what the recovery path is for.
                try:
                    self.write_snapshot_now()
                finally:
                    for store in self._stores:
                        store.close()
            self.event_log.close()

    def request_shutdown(self) -> None:
        self._stopping = True
        self._kick()

    async def _heartbeat_loop(self) -> None:
        """Beacon liveness — but only where data is not already doing it.

        Any frame we send refreshes the peer's last-heard oracle, so a
        link that carried data within the last interval needs no
        explicit HEARTBEAT: under sustained load the beacons disappear
        entirely (piggybacked liveness), and they resume the moment a
        link goes quiet.
        """
        while not self._stopping:
            idle = self.hub.idle_peers(self.heartbeat_interval)
            self.heartbeats_suppressed += len(self.hub.links) - len(idle)
            for node in idle:
                self.hub.send(node, FrameKind.HEARTBEAT,
                              self.transport.heartbeat_payload(node))
            await asyncio.sleep(self.heartbeat_interval)

    async def _pump(self) -> None:
        """Drive the event heap against the wall clock.

        Due events run back-to-back (yielding every batch so socket
        readers stay live); otherwise sleep until the next deadline or a
        ``schedule`` wake-up, whichever comes first.
        """
        assert self._wake is not None
        processed = 0
        while not self._stopping:
            due = self.events.peek_time()
            now = self.clock.now
            if due is not None and due <= now:
                popped = self.events.pop()
                if popped is not None:
                    _when, action = popped
                    self.clock.pin()
                    try:
                        action()
                    except Exception as exc:  # noqa: BLE001 - isolate events
                        self._log(f"event raised: {exc!r}")
                    finally:
                        self.clock.unpin()
                    processed += 1
                    if processed % 64 == 0:
                        self._commit_turn()
                        await asyncio.sleep(0)
                continue
            self._commit_turn()
            wait = self.heartbeat_interval if due is None \
                else min(max(due - now, 0.0) + 0.001, self.heartbeat_interval)
            self._wake.clear()
            try:
                await asyncio.wait_for(self._wake.wait(), wait)
            except asyncio.TimeoutError:
                pass
        self._commit_turn()  # the burst that asked to stop is a turn too

    # -- control plane -----------------------------------------------------------

    def _on_control(self, payload: Any, link: PeerLink) -> None:
        request_id = payload.get("id") if isinstance(payload, dict) else None
        reply: dict[str, Any]
        try:
            if not isinstance(payload, dict):
                raise WireError("control payload must be a mapping")
            handler = self._control_handlers.get(payload.get("cmd"))
            if handler is None:
                raise WireError(f"unknown control command {payload.get('cmd')!r}")
            value = handler(**(payload.get("args") or {}))
            # A verb that returns nothing reads as done: ``True``.
            reply = {"id": request_id, "ok": True,
                     "value": True if value is None else value}
        except Exception as exc:  # noqa: BLE001 - fault back to the launcher
            reply = {"id": request_id, "ok": False,
                     "error": f"{type(exc).__name__}: {exc}"}
        if not self.hub.send_link(link, FrameKind.REPLY, reply):
            self.hub.send_link(link, FrameKind.REPLY, {
                "id": request_id, "ok": False,
                "error": "reply was not wire-encodable",
            })

    @staticmethod
    def _wire_safe(value: Any) -> Any:
        try:
            encode_value(value)
            return value
        except WireError:
            return repr(value)

    def _ctl_ping(self) -> dict:
        return {"node": self.node_id, "t": self.clock.now}

    def _store_status(self) -> dict | None:
        """Store counters, summed over every store this node writes."""
        if self.store is None:
            return None
        snaps = [store.metrics_snapshot() for store in self._stores]
        total = {key: sum(snap[key] for snap in snaps)
                 if isinstance(value, int) else value
                 for key, value in snaps[0].items()}
        total["ops_per_fsync"] = round(
            total["ops_appended"] / total["fsyncs"], 2) \
            if total["fsyncs"] else None
        return total

    def _applied_total(self) -> int:
        return sum(self.coordinator._shard_cursors)

    def _ctl_status(self) -> dict:
        return {
            "node": self.node_id,
            "applied_seq": self._applied_total(),
            "shards": self.bus.status(),
            "shard_map_version": self.shard_map.version,
            "actors": len(self.coordinator.actors),
            "events_pending": len(self.events),
            "in_flight": len(self.in_flight),
            "links": sorted(self.hub.links),
            "seen_peers": sorted(self._seen_peers),
            "detector_armed": self._detector_armed,
            "confirmed_down": sorted(self.transport.crashed),
            "quarantined": sorted(self.coordinator.directory.quarantined_nodes),
            "suspended": len(self.coordinator.suspended),
            "persistent": len(self.coordinator.persistent),
            "dlq_pending": self.dead_letters.pending(),
            "frames_shed": self.hub.frames_shed,
            "batches_in": self.hub.batches_in,
            "batches_out": self.hub.batches_out,
            "heartbeats_suppressed": self.heartbeats_suppressed,
            "mailbox_shed": sum(r.mailbox.shed_count
                                for r in self.coordinator.actors.values()),
            "mailbox_suspended": sum(r.mailbox.suspended
                                     for r in self.coordinator.actors.values()),
            "credit_stalls": self.hub.credit_stalls,
            "credit_grants_in": self.hub.credit_grants_in,
            "credit_grants_out": self.hub.credit_grants_out,
            "admission": self.admission.metrics()
                         if self.admission is not None else None,
            "clock": self.hub.clock_sync.snapshot(),
            "store": self._store_status(),
            "recovery": self.recovery,
            "dlq_recovered": self.dead_letters.recovered_total,
        }

    def _ctl_create_actor(self, behavior: str, params=None, space=None,
                          visible=None, capability=None, node=None):
        """Code does not cross the wire: ``behavior`` names a registered
        one.  ``visible`` makes the new actor visible in the same turn."""
        address = self.create_actor(
            registry.build_behavior(behavior, params), node=node,
            space=space, capability=capability)
        if visible is not None:
            self.make_visible(address, visible["attributes"],
                              visible.get("space"), capability, node)
        return {"address": address}

    def _ctl_has_space(self, address):
        return self.coordinator.directory.has_space(address)

    def _ctl_actor_state(self, address, attrs):
        record = self.coordinator.actors.get(address)
        if record is None:
            raise WireError(f"no such actor on node {self.node_id}: {address!r}")
        return {name: self._wire_safe(getattr(record.behavior, name, None))
                for name in attrs}

    def _ctl_directory(self):
        return {"snapshot": self.coordinator.directory.snapshot(),
                "quarantined": sorted(self.coordinator.directory.quarantined_nodes)}

    def _ctl_vis_burst(self, target, space=None, count=1, prefix="burst",
                       capability=None):
        """Issue ``count`` visibility ops on one space (bench workload).

        Each op rebinds ``target``'s attributes in ``space`` — a full
        sequencer round trip per op on whatever shard owns the space, so
        the launcher can aim load at a specific shard.
        """
        scope = space if space is not None else self.root_space
        for index in range(int(count)):
            self.coordinator.make_visible(
                target, f"{prefix}/v{index & 7}", scope, capability)
        return {"submitted": int(count)}

    def _ctl_shard_map(self, manifest=None):
        """Read the shard map, or adopt a gossiped newer assignment."""
        applied = False
        if manifest is not None:
            applied = self.bus.apply_map(manifest)
        return {"map": self.shard_map.to_manifest(), "applied": applied}

    def _ctl_rebalance(self, shard, seat):
        """Move ``shard``'s sequencer seat to node ``seat``, live."""
        version = self.bus.rebalance(int(shard), int(seat))
        return {"version": version,
                "sequencer": self.bus.shards[int(shard)].sequencer_node}

    def _ctl_snapshot(self, events: bool = True, since_seq: int = 0,
                      max_events: int | None = None):
        """The one scrape: a dump of the registry, the ``status`` view and
        a window of the flight recorder.

        The dump's ``hub`` / ``bus`` / ``transport`` sources are lifted
        out of ``metrics`` into sections of their own.  ``since_seq`` is
        the caller's high-water mark (the ``next_seq`` of its previous
        pull); only events at or past it are returned, capped at
        ``max_events``.  ``events_missed`` counts ring-buffer evictions
        the caller can never see — an honest collector reports them
        instead of pretending the window was complete.
        """
        metrics = self.metrics.snapshot()
        hub = metrics.pop("hub")
        log = self.event_log
        window, next_seq, missed = [], since_seq, 0
        if events:
            buffered = list(log.events)
            oldest = buffered[0].seq if buffered else log.next_seq
            missed = max(0, oldest - since_seq)
            window = [e for e in buffered if e.seq >= since_seq][:max_events]
            next_seq = window[-1].seq + 1 if window \
                else max(since_seq, log.next_seq)
        return {
            "node": self.node_id,
            "t": self.clock.now,
            "status": self._ctl_status(),
            "hub": hub,
            "bus": metrics.pop("bus"),
            "transport": metrics.pop("transport"),
            "clock": hub["clock"],
            "metrics": metrics,
            "events": [self._wire_safe(e.to_dict()) for e in window],
            "next_seq": next_seq,
            "events_missed": missed,
            "events_total": log.emitted_count,
        }

    def _ctl_dlq(self):
        return {
            "pending": self.dead_letters.pending(),
            "queued": self.dead_letters.queued_total,
            "redelivered": self.dead_letters.redelivered_total,
            "expired": self.dead_letters.expired_total,
            "recovered": self.dead_letters.recovered_total,
        }

    def _ctl_shutdown(self):
        self._log("shutdown requested")
        # Reply first (returning schedules the REPLY write), stop on the
        # next pump turn.
        self.events.schedule(self.clock.now + 0.05, self.request_shutdown)
        return True

    def __repr__(self):
        return (f"<NodeRuntime n{self.node_id}/{len(self.nodes)} "
                f"actors={len(self.coordinator.actors)} t={self.clock.now:.3f}>")
