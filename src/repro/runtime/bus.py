"""The virtual coordinator bus: totally ordered visibility updates.

Section 7.3: "A coordinator process uses the network connection to
broadcast information to other coordinators in order to maintain coherence
of the state of ActorSpace. ... the current design needs a global ordering
on individual broadcasts between coordinators to order visibility changes
globally, so that all nodes have the same view of visibility in ActorSpace
(although not necessarily the same order on broadcasts to actors).  The
broadcasting between the coordinators could, for instance, be done using
either the Amoeba broadcast protocol or a centralized broadcaster and
sequencer."

We implement both families the paper names:

* :class:`SequencerBus` — a centralized sequencer (Chang & Maxemchuk
  style [9]): submissions travel to a sequencer node, receive a global
  sequence number, and are fanned out to every coordinator.
* :class:`TokenRingBus` — a rotating-token protocol (the Amoeba/token
  family): the token visits nodes round-robin; the holder stamps and fans
  out its pending submissions.

Both guarantee: (1) a single total order of operations, identical at every
replica, and (2) per-origin FIFO (a node's own operations apply in the
order it issued them — required so "create space" precedes "make visible
in that space").  Coordinators apply operations through a hold-back queue
keyed by sequence number, so delivery-order jitter never reorders
application.  Experiment E9 verifies coherence and compares the two
protocols' latency/message cost.
"""

from __future__ import annotations

import enum
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from .clock import VirtualClock
from .events import EventQueue
from .transport import Transport

#: Event priority for bus traffic: applied before same-instant actor work,
#: so a visibility change never races a delivery scheduled alongside it.
BUS_PRIORITY = -1


class OpKind(enum.Enum):
    """The visibility-affecting operations replicated through the bus."""

    ADD_SPACE = "add_space"
    DESTROY_SPACE = "destroy_space"
    MAKE_VISIBLE = "make_visible"
    MAKE_INVISIBLE = "make_invisible"
    CHANGE_ATTRIBUTES = "change_attributes"
    BIND_CAPABILITY = "bind_capability"
    PURGE = "purge"  #: remove a collected entity from all registries


_op_ids = itertools.count()


@dataclass
class VisibilityOp:
    """One replicated operation plus its origin bookkeeping."""

    kind: OpKind
    args: dict[str, Any]
    origin_node: int
    origin_seq: int = 0  #: per-(origin, shard) FIFO counter, set by the submitter
    op_id: int = field(default_factory=lambda: next(_op_ids))
    #: The shard whose stream sequences this op (a one-shard plane has
    #: only shard 0).
    shard: int = 0
    #: Node-local monotonic sequencing tick, stamped when the op receives
    #: its per-shard sequence number; the cross-shard merge key for
    #: offline replay (``repro.shard.merge``).  ``None`` until sequenced.
    tick: "int | None" = None
    #: ``op_id`` of the primary copy when this op is a per-shard fan copy
    #: (BIND_CAPABILITY / PURGE are replicated once per shard stream);
    #: ``None`` for ordinary ops and primaries.
    fan_of: "int | None" = None
    #: Called (only at the origin) if apply-time validation rejects the op.
    on_rejected: Callable[[Exception], None] | None = None
    #: Called (only at the origin) when the op applies successfully.
    on_applied: Callable[[], None] | None = None

    def __repr__(self):
        return f"<Op #{self.op_id} {self.kind.value} from n{self.origin_node}>"


class Bus:
    """Base class: total-order broadcast of :class:`VisibilityOp` values.

    ``deliver`` is a callback ``(node, global_seq, op)`` installed by the
    system; implementations must invoke it exactly once per (node, op) and
    assign each op exactly one ``global_seq`` from a gap-free sequence.
    """

    def __init__(
        self,
        nodes: list[int],
        events: EventQueue,
        clock: VirtualClock,
        transport: Transport,
    ):
        if not nodes:
            raise ValueError("bus needs at least one node")
        self.nodes = list(nodes)
        self.events = events
        self.clock = clock
        self.transport = transport
        self.deliver: Callable[[int, int, VisibilityOp], None] | None = None
        #: The system's flight recorder, wired after construction; the bus
        #: emits ``bus_sequenced`` events when it assigns global order.
        self.event_log = None
        #: The system's tracer, wired after construction; failover and
        #: token regeneration report through it when present.
        self.tracer = None
        #: Total protocol messages exchanged (cost accounting for E9).
        self.protocol_messages = 0
        self.ops_sequenced = 0
        #: Failover events survived (sequencer re-elections / token
        #: regenerations), for E11-style reliability accounting.
        self.failovers = 0
        #: The sequenced-op log: seq -> op.  Retained so a recovering
        #: coordinator can be brought up to date (state transfer); a real
        #: deployment would truncate it at the all-applied watermark.
        self.log: dict[int, VisibilityOp] = {}
        #: Optional :class:`repro.store.NodeStore`.  When attached, every
        #: sequenced op is persisted and committed before any delivery
        #: is scheduled (transactional outbox), and ``replay_to`` can
        #: fall back to disk when no live replica can source a transfer.
        self.store = None
        self.disk_replays = 0
        #: Plane hooks, set by :class:`repro.shard.ShardedBus`, which
        #: runs one bus per shard: the shard id, a shared cross-shard
        #: sequencing journal (appended at fan-out time), and — with more
        #: than one shard — a shared node-local tick counter (the offline
        #: merge key).  All ``None``/0 for a standalone bus.
        self.shard_id = 0
        self.journal: "list[tuple[int, int]] | None" = None
        self.tick_counter = None

    def submit(self, op: VisibilityOp) -> None:  # pragma: no cover - abstract
        """Accept ``op`` from its origin coordinator for global ordering."""
        raise NotImplementedError

    def live_nodes(self) -> list[int]:
        """The nodes the transport currently considers up, in id order."""
        return [n for n in self.nodes if not self.transport.node_is_down(n)]

    def on_node_down(self, node: int) -> None:
        """Failure notification (crash injection or detector confirm)."""

    def on_node_recovered(self, node: int) -> None:
        """Recovery notification; protocols resume work parked on ``node``."""

    def replay_to(self, node: int, from_seq: int) -> int:
        """State transfer: redeliver every logged op >= ``from_seq`` to ``node``.

        Called when a coordinator recovers from a crash; the missed ops
        arrive with ordinary transport latency and flow through the same
        hold-back application path, so recovery is just catching up on the
        total order.  The transfer source is a *live* replica — preferring
        the lowest live node other than ``node`` itself — because the
        historical fixed choice (node 0) silently skipped the transfer
        whenever node 0 was down, leaving the recovering replica diverged
        forever.  Returns the number of ops scheduled for replay.

        Raises
        ------
        NodeDownError
            If there are ops to replay and no live node can source them.
        """
        assert self.deliver is not None, "bus not wired to a system"
        from repro.core.errors import NodeDownError, TransportError

        pending = sorted(s for s in self.log if s >= from_seq)
        live = self.live_nodes()
        sources = [n for n in live if n != node] or ([node] if node in live else [])
        if not sources and self.store is not None:
            # The disk may hold ops the in-memory log cannot see (a fresh
            # process starts with an empty log), so consult it whenever no
            # live replica can source the transfer.
            return self._replay_from_store(node, from_seq)
        if not pending:
            return 0
        if not sources:
            raise NodeDownError(
                f"no live replica can source state transfer to node {node}"
            )
        source = sources[0]
        count = 0
        for seq in pending:
            op = self.log[seq]
            self.protocol_messages += 1
            try:
                latency = self.transport.deliver_latency(source, node)
            except (TransportError, RuntimeError):  # pragma: no cover
                break
            count += 1
            self.events.schedule(
                self.clock.now + latency,
                (lambda n=node, s=seq, o=op: self.deliver(n, s, o)),
                priority=BUS_PRIORITY,
                tag=("bus", node),
            )
        return count

    def _replay_from_store(self, node: int, from_seq: int) -> int:
        """State transfer from the persisted log when no replica lives.

        Before the store existed this case was a hard
        :class:`NodeDownError` — ops pending, nobody alive to send them —
        even though the recovering node itself had every op on disk.
        Disk replay schedules the missed ops locally (no network to
        cross, so they land at the next tick) through the same hold-back
        path as a live transfer.
        """
        count = 0
        for seq, op in self.store.read_ops(from_seq):
            self.log.setdefault(seq, op)
            count += 1
            self.events.schedule(
                self.clock.now,
                (lambda n=node, s=seq, o=op: self.deliver(n, s, o)),
                priority=BUS_PRIORITY,
                tag=("bus", node),
            )
        self.disk_replays += 1
        if self.event_log is not None and self.event_log.enabled:
            self.event_log.emit(
                "bus_disk_replay", self.clock.now, node, None,
                from_seq=from_seq, ops=count,
            )
        return count

    def _record_failover(self, protocol: str, reason: str,
                         new_leader: int | None = None) -> None:
        """Count one failover and report it to the tracer when wired."""
        self.failovers += 1
        if self.tracer is not None:
            self.tracer.on_failover(
                node=new_leader if new_leader is not None else -1,
                t=self.clock.now, protocol=protocol, reason=reason,
                new_leader=new_leader,
            )
        elif self.event_log is not None and self.event_log.enabled:
            self.event_log.emit(
                "failover", self.clock.now, new_leader if new_leader is not None else -1,
                None, protocol=protocol, reason=reason,
            )

    # -- shared helpers ----------------------------------------------------------

    def _fan_out(self, seq: int, op: VisibilityOp, from_node: int) -> None:
        """Send the sequenced op to every coordinator.

        Crashed nodes are skipped; a real deployment would replay the
        missed operations on recovery (out of scope for the experiments,
        which never recover a coordinator).
        """
        assert self.deliver is not None, "bus not wired to a system"
        from repro.core.errors import TransportError

        self.log[seq] = op
        if self.tick_counter is not None:
            op.tick = next(self.tick_counter)
        if self.journal is not None:
            self.journal.append((self.shard_id, seq))
        if self.store is not None:
            # Transactional outbox: the op is durable before any replica
            # sees it, so a crash can only lose ops nobody applied.  The
            # simulator's turn is this one event, so its commit point
            # sits right behind the append.
            self.store.append_op(seq, op, tick=op.tick)
            self.store.commit()
            self.store.arm_sync(self.events, self.clock.now)
        if self.event_log is not None and self.event_log.enabled:
            self.event_log.emit(
                "bus_sequenced", self.clock.now, from_node, None,
                global_seq=seq, op=op.kind.value, origin_node=op.origin_node,
                origin_seq=op.origin_seq,
            )
        for node in self.nodes:
            self.protocol_messages += 1
            try:
                latency = self.transport.deliver_latency(from_node, node)
            except (TransportError, RuntimeError):
                continue
            self.events.schedule(
                self.clock.now + latency,
                (lambda n=node, s=seq, o=op: self.deliver(n, s, o)),
                priority=BUS_PRIORITY,
                tag=("bus", node),
            )


class SequencerBus(Bus):
    """Centralized broadcaster-and-sequencer (Chang & Maxemchuk [9]).

    Submissions are unicast to the sequencer node, buffered there until
    per-origin FIFO order is restored, stamped with the next global
    sequence number, and fanned out to all nodes.
    """

    #: Virtual-time cost of electing a replacement sequencer (one
    #: coordination round before unacked submissions are re-driven).
    FAILOVER_DELAY = 0.05

    def __init__(self, nodes, events, clock, transport,
                 sequencer_node: int | None = None,
                 service_time: float = 0.0):
        super().__init__(nodes, events, clock, transport)
        self.sequencer_node = self.nodes[0] if sequencer_node is None else sequencer_node
        #: Modelled serial per-op service time at the sequencer (virtual
        #: seconds).  Zero (default) sequences instantaneously — the
        #: historical behavior.  Non-zero makes the sequencer a real
        #: queueing station: ops are stamped in order but fanned out one
        #: service interval apart, so a single global sequencer saturates
        #: and per-shard sequencers visibly divide the load (what
        #: ``bench_shard.py`` measures).
        self.service_time = service_time
        self._busy_until = 0.0
        self._next_seq = 0
        #: Per-origin FIFO reassembly at the sequencer.
        self._expected: dict[int, int] = {}
        self._holdback: dict[tuple[int, int], VisibilityOp] = {}
        #: Submissions not yet globally ordered: op_id -> op.  Failover
        #: re-drives these at the replacement sequencer; they are removed
        #: the moment the op is stamped and fanned out.
        self._unacked: dict[int, VisibilityOp] = {}
        #: Ops already stamped, so a re-driven duplicate is dropped.
        self._sequenced_ids: set[int] = set()
        self._redrive_scheduled = False

    def submit(self, op: VisibilityOp) -> None:
        """Accept ``op`` for ordering.  Never raises on a crashed
        sequencer: the op parks as unacked and failover re-drives it."""
        self._unacked[op.op_id] = op
        self._to_sequencer(op)

    def _to_sequencer(self, op: VisibilityOp) -> None:
        from repro.core.errors import TransportError

        if self.transport.node_is_down(op.origin_node):
            # The submitting node died before the unicast left it: the
            # op is lost with its origin (nobody else holds a copy).
            self._unacked.pop(op.op_id, None)
            return
        if self.transport.node_is_down(self.sequencer_node):
            self._failover()
            return
        self.protocol_messages += 1
        try:
            latency = self.transport.deliver_latency(op.origin_node, self.sequencer_node)
        except (TransportError, RuntimeError):
            self._failover()
            return
        self.events.schedule(
            self.clock.now + latency,
            lambda: self._at_sequencer(op),
            priority=BUS_PRIORITY,
            tag=("bus_seq",),
        )

    def _at_sequencer(self, op: VisibilityOp) -> None:
        if self.transport.node_is_down(self.sequencer_node):
            # The sequencer died while the unicast was in flight; the op
            # stays unacked and the failover path re-drives it.
            return
        if op.op_id in self._sequenced_ids:
            return  # duplicate of a re-driven op that already made it
        origin = op.origin_node
        self._expected.setdefault(origin, 0)
        self._holdback[(origin, op.origin_seq)] = op
        # Release the contiguous run now available from this origin.
        while (origin, self._expected[origin]) in self._holdback:
            ready = self._holdback.pop((origin, self._expected[origin]))
            self._expected[origin] += 1
            seq = self._next_seq
            self._next_seq += 1
            self.ops_sequenced += 1
            self._sequenced_ids.add(ready.op_id)
            self._unacked.pop(ready.op_id, None)
            if self.service_time > 0.0:
                # Queueing model: each op occupies the sequencer for one
                # service interval; fan-out happens when service completes.
                start = max(self.clock.now, self._busy_until)
                done = start + self.service_time
                self._busy_until = done
                self.events.schedule(
                    done,
                    (lambda s=seq, o=ready: self._fan_out(s, o, self.sequencer_node)),
                    priority=BUS_PRIORITY,
                    tag=("bus_seq",),
                )
            else:
                self._fan_out(seq, ready, self.sequencer_node)

    # -- failover ----------------------------------------------------------------

    def _failover(self) -> None:
        """Elect the lowest live node as replacement sequencer.

        The sequenced log, FIFO reassembly state, and next sequence
        number are modelled as shared bus state (a real deployment
        rebuilds them from the replicated log during election), so the
        replacement continues the gap-free global order; unacked
        submissions are re-driven after one election delay.
        """
        live = self.live_nodes()
        if not live:
            # Total outage: unacked ops wait for the first recovery.
            return
        if self.transport.node_is_down(self.sequencer_node):
            self.sequencer_node = live[0]
            self._record_failover("sequencer", "sequencer_down",
                                  new_leader=self.sequencer_node)
        self._schedule_redrive(self.FAILOVER_DELAY)

    def _schedule_redrive(self, delay: float) -> None:
        if self._redrive_scheduled:
            return
        self._redrive_scheduled = True
        self.events.schedule(
            self.clock.now + delay, self._redrive, priority=BUS_PRIORITY,
            tag=("bus_ctl",),
        )

    def _redrive(self) -> None:
        self._redrive_scheduled = False
        pending = sorted(
            self._unacked.values(), key=lambda o: (o.origin_node, o.origin_seq)
        )
        for op in pending:
            self._to_sequencer(op)

    def on_node_down(self, node: int) -> None:
        if node == self.sequencer_node:
            self._failover()

    def on_node_recovered(self, node: int) -> None:
        if self.transport.node_is_down(self.sequencer_node):
            self._failover()
        elif self._unacked:
            self._schedule_redrive(0.0)

    def __repr__(self):
        return f"<SequencerBus @n{self.sequencer_node} seq={self._next_seq}>"


class TokenRingBus(Bus):
    """Rotating-token total order (the Amoeba/token-protocol family).

    A token circulates through the nodes in id order.  When a node holds
    the token, all submissions that have *arrived* at that node are
    stamped with consecutive global sequence numbers and fanned out.  The
    token then travels to the next node after ``hold_time``.

    The token "carries" the global sequence counter, which is what makes
    the order total without a central sequencer.
    """

    def __init__(self, nodes, events, clock, transport, hold_time: float = 0.05):
        super().__init__(nodes, events, clock, transport)
        self.hold_time = hold_time
        self._next_seq = 0
        self._pending: dict[int, deque[VisibilityOp]] = {n: deque() for n in self.nodes}
        self._expected: dict[int, int] = {}
        self._holdback: dict[tuple[int, int], VisibilityOp] = {}
        self._token_holder_index = 0
        self._token_started = False

    def submit(self, op: VisibilityOp) -> None:
        # The op is already at its origin node; it waits for the token.
        self._enqueue_fifo(op)
        self._ensure_token()

    def _enqueue_fifo(self, op: VisibilityOp) -> None:
        """Restore per-origin FIFO before queuing for the token."""
        origin = op.origin_node
        self._expected.setdefault(origin, 0)
        self._holdback[(origin, op.origin_seq)] = op
        while (origin, self._expected[origin]) in self._holdback:
            ready = self._holdback.pop((origin, self._expected[origin]))
            self._expected[origin] += 1
            self._pending[origin].append(ready)

    def _ensure_token(self) -> None:
        if not self._token_started:
            self._token_started = True
            self.events.schedule(
                self.clock.now + self.hold_time,
                self._token_arrives,
                priority=BUS_PRIORITY,
                tag=("bus_token",),
            )

    def _token_arrives(self) -> None:
        from repro.core.errors import TransportError

        holder = self.nodes[self._token_holder_index]
        if self.transport.node_is_down(holder):
            # The holder crashed with the token: regenerate it at the next
            # live node.  The crashed node's parked ops stay parked until
            # it recovers — no other node holds copies of them.
            self._record_failover("token-ring", "token_regenerated")
        else:
            queue = self._pending[holder]
            while queue:
                op = queue.popleft()
                seq = self._next_seq
                self._next_seq += 1
                self.ops_sequenced += 1
                self._fan_out(seq, op, holder)
        # Pass the token to the next *live* node on the ring.
        next_index = self._next_live_index(self._token_holder_index)
        if next_index is None:
            # Total outage: the token parks; recovery restarts it.
            self._token_started = False
            return
        self._token_holder_index = next_index
        next_holder = self.nodes[next_index]
        self.protocol_messages += 1  # the token itself is a message
        try:
            hop = self.transport.deliver_latency(holder, next_holder)
        except (TransportError, RuntimeError):
            # The old holder (or the link out of it) is down; the
            # regenerated token materializes at the next holder after one
            # hold interval instead of killing the run.
            hop = self.hold_time
        # The token circulates while work is pending; it parks once idle so
        # the event queue can drain (the next submit restarts it).
        if self._any_pending():
            self.events.schedule(
                self.clock.now + hop + self.hold_time,
                self._token_arrives,
                priority=BUS_PRIORITY,
                tag=("bus_token",),
            )
        else:
            self._token_started = False

    def _next_live_index(self, from_index: int) -> int | None:
        """Index of the next live node on the ring, or ``None`` if all down."""
        n = len(self.nodes)
        for step in range(1, n + 1):
            idx = (from_index + step) % n
            if not self.transport.node_is_down(self.nodes[idx]):
                return idx
        return None

    def _any_pending(self) -> bool:
        """Is there work the token can still serve?

        Ops parked at crashed nodes are excluded: counting them would keep
        the token circulating forever (the event queue would never drain)
        for work that cannot be sequenced until the origin recovers.
        """
        down = self.transport.node_is_down
        if any(self._pending[n] and not down(n) for n in self.nodes):
            return True
        return any(not down(origin) for origin, _ in self._holdback)

    def on_node_recovered(self, node: int) -> None:
        if self._any_pending():
            self._ensure_token()

    def __repr__(self):
        return f"<TokenRingBus holder={self.nodes[self._token_holder_index]} seq={self._next_seq}>"
