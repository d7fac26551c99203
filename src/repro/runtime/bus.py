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
  sequence number, and are fanned out to every coordinator.  The
  protocol itself is :mod:`repro.runtime.sequencer`; the class here is
  the simulator's driver of it.
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
from collections import ChainMap, deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.errors import TransportError

from .clock import VirtualClock
from .events import EventQueue
from .sequencer import OP, SUBMIT, SYNC_REQ, SequencerCore
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


@dataclass(slots=True)
class VisibilityOp:
    """One replicated operation plus its origin bookkeeping."""

    kind: OpKind
    args: dict[str, Any]
    origin_node: int
    origin_seq: int = 0  #: per-(origin, shard) FIFO counter, stamped at submit
    op_id: int = field(default_factory=lambda: next(_op_ids))
    #: The shard whose stream sequences this op (a one-shard plane has
    #: only shard 0).
    shard: int = 0
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
        #: node -> that node's per-shard applied cursors (the
        #: coordinators' own lists), installed by the host with
        #: ``deliver`` and read by the protocol as each replica's cursor.
        self.applied: "list[list[int]] | None" = None
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
        #: The sequenced-op log: seq -> op, as the simulator observes it
        #: (the oracle reads it); a real deployment would truncate it at
        #: the all-applied watermark.
        self.log: dict[int, VisibilityOp] = {}
        #: Plane hooks, set by the system, which runs one bus per shard:
        #: the shard id and a shared cross-shard sequencing journal
        #: (appended when an op is sequenced).  0/``None`` for a
        #: standalone bus.
        self.shard_id = 0
        self.journal: "list[tuple[int, int]] | None" = None

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

    def _record_sequenced(self, seq: int, op: VisibilityOp,
                          from_node: int) -> None:
        """``from_node`` just gave ``op`` its place in the order: count
        and journal it."""
        self.ops_sequenced += 1
        if self.journal is not None:
            self.journal.append((self.shard_id, seq))
        if self.event_log is not None and self.event_log.enabled:
            self.event_log.emit(
                "bus_sequenced", self.clock.now, from_node, None,
                global_seq=seq, op=op.kind.value, origin_node=op.origin_node,
                origin_seq=op.origin_seq,
            )


class _NodePort:
    """One node's end of the simulated bus: the host port of its core."""

    __slots__ = ("bus", "node", "is_down")

    def __init__(self, bus: "SequencerBus", node: int):
        self.bus = bus
        self.node = node
        self.is_down = bus.transport.node_is_down

    def send(self, to: int, msg: str, a, b) -> None:
        """One frame as one event — to this node itself too, so message
        counts and virtual latencies keep their meaning."""
        bus, src, is_down = self.bus, self.node, self.is_down
        bus.protocol_messages += 1
        try:
            latency = bus.transport.deliver_latency(src, to)
        except (TransportError, RuntimeError):
            return  # an end is down: the frame is lost
        core, when = bus.cores[to], bus.clock.now
        if msg is OP:
            # Fan-out leaves when the seat's service queue has drained.
            when, tag, handler, args = max(when, bus._busy_until), \
                ("bus", to), core.on_op, (a, b)
        elif msg is SUBMIT:
            tag, handler, args = ("bus_seq",), core.on_submit, (src, a)
        else:  # a sync frame: (from_seq | upto, the asker's round)
            tag, args = ("bus_ctl",), (src, a, b)
            handler = core.on_sync_req if msg is SYNC_REQ else core.on_sync_done

        def arrive() -> None:
            if not is_down(to):
                handler(*args)
                if core.store is not None:
                    bus._end_turn(core)
        bus.events.schedule(when + latency, arrive,
                            priority=BUS_PRIORITY, tag=tag)

    def cursor(self) -> int:
        bus = self.bus
        return bus.applied[self.node][bus.shard_id]

    def deliver(self, seq: int, op: VisibilityOp) -> None:
        self.bus.deliver(self.node, seq, op)

    def timer(self, delay: float, fn: Callable[[], None]) -> None:
        bus, node = self.bus, self.node

        def fire() -> None:
            if self.is_down(node):
                bus._parked.setdefault(node, []).append(fn)
            else:
                fn()
                bus._end_turn(bus.cores[node])

        bus.events.schedule(bus.clock.now + delay, fire,
                            priority=BUS_PRIORITY, tag=("bus_ctl",))

    def sequenced(self, seq: int, op: VisibilityOp) -> None:
        bus = self.bus
        if bus.service_time > 0.0:
            # Queueing model: each op occupies the seat for one service
            # interval; its fan-out happens when service completes.
            bus._busy_until = max(bus.clock.now, bus._busy_until) \
                + bus.service_time
        bus._record_sequenced(seq, op, self.node)

    def failover(self, leader: int, reason: str) -> None:
        if leader == self.node:  # one report per move: the gainer's
            self.bus._record_failover("sequencer", reason, new_leader=leader)


class SequencerBus(Bus):
    """The simulator's driver of the sequencer protocol.

    One :class:`~repro.runtime.sequencer.SequencerCore` per node; their
    frames travel as events with the transport's latency, a frame to or
    from a crashed node is lost, and a crashed node's timers wait for
    its recovery.  What stays here is what only a simulator has: the
    observer's journal and view of the logs, and the ``service_time``
    queueing model.  A node is durable when its cores have stores
    (``cores[node].store``, as a node process attaches them); each
    core's turn — a frame, a timer, a liveness or rebalance call — ends
    at its commit point (:meth:`_end_turn`).
    """

    def __init__(self, nodes, events, clock, transport,
                 sequencer_node: int | None = None,
                 service_time: float = 0.0):
        super().__init__(nodes, events, clock, transport)
        home = self.nodes[0] if sequencer_node is None else sequencer_node
        #: Modelled serial per-op service time at the seat (virtual
        #: seconds).  Zero (default) sequences instantaneously.  Non-zero
        #: makes the seat a real queueing station: ops are stamped in
        #: order but fanned out one service interval apart, so a single
        #: global sequencer saturates and per-shard sequencers visibly
        #: divide the load (what experiment E19 measures).
        self.service_time = service_time
        self._busy_until = 0.0
        self.cores = {n: SequencerCore(n, self.nodes, home, _NodePort(self, n))
                      for n in self.nodes}
        # The observer's log is a view, not a copy: what any node has logged.
        self.log = ChainMap(*(core.log for core in self.cores.values()))
        #: Timers that came due on a crashed node: node -> callbacks.
        self._parked: dict[int, list[Callable[[], None]]] = {}

    @property
    def sequencer_node(self) -> int:
        """The seat, in the view of the lowest live node."""
        live = self.live_nodes()
        return self.cores[live[0] if live else self.nodes[0]].seat

    def submit(self, op: VisibilityOp) -> None:
        """Accept ``op`` at its origin's core.  Never raises on a crashed
        seat: the op parks as unacked and failover re-drives it."""
        self.cores[op.origin_node].submit(op)

    def _end_turn(self, core: SequencerCore) -> None:
        """A core's commit point, by ``NodeRuntime._commit_turn``'s rule:
        commit while anything is staged (effects may stage more), then
        arm the ``fsync="batch"`` timer."""
        store = core.store
        if store is not None:
            while store.dirty:
                store.commit()
            store.arm_sync(self.events, self.clock.now)

    def on_node_down(self, node: int) -> None:
        for core in self.cores.values():
            core.on_node_down(node)
            self._end_turn(core)

    def on_node_recovered(self, node: int) -> None:
        for core in self.cores.values():
            core.on_node_recovered(node)
            self._end_turn(core)
        for fn in self._parked.pop(node, ()):
            fn()
        self._end_turn(self.cores[node])

    def rebalance(self, node: int) -> None:
        """Move the home seat to ``node``, live."""
        for core in self.cores.values():
            core.rebalance(node)
            self._end_turn(core)

    def __repr__(self):
        return f"<SequencerBus @n{self.sequencer_node} seq={len(self.log)}>"


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
        #: origin -> the origin seq its next submission gets.
        self._next_origin: dict[int, int] = {}
        self._token_holder_index = 0
        self._token_started = False

    def submit(self, op: VisibilityOp) -> None:
        # The op is already at its origin node; it waits for the token
        # there, numbered and queued in submission order (per-origin FIFO).
        origin = op.origin_node
        op.origin_seq = self._next_origin.get(origin, 0)
        self._next_origin[origin] = op.origin_seq + 1
        self._pending[origin].append(op)
        self._ensure_token()

    def _ensure_token(self) -> None:
        if not self._token_started:
            self._token_started = True
            self.events.schedule(
                self.clock.now + self.hold_time,
                self._token_arrives,
                priority=BUS_PRIORITY,
                tag=("bus_token",),
            )

    def _fan_out(self, seq: int, op: VisibilityOp, from_node: int) -> None:
        """Record the op and send it to every coordinator (crashed nodes
        are skipped; recovery replays what they missed)."""
        self.log[seq] = op
        self._record_sequenced(seq, op, from_node)
        for node in self.nodes:
            self.protocol_messages += 1
            try:
                latency = self.transport.deliver_latency(from_node, node)
            except (TransportError, RuntimeError):
                continue
            self._deliver_at(self.clock.now + latency, node, seq, op)

    def _deliver_at(self, when: float, node: int, seq: int,
                    op: VisibilityOp) -> None:
        self.events.schedule(
            when, lambda: self.deliver(node, seq, op),
            priority=BUS_PRIORITY, tag=("bus", node))

    def _token_arrives(self) -> None:
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
        return any(self._pending[n] and not down(n) for n in self.nodes)

    def on_node_recovered(self, node: int) -> None:
        self._replay_to(node)
        if self._any_pending():
            self._ensure_token()

    def _replay_to(self, node: int) -> None:
        """State transfer: redeliver every logged op the recovering
        ``node`` has not applied, with ordinary transport latency and
        through the same hold-back path, so recovery is catching up on
        the total order.  The source is the lowest live node besides
        ``node`` — or ``node`` itself, which is live again, if no other
        is."""
        cursor = self.applied[node][self.shard_id]
        others = [n for n in self.live_nodes() if n != node]
        source = others[0] if others else node
        for seq in sorted(s for s in self.log if s >= cursor):
            self.protocol_messages += 1
            try:
                latency = self.transport.deliver_latency(source, node)
            except (TransportError, RuntimeError):  # pragma: no cover
                break
            self._deliver_at(self.clock.now + latency, node, seq,
                             self.log[seq])

    def __repr__(self):
        return f"<TokenRingBus holder={self.nodes[self._token_holder_index]} seq={self._next_seq}>"
