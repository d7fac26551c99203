"""The system facade: boot a simulated ActorSpace world and drive it.

:class:`ActorSpaceSystem` wires together the whole architecture of
section 7 — one coordinator per node (Fig. 2), a virtual coordinator bus
(Fig. 3), a globally visible root actorSpace (section 7.1) — over the
deterministic discrete-event substrate.  The application driver plays the
paper's *manager* role: it holds capabilities, creates actors and spaces,
injects external messages, and can run privileged operations such as
garbage collection or node crashes (failure injection).

Typical use::

    system = ActorSpaceSystem(topology=Topology.lan(4), seed=7)
    worker = system.create_actor(WorkerBehavior(), node=1)
    system.make_visible(worker, "workers/w1", system.root_space)
    system.send("workers/*", payload={"job": 42})
    system.run()

``run()`` executes events until the queue drains (quiescence) or a limit
is hit; virtual time then tells you how long the computation "took".
"""

from __future__ import annotations

import itertools
from typing import Callable

from repro.core.actor import ActorRecord
from repro.core.addresses import ActorAddress, MailAddress
from repro.core.gc import GarbageCollector, GcReport, scan_addresses
from repro.core.manager import SpaceManager
from repro.core.messages import Envelope

from .bus import SequencerBus, TokenRingBus
from .clock import VirtualClock
from .coordinator import Coordinator
from .eventlog import EventLog, export_chrome_trace
from .events import EventQueue
from .failure import DeadLetterQueue, FailureDetector
from .host import Host
from .network import LatencyModel, Network, Topology
from .transport import LossyTransport, NetworkTransport, Transport


class ActorSpaceSystem(Host):
    """A complete simulated ActorSpace deployment: the :class:`Host` of
    every node, plus the simulation — topology and (lossy) network, the
    virtual clock, in-process bus streams, ``run``/``step``, crash and
    recovery injection, GC.

    Parameters
    ----------
    topology:
        Node/cluster layout (default: a single node).
    seed:
        Master seed for every random stream in the run.
    latency_model:
        Link-class latencies (default :class:`LatencyModel`).
    bus:
        ``"sequencer"`` (default) or ``"token-ring"`` — the total-order
        protocol for visibility changes (section 7.3; ablated in E9).
    processing_delay:
        Virtual time consumed scheduling each behavior invocation; zero
        keeps semantics-only tests instantaneous.
    loss:
        Per-attempt message loss probability (failure injection); the
        transport retransmits, preserving eventual delivery.
    root_manager_factory:
        Manager policies for the root space (default: paper defaults).
    dlq_capacity / dlq_max_redeliveries:
        Bounds of the per-destination :class:`DeadLetterQueue` capturing
        envelopes dropped because their destination was down (or their
        target dead); queued letters are redelivered with capped
        exponential backoff when the destination recovers.
    trace:
        The causal flight recorder.  ``False`` (default) disables it —
        the hot path pays one attribute check per hook.  ``True``
        enables an in-memory :class:`~repro.runtime.eventlog.EventLog`
        ring buffer; an :class:`EventLog` instance is used as-is (bring
        your own capacity/sinks).
    mailbox_capacity / mailbox_policy:
        Overload protection for actors: bound every mailbox's
        INVOCATION port at ``mailbox_capacity`` envelopes and shed the
        overflow per :class:`~repro.core.mailbox.ShedPolicy`
        (``drop-oldest`` / ``drop-newest`` / ``suspend-sender``).  Shed
        mail flows into the dead-letter queue with backoff redelivery —
        counted, never vanished.  ``None`` (default) keeps mailboxes
        unbounded.
    admission_rate / admission_burst / breaker_*:
        Admission control at the routing door: a per-route token bucket
        (``admission_rate`` msgs/s, ``admission_burst`` capacity) and a
        per-destination circuit breaker that opens after
        ``breaker_threshold`` mailbox sheds within ``breaker_window``
        seconds (or a saturated DLQ) and re-closes after
        ``breaker_cooldown`` quiet seconds.  Both default to off.
    """

    def __init__(
        self,
        topology: Topology | None = None,
        seed: int = 0,
        latency_model: LatencyModel | None = None,
        bus: str = "sequencer",
        processing_delay: float = 0.0,
        loss: float = 0.0,
        root_manager_factory: Callable[[], SpaceManager] | None = None,
        dlq_capacity: int = 256,
        dlq_max_redeliveries: int = 4,
        trace: "bool | EventLog" = False,
        mailbox_capacity: int | None = None,
        mailbox_policy: str = "drop-oldest",
        admission_rate: float | None = None,
        admission_burst: float | None = None,
        breaker_threshold: int | None = None,
        breaker_window: float = 1.0,
        breaker_cooldown: float = 0.5,
        shards: int = 1,
        sequencer_service_time: float = 0.0,
        shard_sequencer: int | None = None,
    ):
        from repro.shard import ShardedBus

        if bus not in ("sequencer", "token-ring"):
            raise ValueError(f"unknown bus protocol {bus!r}")
        if bus == "token-ring" and shards > 1:
            raise ValueError("a partitioned plane requires bus='sequencer'")
        self.topology = topology or Topology.single()
        self.clock = VirtualClock()
        self.events = EventQueue()
        self.nodes = self.local_nodes = nodes = list(self.topology.nodes)
        super().__init__(
            seed, trace, mailbox_capacity, mailbox_policy, admission_rate,
            admission_burst, breaker_threshold, breaker_window,
            breaker_cooldown, shards, shard_sequencer)
        self.processing_delay = processing_delay
        if root_manager_factory is not None:
            for coordinator in self.coordinators:
                coordinator.managers[self.root_space] = root_manager_factory()
        self.network = Network(self.topology, latency_model, self.rng.stream("latency"))
        base_transport: Transport = NetworkTransport(self.network)
        self._network_transport = base_transport
        if loss > 0.0:
            base_transport = LossyTransport(base_transport, loss, self.rng.stream("loss"))
        self.transport: Transport = base_transport
        self.dead_letters = DeadLetterQueue(
            self, capacity=dlq_capacity, max_redeliveries=dlq_max_redeliveries
        )

        # One total-order bus per shard of the map, behind a facade.
        coordinators = self.coordinators
        journal: list[tuple[int, int]] = []
        # The tick is the offline merge key across streams: stamped (and
        # persisted) only when there is more than one stream to merge.
        ticks = itertools.count() if shards > 1 else None

        def make_stream(shard, seat):
            if bus == "sequencer":
                stream = SequencerBus(
                    nodes, self.events, self.clock, self.transport,
                    sequencer_node=seat, service_time=sequencer_service_time)
            else:
                stream = TokenRingBus(nodes, self.events, self.clock,
                                      self.transport)
            stream.shard_id, stream.journal, stream.tick_counter = \
                shard, journal, ticks
            stream.event_log, stream.tracer = self.event_log, self.tracer
            stream.deliver = lambda node, seq, op: \
                coordinators[node].on_bus_delivery(seq, op)
            stream.applied = [c._shard_cursors for c in coordinators]
            return stream

        self.bus = ShardedBus(self.shard_map, make_stream)

    # ------------------------------------------------------------------
    # Simulation control
    # ------------------------------------------------------------------

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Process events until quiescence, ``until``, or ``max_events``.

        Returns the virtual time at which the run stopped.
        """
        events, clock = self.events, self.clock
        pop = events.pop  # the one call per event; a tiebreaker acts in it
        executed = 0
        while True:
            if until is not None:
                next_time = events.peek_time()
                if next_time is not None and next_time > until:
                    if until > clock.now:
                        clock.advance_to(until)
                    break
            if max_events is not None and executed >= max_events:
                break
            popped = pop()
            if popped is None:
                break
            time, action = popped
            if time > clock.now:
                clock.advance_to(time)
            # An event scheduled in the (virtual) past — e.g. a driver
            # hook armed after the clock already passed its time — fires
            # immediately at the current instant.
            action()
            executed += 1
        return clock.now

    def step(self) -> bool:
        """Execute a single event; returns False when the queue is empty."""
        executed = self.events.executed_count
        self.run(max_events=1)
        return self.events.executed_count > executed

    @property
    def idle(self) -> bool:
        """True when no events remain (the system is quiescent)."""
        return not self.events

    # -- failure injection -------------------------------------------------------

    def crash_node(self, node: int) -> None:
        """Hard-crash a node: its actors stop, messages to it are lost.

        The bus is notified immediately (a crashed sequencer or token
        holder must not kill the protocol), but the directory is *not*
        quarantined here — dead replicas stay visible until the failure
        detector confirms them down, preserving E11's baseline blast
        radius for runs without a detector.
        """
        self.coordinators[node].crashed = True
        self._network_transport.crash_node(node)  # type: ignore[attr-defined]
        self.bus.on_node_down(node)

    def recover_node(self, node: int) -> None:
        """Bring a crashed node back; its actors resume where they stopped.

        Recovery is the self-healing hinge: the bus replays the missed
        visibility ops from its log (state transfer), every replica
        lifts its quarantine mask for the node and reconsiders parked
        messages the mask was hiding matches from, the failure detector
        forgets its verdicts, the bus resumes work parked on the node,
        dead letters captured for it are redelivered with backoff, and
        mailbox backlogs accepted before the crash restart processing.
        """
        recovered = self.coordinators[node]
        recovered.crashed = False
        self._network_transport.recover_node(node)  # type: ignore[attr-defined]
        unmasked: list[Coordinator] = []
        for coordinator in self.coordinators:
            if node in coordinator.directory.quarantined_nodes:
                coordinator.directory.unquarantine_node(node)
                self.tracer.on_quarantine(
                    "unquarantined", coordinator.node_id, self.clock.now,
                    target_node=node,
                )
                unmasked.append(coordinator)
        # The recovering replica may itself hold stale masks for peers
        # that came back while it was down.
        own = recovered.directory
        for peer in list(own.quarantined_nodes):
            if not self.transport.node_is_down(peer):
                own.unquarantine_node(peer)
                if recovered not in unmasked:
                    unmasked.append(recovered)
        # Lifting a mask can make a parked message matchable again (§5.6):
        # the node's actors were only hidden, not unregistered, so every
        # coordinator that unmasked must reconsider what it parked.
        # (Masks change outside the bus, so the op-apply recheck never
        # sees this transition.)
        for coordinator in unmasked:
            if not coordinator.crashed:
                coordinator._recheck_parked()
        if self.failure_detector is not None:
            self.failure_detector.on_node_recovered(node)
        self.bus.on_node_recovered(node)
        self.dead_letters.flush(node)
        # Mail accepted before the crash is still queued; processing
        # events were swallowed while ``crashed`` was set, so restart the
        # pump for every actor with a backlog.
        for record in recovered.actors.values():
            if not record.terminated and not record.mailbox.is_empty:
                recovered._schedule_processing(record)

    def rebalance_shard(self, shard: int, node: int) -> int:
        """Move one shard's sequencer role to ``node``, live (driver op).

        Returns the new shard-map version.
        """
        return self.bus.rebalance(shard, node)

    def start_failure_detector(
        self,
        duration: float,
        interval: float = 0.5,
        suspect_after: int = 2,
        confirm_after: int = 4,
    ) -> FailureDetector:
        """Arm (or extend) heartbeat-based peer monitoring.

        ``duration`` bounds the detector in virtual time — an unbounded
        periodic timer would keep :meth:`run` from ever reaching
        quiescence.  Returns the detector for introspection.
        """
        if self.failure_detector is None:
            self.failure_detector = FailureDetector(
                self, interval=interval,
                suspect_after=suspect_after, confirm_after=confirm_after,
            )
        return self.failure_detector.start(duration)

    # -- introspection -------------------------------------------------------------

    def actor_record(self, address: ActorAddress) -> ActorRecord | None:
        return self.coordinators[address.node].actors.get(address)

    def resolution_cache_stats(self, node: int | None = None) -> dict:
        """Resolution-cache counters, per node or summed across nodes."""
        if node is not None:
            return self.coordinators[node].resolution_cache.stats()
        total: dict = {}
        for coordinator in self.coordinators:
            for key, value in coordinator.resolution_cache.stats().items():
                total[key] = total.get(key, 0) + value
        return total

    def replicas_coherent(self) -> bool:
        """Do all directory replicas currently agree?  (Run to quiescence first.)"""
        snapshots = [c.directory.snapshot() for c in self.coordinators if not c.crashed]
        return all(s == snapshots[0] for s in snapshots[1:])

    # -- observability ----------------------------------------------------------

    def trace_events(self, kind: str | None = None) -> list:
        """The flight recorder's buffered events (optionally one kind)."""
        if kind is None:
            return list(self.event_log)
        return self.event_log.by_kind(kind)

    def export_trace(self, path: str) -> dict:
        """Write the buffered events as a Chrome ``trace_event`` file.

        The result opens directly in ``chrome://tracing`` / Perfetto
        with one track per node; returns the trace dict.
        """
        return export_chrome_trace(self.event_log, path)

    def export_observables(self) -> dict:
        """One coherent dump of the observable state the paper specifies.

        Consumed by the conformance oracle (``repro.check``) at trace
        boundaries; everything here is defined by §5 semantics, not by
        implementation detail: per-replica directory snapshots and
        quarantine masks, per-origin park sets (§5.6), parked dead
        letters, and which nodes are crashed.
        """
        return {
            "directories": {
                c.node_id: c.directory.snapshot() for c in self.coordinators
            },
            "masks": {
                c.node_id: c.directory.quarantined_nodes for c in self.coordinators
            },
            "parked": {c.node_id: c.export_parked() for c in self.coordinators},
            "dead_letters": self.dead_letters.export_pending(),
            "crashed": {c.node_id for c in self.coordinators if c.crashed},
        }

    # -- GC ---------------------------------------------------------------------------

    def collect_garbage(self, delete: bool = True) -> GcReport:
        """Run a collection cycle over the whole system (driver privilege).

        Marks from the held roots and every *pending* message, per
        section 5.5: "an actor may be garbage collected if ... no
        messages containing its mail address are pending."  Pending
        covers more than the in-flight map — suspended and persistent
        envelopes parked at their origin coordinator (§5.6) and dead
        letters awaiting redelivery are all still undelivered messages,
        so the addresses they carry pin their referents too.  With
        ``delete=True`` collected actors are terminated and purged from
        every registry, and collected spaces destroyed.
        """
        acquaintances: dict[ActorAddress, set[MailAddress]] = {}
        all_actors: list[ActorAddress] = []
        active: list[ActorAddress] = []
        for coordinator in self.coordinators:
            for address, record in coordinator.actors.items():
                if record.terminated:
                    continue
                all_actors.append(address)
                if not record.mailbox.is_empty:
                    active.append(address)
            acquaintances.update(coordinator.acquaintances)

        def pin(envelope: Envelope) -> None:
            if envelope.target is not None:
                in_flight.add(envelope.target)
            if envelope.sender is not None:
                in_flight.add(envelope.sender)
            in_flight.update(scan_addresses(envelope.message.payload))
            if envelope.message.reply_to is not None:
                in_flight.add(envelope.message.reply_to)

        in_flight: set[MailAddress] = set()
        for envelope in self.in_flight.values():
            pin(envelope)
        for coordinator in self.coordinators:
            for envelope in coordinator.suspended:
                pin(envelope)
            for envelope, _delivered in coordinator.persistent:
                pin(envelope)
        for letter in self.dead_letters.letters():
            pin(letter.envelope)

        directory = self.coordinators[0].directory
        collector = GarbageCollector(directory, acquaintances)
        report = collector.collect(
            roots=set(self._held_roots),
            all_actors=all_actors,
            active_actors=active,
            in_flight=in_flight,
        )
        self.tracer.on_gc(0, self.clock.now, report)
        if delete:
            for address in report.collected_actors:
                self.coordinators[address.node].terminate_actor(address)
            for space in report.collected_spaces:
                if space != self.root_space:
                    self.coordinators[0].destroy_space(space)
        return report

    def __repr__(self):
        total = sum(len(c.actors) for c in self.coordinators)
        return (
            f"<ActorSpaceSystem nodes={self.topology.node_count} actors={total} "
            f"t={self.clock.now:.4f}>"
        )
