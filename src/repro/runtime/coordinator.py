"""Per-node coordinators: the run-time support of section 7.2.

"The single-node design associates all the executing actors on a node
with a single local coordinator. ... The Coordinator ... provides the main
run-time support and carries out the ActorSpace coordination primitives."

Each coordinator owns:

* the **actor records** of every actor executing on its node;
* a full **replica of the visibility directory**, kept coherent with the
  other coordinators by applying :class:`~repro.runtime.bus.VisibilityOp`
  values in the bus's total order (section 7.3) through a hold-back queue;
* the node's **suspended** pattern messages and **persistent** broadcasts
  (section 5.6) — held at the *origin* coordinator so each suspended
  message is released exactly once;
* the conservative **acquaintance graph** feeding garbage collection.

Message routing needs no directory lookup: a mail address embeds its home
node ("the coordinators automatically determine the location of an actor
given its name"), so the coordinator forwards envelopes straight to the
target's node through the transport.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Callable

from repro.core.actor import ActorRecord, Behavior, as_behavior
from repro.core.actorspace import SpaceRecord
from repro.core.addresses import (
    ActorAddress,
    AddressFactory,
    MailAddress,
    SpaceAddress,
)
from repro.core.capabilities import Capability, authorize
from repro.core.errors import (
    ActorSpaceError,
    CapabilityError,
    NodeDownError,
    TransportError,
    VisibilityCycleError,
)
from repro.core.gc import scan_addresses
from repro.core.manager import Arbitration, SpaceManager, UnmatchedPolicy, default_manager
from repro.core.mailbox import Mailbox
from repro.core.matching import (
    MatchStats,
    ResolutionCache,
    resolve_actors,
    resolve_destination_spaces,
)
from repro.core.messages import Envelope, Mode, Port
from repro.core.visibility import Directory

from .bus import OpKind, VisibilityOp

if TYPE_CHECKING:  # pragma: no cover
    from .host import Host

#: Event priority for actor message processing (after bus traffic).
ACTOR_PRIORITY = 0

#: Ops that mutate one space's registry of actors: they ride that space's
#: home shard and may outrun its ``ADD_SPACE`` (see ``_apply_op``).
_ACTOR_VISIBILITY_KINDS = frozenset({
    OpKind.MAKE_VISIBLE, OpKind.MAKE_INVISIBLE, OpKind.CHANGE_ATTRIBUTES})


def _behavior_addresses(behavior: Behavior):
    """Conservatively enumerate mail addresses held in a behavior's state.

    A behavior that answers ``__addresses__()`` — the hook
    ``scan_addresses`` gives payload objects — is taken at its word: it
    promises a superset of what the walk below would find.  The walk
    covers instance ``__dict__``, ``__slots__``, and — for function
    behaviors — values captured in the function's closure cells: an
    address squirrelled away in a closure must pin its target exactly
    like one stored on an attribute.
    """
    hook = getattr(behavior, "__addresses__", None)
    if callable(hook):
        yield from (a for a in hook() if isinstance(a, MailAddress))
        return
    if hasattr(behavior, "__dict__"):
        yield from scan_addresses(vars(behavior))
    for slot in getattr(type(behavior), "__slots__", ()):
        yield from scan_addresses(getattr(behavior, slot, None))
    fn = getattr(behavior, "fn", None)
    closure = getattr(fn, "__closure__", None)
    if closure:
        for cell in closure:
            try:
                yield from scan_addresses(cell.cell_contents)
            except ValueError:  # empty cell
                continue


class Coordinator:
    """Run-time support for one node."""

    def __init__(self, node_id: int, system: "Host"):
        self.node_id = node_id
        self.system = system
        self.addresses = AddressFactory(node_id)
        self.directory = Directory()
        #: Memoized pattern resolutions against this node's replica,
        #: invalidated by directory/space epochs.  Suspended and
        #: persistent envelopes re-resolve through it, so a visibility
        #: change that cannot affect an envelope's resolution path costs
        #: an epoch check instead of a fresh DAG walk; one that changed a
        #: single actor entry on it costs a re-test of that entry.
        self.resolution_cache = ResolutionCache()
        #: Per-space policy managers (replicated: constructed from op args).
        self.managers: dict[SpaceAddress, SpaceManager] = {}
        self.actors: dict[ActorAddress, ActorRecord] = {}
        #: Conservative acquaintance sets for local actors.
        self.acquaintances: dict[ActorAddress, set[MailAddress]] = {}
        #: Suspended pattern envelopes originated here: [(envelope,)].
        self.suspended: list[Envelope] = []
        #: Persistent broadcasts originated here: [(envelope, delivered_to)].
        self.persistent: list[tuple[Envelope, set[ActorAddress]]] = []
        #: The visibility plane's router: every plane is a ``ShardMap`` of
        #: ``n >= 1`` streams, and the router (shared by the host's
        #: coordinators) says which stream sequences which op.
        self.router = system.shard_router
        n_shards = self.router.map.n_shards
        #: Per-stream state, indexed by shard — each shard carries an
        #: independent gap-free sequence: the first seq not yet applied
        #: here, and the hold-back queue of ops that arrived ahead of it.
        self._shard_cursors = [0] * n_shards
        self._shard_holdbacks: list[dict[int, VisibilityOp]] = [
            {} for _ in range(n_shards)]
        #: Ops parked because their containing space is not yet known at
        #: this replica (its ADD_SPACE rides a different shard's stream):
        #: space -> FIFO of waiting ops, drained when the ADD applies.
        self._space_waiting: dict[SpaceAddress, list[VisibilityOp]] = {}
        #: Actors with a processing event already scheduled.
        self._processing_scheduled: set[ActorAddress] = set()
        self.crashed = False

    # ------------------------------------------------------------------
    # Bus plumbing
    # ------------------------------------------------------------------

    def submit_op(self, kind: OpKind, args: dict,
                  on_rejected: Callable[[Exception], None] | None = None,
                  on_applied: Callable[[], None] | None = None) -> None:
        """Send a visibility operation to its home shard's sequencer.

        The op joins that shard's stream, which numbers it for
        per-(origin, shard) FIFO.  Cross-cutting kinds (capability
        bindings, purges) fan one copy into every shard's stream; result
        callbacks stay with the shard-0 primary, and ``fan_of`` marks the
        copies.
        """
        router = self.router
        if router.is_fanned(kind):
            shards = range(router.map.n_shards)
        else:
            shards = (router.shard_for_op(kind, args, self.directory),)
        streams = self.system.bus.shards
        fan_of = None
        for shard in shards:
            op = VisibilityOp(
                kind=kind,
                args=args,
                origin_node=self.node_id,
                shard=shard,
                fan_of=fan_of,
                on_rejected=on_rejected,
                on_applied=on_applied,
            )
            streams[shard].submit(op)
            if fan_of is None:
                fan_of, on_rejected, on_applied = op.op_id, None, None

    def on_bus_delivery(self, seq: int, op: VisibilityOp) -> None:
        """Receive a sequenced op; apply in order via the hold-back queue.

        Each shard's ``seq`` is its own gap-free sequence with its own
        cursor; cross-shard interleaving is whatever the transport
        produced, which is safe because ops on different shards only
        ever touch disjoint registries (or commute — see
        :mod:`repro.shard.router`).
        """
        if self.crashed:
            return
        shard = op.shard
        holdback = self._shard_holdbacks[shard]
        holdback[seq] = op
        cursors = self._shard_cursors
        while (cursor := cursors[shard]) in holdback:
            cursors[shard] = cursor + 1
            self._apply_op(holdback.pop(cursor))

    def _apply_op(self, op: VisibilityOp) -> ActorSpaceError | None:
        """Apply one op to the local replica (deterministic across nodes);
        returns the rejection it caught, if any.

        An actor-visibility op rides its space's home shard while the
        space's ``ADD_SPACE`` rides shard 0; a replica may see them in
        either order.  Applying against a never-seen space would reject
        here and succeed elsewhere, so the op parks in a per-space FIFO
        instead and drains — in shard-stream arrival order, identical at
        every replica — the moment the ADD applies.  Tombstoned spaces do
        not park: the authoritative answer is a rejection.
        """
        kind, a = op.kind, op.args
        if (
            op.shard != 0  # shard-0 ops share the ADD's stream: total order
            and kind in _ACTOR_VISIBILITY_KINDS
            and not self.directory.knows_space(a["space"])
        ):
            self._space_waiting.setdefault(a["space"], []).append(op)
            return
        tracer = self.system.tracer
        tracer.on_visibility_applied(self.node_id, op, t=self.system.clock.now)
        # Fan copies (the per-shard replicas of BIND_CAPABILITY / PURGE)
        # never fire result callbacks: the shard-0 primary owns those.
        is_origin = op.origin_node == self.node_id and op.fan_of is None
        try:
            if kind is OpKind.ADD_SPACE:
                record = SpaceRecord(
                    a["address"], a.get("capability"), a.get("node", op.origin_node),
                    created_at=self.system.clock.now,
                    shard=a.get("shard", 0),
                )
                self.directory.add_space(record)
                self.managers[a["address"]] = a.get("manager_factory", default_manager)()
            elif kind is OpKind.DESTROY_SPACE:
                self.directory.destroy_space(a["address"])
                self.managers.pop(a["address"], None)
            elif kind is OpKind.MAKE_VISIBLE:
                manager = self.managers.get(a["space"]) or default_manager()
                self.directory.make_visible(
                    a["target"], a["attributes"], a["space"], a.get("capability"),
                    now=self.system.clock.now, check_cycles=manager.check_cycles,
                )
            elif kind is OpKind.MAKE_INVISIBLE:
                self.directory.make_invisible(
                    a["target"], a["space"], a.get("capability")
                )
            elif kind is OpKind.CHANGE_ATTRIBUTES:
                self.directory.change_attributes(
                    a["target"], a["attributes"], a["space"], a.get("capability"),
                    now=self.system.clock.now,
                )
            elif kind is OpKind.BIND_CAPABILITY:
                self.directory.bind_capability(a["target"], a.get("capability"))
            elif kind is OpKind.PURGE:
                self.directory.purge_target(a["target"], shard=op.shard)
            else:  # pragma: no cover - exhaustive
                raise AssertionError(f"unknown op kind {kind}")
        except ActorSpaceError as exc:
            if is_origin:
                tracer.on_dropped(f"op_rejected:{type(exc).__name__}",
                                  node=self.node_id, t=self.system.clock.now)
                if op.on_rejected is not None:
                    op.on_rejected(exc)
            return exc
        if kind is OpKind.ADD_SPACE:
            # The space exists now: drain ops that arrived on its home
            # shard's stream before this replica knew the space, in
            # their original (replica-independent) stream order.
            for waiting in self._space_waiting.pop(a["address"], ()):
                self._apply_op(waiting)
        if is_origin and op.on_applied is not None:
            op.on_applied()
        # Visibility may have grown: reconsider messages parked here.
        if kind in (OpKind.MAKE_VISIBLE, OpKind.CHANGE_ATTRIBUTES, OpKind.ADD_SPACE):
            self._recheck_parked()

    # ------------------------------------------------------------------
    # Actor lifecycle
    # ------------------------------------------------------------------

    def create_actor(
        self,
        behavior: Behavior | Callable,
        args: tuple = (),
        kwargs: dict | None = None,
        host_space: SpaceAddress | None = None,
        capability: Capability | None = None,
        creator: ActorAddress | None = None,
    ) -> ActorAddress:
        """Create an actor on *this* node; returns its fresh mail address."""
        beh = as_behavior(behavior, *args, **(kwargs or {}))
        space = host_space if host_space is not None else self.system.root_space
        address = self.addresses.new_actor_address()
        record = ActorRecord(
            address, beh, self.node_id, space, capability,
            created_at=self.system.clock.now,
        )
        if self.system.mailbox_capacity is not None:
            record.mailbox = Mailbox(self.system.mailbox_capacity,
                                     self.system.mailbox_policy)
        self.actors[address] = record
        # Conservative acquaintances: addresses reachable from behavior state.
        known: set[MailAddress] = set(_behavior_addresses(beh))
        known.add(space)
        self.acquaintances[address] = known
        if creator is not None and creator in self.acquaintances:
            self.acquaintances[creator].add(address)
        if capability is not None:
            self.submit_op(
                OpKind.BIND_CAPABILITY,
                {"target": address, "capability": capability},
            )
        ctx = self.system.make_context(record)
        beh.on_start(ctx)
        self._flush_context(record, ctx)
        return address

    def terminate_actor(self, address: ActorAddress) -> None:
        """Stop an actor and forget it: free its record, mailbox and
        acquaintances, and drop it from matching and the driver's roots.

        Absent and terminated are one state (a scheduled ``_process_next``
        still holds the record and reads ``terminated``).  Queued mail goes
        to dead-letter capture: counted there, not lost with the mailbox.
        """
        record = self.actors.pop(address, None)
        if record is None:
            return
        record.terminated = True
        del self.acquaintances[address]
        self.system.release(address)
        leftovers = record.mailbox.close()
        log = self.system.tracer.log
        if log.enabled:
            # Flight-recorder visibility for mail lost to termination
            # (event-only: drop *counters* keep their historical meaning).
            for envelope in leftovers:
                log.emit("dropped", self.system.clock.now, self.node_id,
                         envelope, reason="mailbox_closed")
        for envelope in leftovers:
            self.system.dead_letters.capture(envelope, self.node_id,
                                             "mailbox_closed")
        # Remove from every registry; replicated so all nodes stop matching it.
        self.submit_op(OpKind.PURGE, {"target": address})

    # ------------------------------------------------------------------
    # Space lifecycle
    # ------------------------------------------------------------------

    def create_space(
        self,
        capability: Capability | None = None,
        manager_factory: Callable[[], SpaceManager] | None = None,
        attributes=None,
        parent: SpaceAddress | None = None,
    ) -> SpaceAddress:
        """Mint a space address and replicate its creation.

        ``attributes``/``parent`` are placement hints: the space's home
        shard is the hash of its root attribute atom when known, else its
        parent's shard (path-prefix affinity), else a hash of the address.
        A home other than the default shard 0 is stamped into the op args
        so every replica records the same one.
        """
        address = self.addresses.new_space_address()
        args = {
            "address": address,
            "capability": capability,
            "node": self.node_id,
            "manager_factory": manager_factory or default_manager,
        }
        shard = self.router.home_shard_for_new_space(
            address, attributes=attributes, parent=parent,
            directory=self.directory,
        )
        if shard:
            args["shard"] = shard
        self.submit_op(OpKind.ADD_SPACE, args)
        return address

    def destroy_space(self, address: SpaceAddress,
                      on_rejected: Callable[[Exception], None] | None = None) -> None:
        self.submit_op(OpKind.DESTROY_SPACE, {"address": address},
                       on_rejected=on_rejected)

    # ------------------------------------------------------------------
    # Visibility primitives (validated locally when possible, then replicated)
    # ------------------------------------------------------------------

    def _precheck(self, target: MailAddress, space: SpaceAddress,
                  capability: Capability | None, check_cycle_target: bool) -> None:
        """Best-effort synchronous validation against the local replica.

        Raises for errors that are certain given local knowledge (bad
        capability on a locally known space, a cycle already visible
        locally).  Races are re-validated authoritatively, in total order,
        when the op applies at every replica.
        """
        if not self.directory.has_space(space):
            return  # unknown here yet: let apply-time decide
        rec = self.directory.space(space)
        manager = self.managers.get(space)
        if not authorize(capability, rec.capability):
            raise CapabilityError(
                f"capability does not authorize operations in {space!r}"
            )
        if (
            check_cycle_target
            and (manager is None or manager.check_cycles)
            and self.directory.would_cycle(target, space)
        ):
            raise VisibilityCycleError(target, space)

    def make_visible(
        self,
        target: MailAddress,
        attributes,
        space: SpaceAddress,
        capability: Capability | None = None,
    ) -> None:
        self._precheck(target, space, capability, check_cycle_target=True)
        self.submit_op(
            OpKind.MAKE_VISIBLE,
            {
                "target": target,
                "attributes": attributes,
                "space": space,
                "capability": capability,
            },
        )

    def make_invisible(
        self,
        target: MailAddress,
        space: SpaceAddress,
        capability: Capability | None = None,
    ) -> None:
        self._precheck(target, space, capability, check_cycle_target=False)
        self.submit_op(
            OpKind.MAKE_INVISIBLE,
            {"target": target, "space": space, "capability": capability},
        )

    def change_attributes(
        self,
        target: MailAddress,
        attributes,
        space: SpaceAddress,
        capability: Capability | None = None,
    ) -> None:
        self._precheck(target, space, capability, check_cycle_target=False)
        self.submit_op(
            OpKind.CHANGE_ATTRIBUTES,
            {
                "target": target,
                "attributes": attributes,
                "space": space,
                "capability": capability,
            },
        )

    # ------------------------------------------------------------------
    # Communication
    # ------------------------------------------------------------------

    def send_direct(self, envelope: Envelope) -> None:
        """Point-to-point send to an explicit mail address."""
        assert envelope.target is not None
        self.system.tracer.on_sent(envelope.mode, envelope, node=self.node_id,
                                   t=self.system.clock.now)
        self._route(envelope, envelope.target)  # type: ignore[arg-type]

    def send_pattern(self, envelope: Envelope) -> None:
        """``send(pattern@space)``: resolve, arbitrate, deliver to one —
        or, for a ``BROADCAST`` envelope, to all (:meth:`_fan_out`)."""
        assert envelope.destination is not None
        tracer, node, now = self.system.tracer, self.node_id, self.system.clock.now
        tracer.on_sent(envelope.mode, envelope, node=node, t=now)
        receivers, scope = self._resolve(envelope)
        manager = self._manager_for(envelope, scope)
        if manager.trap_cycling(envelope):
            tracer.on_dropped("cycle_trapped", envelope, node=node, t=now)
        elif not receivers:
            self._handle_unmatched(envelope, manager, scope)
        else:
            self._fan_out(envelope, receivers, manager)

    #: ``broadcast(pattern@space)``: the same entry under its own name —
    #: the envelope's mode, not the verb, picks one receiver or all.
    broadcast_pattern = send_pattern

    def _resolve(self, envelope: Envelope) -> tuple[tuple[ActorAddress, ...], SpaceAddress | None]:
        """Resolve receivers; returns (actors in address order, primary scope
        space).  Only a multi-space ``@pattern`` merges and sorts here."""
        stats = MatchStats()
        destination = envelope.destination
        spaces = resolve_destination_spaces(
            self.directory, destination,
            envelope.origin_space or self.system.root_space,
            cache=self.resolution_cache,
        )
        groups = [
            resolve_actors(self.directory, destination.pattern, space, stats,
                           cache=self.resolution_cache)
            for space in spaces
        ]
        receivers = groups[0] if len(groups) == 1 \
            else tuple(sorted(set().union(*groups)))
        self.system.tracer.on_resolution(stats, envelope, node=self.node_id,
                                         t=self.system.clock.now)
        return receivers, (spaces[0] if spaces else None)

    def _manager_for(self, envelope: Envelope, scope: SpaceAddress | None) -> SpaceManager:
        if scope is not None and scope in self.managers:
            return self.managers[scope]
        return self.managers.get(self.system.root_space) or default_manager()

    def _fan_out(self, envelope: Envelope, receivers: tuple[ActorAddress, ...],
                 manager: SpaceManager) -> None:
        """Route a matched pattern envelope: a send to the one receiver
        arbitration picks, a broadcast to every member of the group."""
        if envelope.mode is Mode.SEND:
            load_of = self._load_of() \
                if manager.arbitration is Arbitration.LEAST_LOADED else None
            self._route(envelope, manager.choose_receiver(
                receivers, self.system.rng_arbitration, load_of))
        else:
            for target in receivers:
                self._route(envelope.clone_for(target), target)
            if manager.unmatched is UnmatchedPolicy.PERSISTENT:
                # Persistent broadcasts also reach future matches.
                self.persistent.append((envelope, set(receivers)))

    def _handle_unmatched(self, envelope: Envelope, manager: SpaceManager,
                          scope: SpaceAddress | None) -> None:
        fate = manager.on_unmatched(envelope, scope)  # may raise NoMatchError
        tracer = self.system.tracer
        now = self.system.clock.now
        if fate == "discard":
            tracer.on_dropped("unmatched_discarded", envelope,
                              node=self.node_id, t=now)
        elif fate == "persist":
            tracer.on_suspended(envelope, node=self.node_id, t=now)
            self.persistent.append((envelope, set()))
        else:  # suspend
            tracer.on_suspended(envelope, node=self.node_id, t=now)
            self.suspended.append(envelope)

    def _recheck_parked(self) -> None:
        """Visibility changed: retry suspended messages, extend persistent ones.

        Every parked envelope re-resolves through the resolution cache,
        which keeps its last-known result keyed on the epochs of the
        spaces its previous walk visited.  An envelope whose resolution
        path did not move therefore costs one cache probe here, not a
        fresh recursive walk — the visibility change that woke us cannot
        have changed its answer.
        """
        tracer = self.system.tracer
        if self.suspended:
            still: list[Envelope] = []
            for envelope in self.suspended:
                receivers, scope = self._resolve(envelope)
                if not receivers:
                    still.append(envelope)
                    continue
                tracer.on_released(envelope=envelope, node=self.node_id,
                                   t=self.system.clock.now)
                self._fan_out(envelope, receivers,
                              self._manager_for(envelope, scope))
            self.suspended = still
        for envelope, delivered_to in self.persistent:
            receivers, _scope = self._resolve(envelope)
            for target in receivers:
                if target not in delivered_to:
                    delivered_to.add(target)
                    tracer.on_persistent_delivery()
                    self._route(envelope.clone_for(target), target)

    def _load_of(self) -> Callable[[ActorAddress], int]:
        """Load estimator for one arbitration: queued plus in-flight messages.

        A real deployment would obtain this from the monitoring daemons
        section 8 proposes for customized managers (actors cannot be sent
        bookkeeping messages); the simulation plays that daemon by reading
        the queue depth and the envelopes already en route to the actor.
        En-route envelopes are counted once, here: a probe is a lookup.
        """
        coordinators = self.system.coordinators
        en_route = Counter(e.target for e in self.system.in_flight.values())

        def load_of(address: ActorAddress) -> int:
            record = coordinators[address.node].actors.get(address)
            queued = record.mailbox.pending if record is not None else 0
            return queued + en_route[address]

        return load_of

    # -- routing -----------------------------------------------------------------

    def _route(self, envelope: Envelope, target: ActorAddress) -> None:
        """Forward ``envelope`` to ``target``'s home node and schedule delivery."""
        envelope.target = target
        system = self.system
        tracer = system.tracer
        node, dst_node = self.node_id, target.node
        now = system.clock.now
        admission = system.admission
        if admission is not None and envelope.port is not Port.BEHAVIOR \
                and envelope.port is not Port.RPC:
            # Control traffic (behavior installs, RPC replies) is never
            # rate limited: shedding it wedges actors instead of
            # protecting them — same exemption as the bounded mailbox.
            verdict = admission.check(node, dst_node, now)
            if verdict is not None:
                # Shed at the door: park with backoff retry so the
                # rejection is load leveling, not silent loss.
                tracer.on_overload(verdict, envelope, node=node, t=now,
                                   dst_node=dst_node)
                system.dead_letters.capture_retry(envelope, dst_node,
                                                  verdict)
                return
        envelope.hop(node)
        kind = system.topology.link_kind(node, dst_node)
        tracer.on_hop(kind, envelope, node=node, t=now, dst_node=dst_node)
        try:
            latency = system.transport.deliver_latency(node, dst_node)
        except NodeDownError:
            tracer.on_dropped("node_down", envelope, node=node, t=now)
            system.dead_letters.capture(envelope, dst_node, "node_down")
            return
        except (TransportError, RuntimeError):
            tracer.on_dropped("transport_failure", envelope, node=node, t=now)
            return
        system.in_flight[envelope.envelope_id] = envelope
        system.events.schedule(
            now + latency,
            lambda: system.coordinators[dst_node]._deliver(envelope),
            priority=ACTOR_PRIORITY,
            tag=("deliver", target),
        )

    def _deliver(self, envelope: Envelope) -> None:
        """Arrival at the target's node: enqueue and schedule processing."""
        system = self.system
        tracer, dead_letters = system.tracer, system.dead_letters
        node, now = self.node_id, system.clock.now
        system.in_flight.pop(envelope.envelope_id, None)
        if self.crashed:
            tracer.on_dropped("node_down", envelope, node=node, t=now)
            dead_letters.capture(envelope, node, "node_down")
            return
        target: ActorAddress = envelope.target  # type: ignore[assignment]
        record = self.actors.get(target)
        if record is None:
            tracer.on_dropped("dead_letter", envelope, node=node, t=now)
            dead_letters.capture(envelope, node, "dead_letter")
            return
        envelope.delivered_at = now
        envelope.hop(node)
        shed = record.mailbox.deliver(envelope)  # only live mailboxes are open
        if shed:
            admission = system.admission
            if admission is not None:
                admission.on_overflow(node, now, len(shed))
            accepted = True
            for victim in shed:
                if victim is envelope:
                    accepted = False
                tracer.on_dropped("mailbox_overflow", victim, node=node, t=now)
                dead_letters.capture_retry(victim, node, "mailbox_overflow")
            if not accepted:
                return
        dead_letters.note_delivered(envelope.envelope_id)
        tracer.on_enqueued(envelope, node=node, t=now,
                           queue_depth=record.mailbox.pending,
                           receiver=target)
        # Receiving a message extends the acquaintance set (addresses in
        # the payload become known to the receiver).
        known = self.acquaintances[target]
        known.update(scan_addresses(envelope.message.payload))
        if envelope.message.headers:
            known.update(scan_addresses(envelope.message.headers))
        if envelope.message.reply_to is not None:
            known.add(envelope.message.reply_to)
        if envelope.sender is not None:
            known.add(envelope.sender)
        tracer.on_delivered(
            envelope.mode, target, envelope.sent_at, now,
            envelope.trace[0], node,  # never empty: this node just hopped it
            envelope=envelope,
        )
        self._schedule_processing(record)

    def _schedule_processing(self, record: ActorRecord) -> None:
        if record.address in self._processing_scheduled:
            return
        self._processing_scheduled.add(record.address)
        system = self.system
        system.events.schedule(
            system.clock.now + system.processing_delay,
            lambda: self._process_next(record),
            priority=ACTOR_PRIORITY,
            tag=("process", record.address),
        )

    def _process_next(self, record: ActorRecord) -> None:
        """Run the actor's behavior on its next ready message."""
        self._processing_scheduled.discard(record.address)
        if record.terminated or self.crashed:
            return
        record.install_pending()
        envelope = record.mailbox.next_ready()
        if envelope is None:
            return
        system = self.system
        ctx = system.make_context(record, cause=envelope)
        system.tracer.on_invocation(envelope, node=self.node_id,
                                    t=system.clock.now, actor=record.address,
                                    queue_depth=record.mailbox.pending)
        record.processed_count += 1
        try:
            record.behavior.receive(ctx, envelope.message)
        except ActorSpaceError as exc:
            # Paradigm-level failures inside a behavior kill that actor,
            # not the simulation: report and terminate.
            system.tracer.on_dropped(f"behavior_error:{type(exc).__name__}",
                                     envelope, node=self.node_id,
                                     t=system.clock.now)
            self.terminate_actor(record.address)
            return
        self._flush_context(record, ctx)
        if not record.mailbox.is_empty and not record.terminated:
            self._schedule_processing(record)

    def _flush_context(self, record: ActorRecord, ctx) -> None:
        """Acquaintance bookkeeping after user code ran.

        An address can enter behavior state through exactly three
        channels, each scanned where it is cheapest:

        * the initial state — scanned once at :meth:`create_actor`;
        * a delivered message — payload/reply_to/sender scanned once at
          delivery time (:meth:`_deliver`);
        * the context API — addresses it handed out during this
          invocation are in ``ctx.claimed``.

        So the post-receive step only folds in ``ctx.claimed`` (plus a
        one-off scan of a behavior staged with ``become``, whose fresh
        constructor may embed any of the above): O(new addresses) per
        message instead of an O(behavior state) rescan, which made every
        stateful actor's processing cost grow with its history.
        """
        claimed = ctx.claimed
        if (claimed or record.pending_behavior is not None) \
                and not record.terminated:  # a forgotten actor knows no one
            known = self.acquaintances[record.address]
            known.update(claimed)
            if record.pending_behavior is not None:
                known.update(_behavior_addresses(record.pending_behavior))

    # ------------------------------------------------------------------

    def resolve(self, pattern, scope: SpaceAddress) -> list[ActorAddress]:
        """Who would ``send(pattern@scope)`` consider here?  (Address order;
        through the resolution cache, like a real dispatch.)"""
        return list(resolve_actors(self.directory, pattern, scope,
                                   cache=self.resolution_cache))

    def visible_attributes(self, target: MailAddress, scope: SpaceAddress) -> frozenset:
        """The attributes ``target`` is visible under in ``scope`` (or empty)."""
        if not self.directory.has_space(scope):
            return frozenset()
        entry = self.directory.space(scope).lookup(target)
        return entry.attributes if entry is not None else frozenset()

    def export_parked(self) -> dict:
        """Observable park-set state for conformance checking (§5.6).

        Returns shallow copies: ``suspended`` envelopes in park order and
        ``persistent`` as ``(envelope, frozenset(delivered_to))`` pairs.
        """
        return {
            "suspended": list(self.suspended),
            "persistent": [(env, frozenset(done)) for env, done in self.persistent],
        }

    def __repr__(self):
        return (
            f"<Coordinator n{self.node_id} actors={len(self.actors)} "
            f"suspended={len(self.suspended)}>"
        )
