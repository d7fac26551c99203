"""Concrete :class:`~repro.core.actor.ActorContext` bound to the runtime.

One ephemeral context is made per behavior invocation; it funnels every
primitive to the actor's node coordinator.  Behaviors never see the
coordinator or the system directly — the context *is* the paper's
ActorInterface as seen from native (Python) behaviors.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.core.actor import ActorContext, ActorRecord, Behavior, as_behavior
from repro.core.addresses import ActorAddress, MailAddress, SpaceAddress
from repro.core.capabilities import Capability
from repro.core.messages import Destination, Envelope, Mode, new_envelope, parse_destination

if TYPE_CHECKING:  # pragma: no cover
    from .host import Host


def external_envelope(host: "Host", mode: Mode, payload: Any, *,
                      target: ActorAddress | None = None,
                      destination: Destination | None = None,
                      reply_to: ActorAddress | None = None,
                      headers: dict | None = None) -> Envelope:
    """An envelope from outside the actor world — no sender, resolved from
    the root space — entering at ``host``."""
    return new_envelope(mode, payload, None, host.root_space, host.clock.now,
                        target=target, destination=destination,
                        reply_to=reply_to, headers=headers)


class RuntimeContext(ActorContext):
    """The live context handed to behaviors by the scheduler.

    ``cause`` is the envelope whose processing created this context (or
    ``None`` for ``on_start`` hooks and driver calls); envelopes sent
    through the context join its causal tree, which is what lets the
    flight recorder chain a delivery back to the external send that
    ultimately triggered it.

    ``claimed`` records every address this API *handed to* the behavior
    during the invocation (created actors, created spaces).  Together
    with the creation-time state scan and the delivery-time payload scan
    it covers every channel through which an address can enter behavior
    state, so the coordinator's acquaintance bookkeeping after a receive
    is O(new addresses) instead of a full rescan of the behavior.
    """

    __slots__ = ("_system", "_record", "_cause", "claimed")

    def __init__(self, system: "Host", record: ActorRecord,
                 cause: "Envelope | None" = None):
        self._system = system
        self._record = record
        self._cause = cause
        self.claimed: list[MailAddress] = []

    def _envelope(self, mode: Mode, payload: Any, *,
                  target: ActorAddress | None = None,
                  destination: Destination | None = None,
                  reply_to: ActorAddress | None = None,
                  headers: dict | None = None) -> Envelope:
        """An envelope from this actor, joined to the cause's causal tree."""
        record = self._record
        return new_envelope(mode, payload, record.address, record.host_space,
                            self._system.clock.now, target=target,
                            destination=destination, reply_to=reply_to,
                            headers=headers, cause=self._cause)

    # -- identity ---------------------------------------------------------------

    @property
    def self_address(self) -> ActorAddress:
        return self._record.address

    @property
    def host_space(self) -> SpaceAddress:
        return self._record.host_space

    @property
    def now(self) -> float:
        return self._system.clock.now

    @property
    def _coordinator(self):
        return self._system.coordinators[self._record.node]

    # -- classic actor primitives ---------------------------------------------

    def create(
        self,
        behavior: "Behavior | Callable",
        *args: Any,
        space: SpaceAddress | None = None,
        capability: Capability | None = None,
        node: int | None = None,
        **kwargs: Any,
    ) -> ActorAddress:
        target_node = self._record.node if node is None else node
        coordinator = self._system.coordinators[target_node]
        address = coordinator.create_actor(
            behavior,
            args,
            kwargs,
            host_space=space if space is not None else self._record.host_space,
            capability=capability,
            creator=self._record.address,
        )
        self.claimed.append(address)
        return address

    def send_to(self, target: ActorAddress, payload: Any, *,
                reply_to: ActorAddress | None = None,
                headers: dict | None = None) -> None:
        self._coordinator.send_direct(self._envelope(
            Mode.DIRECT, payload, target=target, reply_to=reply_to,
            headers=headers))

    def become(self, behavior: "Behavior | Callable", *args: Any, **kwargs: Any) -> None:
        self._record.stage_become(as_behavior(behavior, *args, **kwargs))

    # -- ActorSpace primitives ---------------------------------------------------

    def send(self, destination: "Destination | str", payload: Any, *,
             reply_to: ActorAddress | None = None,
             headers: dict | None = None) -> None:
        self._coordinator.send_pattern(self._envelope(
            Mode.SEND, payload, destination=parse_destination(destination),
            reply_to=reply_to, headers=headers))

    def broadcast(self, destination: "Destination | str", payload: Any, *,
                  reply_to: ActorAddress | None = None,
                  headers: dict | None = None) -> None:
        self._coordinator.broadcast_pattern(self._envelope(
            Mode.BROADCAST, payload,
            destination=parse_destination(destination),
            reply_to=reply_to, headers=headers))

    def create_actorspace(
        self,
        capability: Capability | None = None,
        *,
        space: SpaceAddress | None = None,
        attributes=None,
        manager_factory=None,
    ) -> SpaceAddress:
        address = self._coordinator.create_space(capability, manager_factory)
        self.claimed.append(address)
        if attributes is not None:
            parent = space if space is not None else self._record.host_space
            self._coordinator.make_visible(address, attributes, parent, capability)
        return address

    def make_visible(
        self,
        target: MailAddress,
        attributes,
        space: SpaceAddress | None = None,
        capability: Capability | None = None,
    ) -> None:
        scope = space if space is not None else self._record.host_space
        self._coordinator.make_visible(target, attributes, scope, capability)

    def make_invisible(
        self,
        target: MailAddress,
        space: SpaceAddress | None = None,
        capability: Capability | None = None,
    ) -> None:
        scope = space if space is not None else self._record.host_space
        self._coordinator.make_invisible(target, scope, capability)

    def change_attributes(
        self,
        target: MailAddress,
        attributes,
        space: SpaceAddress | None = None,
        capability: Capability | None = None,
    ) -> None:
        scope = space if space is not None else self._record.host_space
        self._coordinator.change_attributes(target, attributes, scope, capability)

    def new_capability(self) -> Capability:
        return self._system.capabilities.new_capability()

    # -- misc ----------------------------------------------------------------------

    def terminate(self) -> None:
        self._coordinator.terminate_actor(self._record.address)

    def schedule(self, delay: float, payload: Any) -> None:
        if delay < 0:
            raise ValueError("delay must be non-negative")
        system = self._system
        record = self._record
        envelope = self._envelope(Mode.DIRECT, payload, target=record.address)
        log = system.tracer.log
        if log.enabled:
            # Event-only: scheduled self-messages never counted as sends,
            # but the recorder must still root their causal chain.
            log.emit("sent", self.now, record.node, envelope,
                     mode=Mode.DIRECT.value, scheduled=True)
        system.in_flight[envelope.envelope_id] = envelope
        system.events.schedule(
            self.now + delay,
            lambda: system.coordinators[record.node]._deliver(envelope),
        )
