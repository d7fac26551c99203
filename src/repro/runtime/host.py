"""The host: what the runtime classes of a node run inside.

Section 7 defines a node as interpreter + ActorInterface + Coordinator
and leaves open what hosts it.  Two things do: the simulator
(:class:`~repro.runtime.system.ActorSpaceSystem`), the composition of
every node's configuration in one process, and a node process
(:class:`~repro.net.runtime.NodeRuntime`), one component whose peers are
external and reached through stand-ins.  They differ in *which nodes are
local* — a value, :attr:`Host.local_nodes` — not in kind, so both
subclass :class:`Host`: it declares the surface ``Coordinator``,
``RuntimeContext``, ``DeadLetterQueue``, ``FailureDetector``,
``AdmissionControl`` and the bus drivers reach for, builds the node-side
state once, and carries the driver (manager-role) API once — the verbs a
test, an experiment or a node's control plane calls.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Callable

from repro.core.actor import ActorRecord, Behavior
from repro.core.actorspace import SpaceRecord
from repro.core.addresses import ActorAddress, MailAddress, SpaceAddress
from repro.core.capabilities import Capability, CapabilityIssuer
from repro.core.mailbox import ShedPolicy
from repro.core.manager import SpaceManager
from repro.core.messages import Destination, Envelope, Mode, parse_destination
from repro.core.visibility import Directory

from .admission import AdmissionControl
from .context import RuntimeContext, external_envelope
from .coordinator import Coordinator
from .eventlog import EventLog
from .events import EventQueue
from .failure import DeadLetterQueue, FailureDetector
from .metrics import MetricsRegistry
from .network import Topology
from .rng import RngHub
from .tracing import Tracer
from .transport import Transport

if TYPE_CHECKING:  # pragma: no cover
    from repro.shard import ShardedBus


class Host:
    """The state and driver API of the nodes one process runs.

    A subclass sets ``clock``, ``events``, ``topology``, ``nodes`` and
    ``local_nodes`` before calling :meth:`__init__`, and ``transport``,
    ``bus`` (its streams need the coordinators), ``dead_letters`` and —
    if it runs one — ``failure_detector`` after.

    ``node=`` on a verb names a *local* node (default: the first one —
    node 0 in the simulator, the process's own id in a node process); a
    node this host does not run is a :class:`ValueError`, never a call
    on a stand-in.
    """

    clock: Any  #: anything with a ``now`` in seconds (virtual or wall)
    events: EventQueue
    topology: Topology
    #: Every node of the deployment in id order, and the ones this host
    #: runs: all of them (the simulator) or one (a node process).
    nodes: list[int]
    local_nodes: list[int]
    transport: Transport
    bus: "ShardedBus"
    #: Bounded capture of undeliverable envelopes, redelivered on
    #: recovery (self-healing delivery).
    dead_letters: DeadLetterQueue
    failure_detector: FailureDetector | None = None

    def __init__(self, seed: int, trace: "bool | EventLog",
                 mailbox_capacity: int | None, mailbox_policy: "ShedPolicy | str",
                 shards: int, shard_sequencer: int | None, *,
                 breaker_threshold: int | None = None,
                 admission_rate: float | None = None,
                 admission_burst: float | None = None,
                 breaker_window: float = 1.0, breaker_cooldown: float = 0.5):
        from repro.shard import ShardMap, ShardRouter

        self.rng = RngHub(seed)
        self.event_log = trace if isinstance(trace, EventLog) \
            else EventLog(enabled=bool(trace))
        #: The one place a number lives; ``metrics.snapshot()`` is the dump.
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(registry=self.metrics, log=self.event_log)
        # One process of many draws from its node's own streams, so two
        # processes started from one seed never mint the same capability.
        own = "" if self.local_nodes == self.nodes \
            else f"-node{self.local_nodes[0]}"
        self.capabilities = CapabilityIssuer(
            self.rng.stream(f"capabilities{own}"))
        self.rng_arbitration = self.rng.stream(f"arbitration{own}")
        #: Virtual time consumed scheduling each behavior invocation.
        self.processing_delay = 0.0
        #: Envelopes scheduled but not yet delivered (pins GC roots).
        self.in_flight: dict[int, Envelope] = {}
        #: External handles pinned as GC roots by the driver.
        self._held_roots: set[MailAddress] = set()
        #: Overload protection: bounded mailboxes for every actor created
        #: from here on (``None`` = unbounded)...
        self.mailbox_capacity = mailbox_capacity
        self.mailbox_policy = ShedPolicy.parse(mailbox_policy)
        #: ...plus optional admission control consulted by ``_route``.
        self.admission: AdmissionControl | None = None
        if admission_rate is not None or breaker_threshold is not None:
            self.admission = AdmissionControl(
                self, rate=admission_rate, burst=admission_burst,
                breaker_threshold=breaker_threshold,
                breaker_window=breaker_window,
                breaker_cooldown=breaker_cooldown)
        # The visibility plane: a shard map of ``shards >= 1`` streams and
        # a router shared by every coordinator (section 7.3 asks for one
        # order per space, so how many streams carry it is a parameter
        # of the map).  The subclass adds the bus: one stream per shard.
        self.shards = shards
        self.shard_map = ShardMap.for_plane(shards, self.nodes, shard_sequencer)
        self.shard_router = ShardRouter(self.shard_map)
        self.coordinators: list = [
            Coordinator(n, self) if n in self.local_nodes
            else self._remote_coordinator(n) for n in self.nodes]
        # Bootstrap the globally visible root actorSpace (section 7.1)
        # identically in every replica, outside the bus: it must exist
        # before the first operation can be ordered.  The first node's
        # address factory spends its serial 0 on it, wherever that node
        # runs, so addresses agree between the two kinds of host.
        first = self.nodes[0]
        self.root_space: SpaceAddress = \
            self.coordinators[first].addresses.new_space_address() \
            if first in self.local_nodes else SpaceAddress(first, 0)
        for node in self.local_nodes:
            self.coordinators[node].directory.add_space(
                SpaceRecord(self.root_space, None, 0))
            self.coordinators[node].managers[self.root_space] = SpaceManager()
        # The root is globally visible by construction; it is therefore a
        # permanent GC root (which is exactly why section 7.1 adds explicit
        # space destruction).
        self._held_roots.add(self.root_space)
        # What is computed on demand, or counted in plain attributes by
        # its owner, is read when a dump is taken, never copied.
        source = self.metrics.source
        source("in_flight", lambda: len(self.in_flight))
        for node in self.local_nodes:
            source(f"queue_depth_node_{node}", partial(self.queue_depth, node))
            source(f"parked_node_{node}", partial(self.parked, node))
        # (The subclass sets — and may wrap — the transport after this.)
        source("transport", lambda: self.transport.metrics_snapshot())
        if self.admission is not None:
            source("admission", self.admission.metrics)

    def _remote_coordinator(self, node: int):
        """The stand-in for the coordinator of a node this host does not run."""
        raise NotImplementedError

    def _local(self, node: int | None) -> Coordinator:
        if node is None:
            node = self.local_nodes[0]
        elif node not in self.local_nodes:
            raise ValueError(f"node {node} is not local to this host "
                             f"(local: {self.local_nodes})")
        return self.coordinators[node]

    # ------------------------------------------------------------------
    # Driver-level (manager-role) API
    # ------------------------------------------------------------------

    def new_capability(self) -> Capability:
        """Mint a fresh unforgeable capability."""
        return self.capabilities.new_capability()

    def create_actor(
        self,
        behavior: "Behavior | Callable",
        *args: Any,
        node: int | None = None,
        space: SpaceAddress | None = None,
        capability: Capability | None = None,
        **kwargs: Any,
    ) -> ActorAddress:
        """Create an actor from outside the system (driver/manager role)."""
        address = self._local(node).create_actor(
            behavior, args, kwargs, host_space=space, capability=capability)
        self._held_roots.add(address)
        return address

    def create_space(
        self,
        capability: Capability | None = None,
        node: int | None = None,
        manager_factory: Callable[[], SpaceManager] | None = None,
        attributes=None,
        parent: SpaceAddress | None = None,
    ) -> SpaceAddress:
        """Create an actorSpace; optionally make it visible under ``attributes``.

        ``attributes``/``parent`` double as placement hints: the
        coordinator homes the new space's visibility shard by its root
        attribute atom, then its parent's shard, then its address.
        """
        coordinator = self._local(node)
        address = coordinator.create_space(
            capability, manager_factory, attributes=attributes, parent=parent)
        self._held_roots.add(address)
        if attributes is not None:
            coordinator.make_visible(
                address, attributes,
                parent if parent is not None else self.root_space, capability)
        return address

    def destroy_space(self, address: SpaceAddress,
                      node: int | None = None) -> None:
        """Explicitly destroy a space (section 7.1)."""
        self._local(node).destroy_space(address)

    def make_visible(self, target, attributes, space: SpaceAddress | None = None,
                     capability: Capability | None = None,
                     node: int | None = None) -> None:
        self._local(node).make_visible(
            target, attributes,
            space if space is not None else self.root_space, capability)

    def make_invisible(self, target, space: SpaceAddress | None = None,
                       capability: Capability | None = None,
                       node: int | None = None) -> None:
        self._local(node).make_invisible(
            target, space if space is not None else self.root_space, capability)

    def change_attributes(self, target, attributes,
                          space: SpaceAddress | None = None,
                          capability: Capability | None = None,
                          node: int | None = None) -> None:
        self._local(node).change_attributes(
            target, attributes,
            space if space is not None else self.root_space, capability)

    # -- external messaging --------------------------------------------------------

    def send_to(self, target: ActorAddress, payload: Any, *,
                reply_to: ActorAddress | None = None, node: int | None = None,
                headers: dict | None = None) -> None:
        """Direct external send (e.g. the initial job injection)."""
        self._local(node).send_direct(external_envelope(
            self, Mode.DIRECT, payload, target=target, reply_to=reply_to,
            headers=headers))

    def send(self, destination: "Destination | str", payload: Any, *,
             reply_to: ActorAddress | None = None, node: int | None = None,
             headers: dict | None = None) -> None:
        """External pattern-directed send resolved at ``node``'s replica."""
        self._local(node).send_pattern(external_envelope(
            self, Mode.SEND, payload, destination=parse_destination(destination),
            reply_to=reply_to, headers=headers))

    def broadcast(self, destination: "Destination | str", payload: Any, *,
                  reply_to: ActorAddress | None = None, node: int | None = None,
                  headers: dict | None = None) -> None:
        """External pattern-directed broadcast."""
        self._local(node).broadcast_pattern(external_envelope(
            self, Mode.BROADCAST, payload,
            destination=parse_destination(destination),
            reply_to=reply_to, headers=headers))

    # -- introspection -------------------------------------------------------------

    def directory_of(self, node: int | None = None) -> Directory:
        """One local node's visibility replica."""
        return self._local(node).directory

    def resolve(self, pattern, space: SpaceAddress | None = None,
                node: int | None = None) -> list[ActorAddress]:
        """Who would ``send(pattern@space)`` currently consider? (sorted)

        Pure introspection against ``node``'s replica — no message moves.
        Useful for assertions, monitoring dashboards, and the examples.
        Goes through the node's resolution cache, exactly like a real
        dispatch would.
        """
        return self._local(node).resolve(
            pattern, space if space is not None else self.root_space)

    def visible_attributes(self, target: MailAddress,
                           space: SpaceAddress | None = None,
                           node: int | None = None) -> frozenset:
        """The attributes ``target`` is visible under in ``space`` (or empty)."""
        return self._local(node).visible_attributes(
            target, space if space is not None else self.root_space)

    def make_context(self, record: ActorRecord, cause=None) -> RuntimeContext:
        return RuntimeContext(self, record, cause=cause)

    def hold(self, address: MailAddress) -> None:
        """Pin ``address`` as an external GC root."""
        self._held_roots.add(address)

    def release(self, address: MailAddress) -> None:
        """Drop the external root pin on ``address``."""
        self._held_roots.discard(address)

    # -- failure handling ----------------------------------------------------------

    def _on_node_confirmed_down(self, node: int) -> int:
        """First detector confirmation: quarantine and fail over.

        Every live local replica masks the dead node's actor entries
        (bumping the epochs of the spaces that hosted them, so
        resolution caches invalidate), and the bus gets a failure
        notification.  ``Directory.snapshot()`` ignores masks, so replica
        coherence checks are unaffected; only *resolution* stops
        returning actors that can no longer answer.  Node processes each
        run this when their own detector confirms — the same global
        outcome, reached per replica.  Returns the entries masked.
        """
        total = 0
        for local in self.local_nodes:
            coordinator = self.coordinators[local]
            if coordinator.crashed:
                continue
            masked = coordinator.directory.quarantine_node(node)
            total += masked
            self.tracer.on_quarantine("quarantined", local, self.clock.now,
                                      target_node=node, masked=masked)
        self.bus.on_node_down(node)
        return total

    def _on_node_recovered(self, node: int) -> None:
        """``node`` is back: every local replica lifts its mask for it,
        and a live one reconsiders what it parked — lifting a mask can
        make a parked message matchable again (§5.6), and masks change
        outside the bus, so the op-apply recheck never sees it.  The
        detector forgets its verdicts, the bus re-elects and resumes
        work parked on the node, and the dead letters captured for it
        are redelivered with backoff."""
        for local in self.local_nodes:
            coordinator = self.coordinators[local]
            if node in coordinator.directory.quarantined_nodes:
                coordinator.directory.unquarantine_node(node)
                self.tracer.on_quarantine("unquarantined", local,
                                          self.clock.now, target_node=node)
                if not coordinator.crashed:
                    coordinator._recheck_parked()
        if self.failure_detector is not None:
            self.failure_detector.on_node_recovered(node)
        self.bus.on_node_recovered(node)
        self.dead_letters.flush(node)

    # -- observability -------------------------------------------------------------

    def queue_depth(self, node: int | None = None) -> int:
        """Messages waiting in ``node``'s live mailboxes."""
        return sum(r.mailbox.pending for r in self._local(node).actors.values()
                   if not r.terminated)

    def parked(self, node: int | None = None) -> int:
        """Suspended pattern messages + persistent broadcasts held at ``node``."""
        coordinator = self._local(node)
        return len(coordinator.suspended) + len(coordinator.persistent)
