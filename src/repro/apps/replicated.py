"""Replicated services: load balancing and reliability (sections 1, 5.3).

"As the messages to the servers are distributed non-deterministically,
the load may be balanced automatically by an implementation, and none of
the clients need to know the exact number of potential receivers."  And:
"an abstraction that may be easily applied to replicating services, for
instance to enhance reliability or increase performance."

Two experiments share this module:

* **E2 (load balance / performance)** — clients fire requests at
  ``services/<name>/*``; each replica is a serial processor; we measure
  the per-replica request distribution (chi-square against uniform) and
  the makespan as the replica count grows.
* **E11 (reliability)** — some replicas crash mid-run (hard node crashes:
  their visibility entries remain, so the pattern send may pick a dead
  replica and the request is lost).  Clients retransmit on timeout; we
  measure the request success rate and added latency versus the crashed
  fraction.  The pattern interface never changes — clients are oblivious
  to membership, which is the paper's point.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.actor import ActorContext, Behavior
from repro.core.manager import Arbitration, SpaceManager
from repro.core.messages import Destination, Message
from repro.runtime.system import ActorSpaceSystem


class ReplicaServer(Behavior):
    """One replica: a serial processor answering ``("request", id)``."""

    def __init__(self, replica_id: int, service_time: float = 0.05):
        self.replica_id = replica_id
        self.service_time = service_time
        self.busy_until = 0.0
        self.handled = 0

    def receive(self, ctx: ActorContext, message: Message) -> None:
        kind, *rest = message.payload
        if kind == "request":
            (request_id,) = rest
            self.handled += 1
            start = max(ctx.now, self.busy_until)
            self.busy_until = start + self.service_time
            ctx.schedule(
                self.busy_until - ctx.now,
                ("respond", request_id, message.reply_to),
            )
        elif kind == "respond":
            request_id, reply_to = rest
            if reply_to is not None:
                ctx.send_to(reply_to, ("response", request_id, self.replica_id))


class RequestClient(Behavior):
    """Fires ``count`` requests at a service pattern; optional retry.

    With ``timeout`` set, an unanswered request is retransmitted after the
    timeout (up to ``max_retries``), modelling the client-side recovery
    that, combined with replication and nondeterministic choice, yields
    the reliability claim of E11.
    """

    def __init__(self, service_pattern: str, space, count: int,
                 gap: float = 0.01, timeout: float | None = None,
                 max_retries: int = 5):
        self.service_pattern = service_pattern
        self.space = space
        self.count = count
        self.gap = gap
        self.timeout = timeout
        self.max_retries = max_retries
        self.sent = 0
        self.responses: dict[int, tuple[float, int]] = {}  # id -> (latency, replica)
        self.send_times: dict[int, float] = {}
        self.retries: dict[int, int] = {}
        self.given_up = 0

    def on_start(self, ctx: ActorContext) -> None:
        ctx.schedule(0.0, ("fire",))

    def _fire(self, ctx: ActorContext, request_id: int) -> None:
        self.send_times.setdefault(request_id, ctx.now)
        ctx.send(Destination(self.service_pattern, self.space),
                 ("request", request_id), reply_to=ctx.self_address)
        if self.timeout is not None:
            ctx.schedule(self.timeout, ("check", request_id))

    def receive(self, ctx: ActorContext, message: Message) -> None:
        kind, *rest = message.payload
        if kind == "fire":
            if self.sent < self.count:
                request_id = self.sent
                self.sent += 1
                self._fire(ctx, request_id)
                ctx.schedule(self.gap, ("fire",))
        elif kind == "response":
            request_id, replica_id = rest
            if request_id not in self.responses:
                latency = ctx.now - self.send_times[request_id]
                self.responses[request_id] = (latency, replica_id)
        elif kind == "check":
            (request_id,) = rest
            if request_id in self.responses:
                return
            tries = self.retries.get(request_id, 0)
            if tries < self.max_retries:
                self.retries[request_id] = tries + 1
                self._fire(ctx, request_id)
            else:
                self.given_up += 1

    @property
    def success_rate(self) -> float:
        return len(self.responses) / self.count if self.count else 1.0


@dataclass
class ReplicatedRunResult:
    """Metrics from one replicated-service run.

    The trailing self-healing fields stay at their defaults for runs
    without a detector or recovery schedule, so pre-existing E2/E11
    rows are byte-identical.
    """

    per_replica: list[int]
    latencies: list[float]
    makespan: float
    success_rate: float
    retries_used: int
    requests: int
    dead_letters_queued: int = 0
    dead_letters_redelivered: int = 0
    failovers: int = 0
    quarantined_entries: int = 0


def run_replicated_service(
    system: ActorSpaceSystem,
    replicas: int,
    requests: int = 500,
    service_time: float = 0.05,
    gap: float = 0.01,
    arbitration: Arbitration = Arbitration.RANDOM,
    crash_replicas: int = 0,
    crash_after: float = 0.0,
    timeout: float | None = None,
    clients: int = 1,
    recover_after: float | None = None,
    detector: bool = False,
    detector_interval: float = 0.1,
) -> ReplicatedRunResult:
    """Drive E2/E11: ``clients`` clients vs ``replicas`` replicas.

    Replicas live one per node when the topology allows (so node crashes
    kill exactly one replica).  ``crash_replicas`` nodes hosting the
    first k replicas are crashed ``crash_after`` time units into the run.

    Self-healing knobs (E11 extension): with ``detector=True`` a
    heartbeat failure detector confirms the crashed nodes down and
    quarantines their directory entries, so pattern sends stop routing
    to dead replicas; with ``recover_after`` set, the crashed nodes come
    back at that offset and queued dead letters are redelivered.
    """
    manager_factory = lambda: SpaceManager(arbitration=arbitration)
    space = system.create_space(attributes="services",
                                manager_factory=manager_factory)
    node_count = system.topology.node_count
    # Node 0 hosts the clients and the bus sequencer; replicas spread over
    # the remaining nodes so a node crash takes out replicas, not clients.
    server_nodes = list(range(1, node_count)) or [0]
    server_behaviors: list[ReplicaServer] = []
    replica_node: dict[int, int] = {}
    for i in range(replicas):
        behavior = ReplicaServer(i, service_time=service_time)
        node = server_nodes[i % len(server_nodes)]
        replica_node[i] = node
        address = system.create_actor(behavior, node=node, space=space)
        system.make_visible(address, f"compute/replica-{i}", space)
        server_behaviors.append(behavior)
    system.run()  # visibility settles; service is "up" before clients start

    client_behaviors: list[RequestClient] = []
    per_client = requests // clients
    for c in range(clients):
        behavior = RequestClient("compute/*", space, per_client, gap=gap,
                                 timeout=timeout)
        system.create_actor(behavior, node=0)
        client_behaviors.append(behavior)

    start = system.clock.now
    if crash_replicas > 0:
        def crash():
            for i in range(min(crash_replicas, replicas)):
                system.crash_node(replica_node[i])

        system.events.schedule(start + crash_after, crash)
        if recover_after is not None:
            def recover():
                for i in range(min(crash_replicas, replicas)):
                    system.recover_node(replica_node[i])

            system.events.schedule(start + recover_after, recover)
    if detector:
        horizon = (
            max(crash_after, recover_after or 0.0)
            + per_client * gap + 50 * detector_interval
        )
        system.start_failure_detector(horizon, interval=detector_interval)
    system.run()

    latencies = [
        lat for cb in client_behaviors for (lat, _r) in cb.responses.values()
    ]
    answered = sum(len(cb.responses) for cb in client_behaviors)
    total = sum(cb.count for cb in client_behaviors)
    return ReplicatedRunResult(
        per_replica=[s.handled for s in server_behaviors],
        latencies=latencies,
        makespan=system.clock.now - start,
        success_rate=answered / total if total else 1.0,
        retries_used=sum(sum(cb.retries.values()) for cb in client_behaviors),
        requests=total,
        dead_letters_queued=system.dead_letters.queued_total,
        dead_letters_redelivered=system.dead_letters.redelivered_total,
        failovers=system.bus.failovers,
        quarantined_entries=system.tracer.count("quarantined_entries_total"),
    )
