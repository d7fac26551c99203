"""Trace and accounting layer.

Every experiment in EXPERIMENTS.md is computed from what is counted
here.  The runtime calls one ``on_*`` hook per thing that happens; a hook
does two things and keeps nothing of its own:

* it counts, in the host's :class:`~repro.runtime.metrics.MetricsRegistry`,
  under the one name the number has (``messages_sent_total``,
  ``messages_suspended_total``, ...) — read a scalar back with
  :meth:`Tracer.count`, a family or a histogram through its handle
  (``tracer.sent``, ``tracer.latency_hist``), everything at once with
  ``registry.snapshot()``;
* it emits a typed per-envelope lifecycle event into the
  :class:`~repro.runtime.eventlog.EventLog` whenever tracing is enabled
  (``ActorSpaceSystem(trace=True)``); when disabled, that costs one
  attribute check — made by the hook itself where every message pays it
  or the event's data must be computed, by ``emit`` everywhere else.

A hook asks the registry for nothing: every metric it touches is a handle
bound when the tracer is built (``registry.reset()`` zeroes in place, so
handles outlive it).  The hooks themselves are looked up on the tracer at
each call: the conformance oracle replaces ``on_hop`` / ``on_enqueued``.

Nothing grows per delivery: the two distributions (``delivery_latency``,
``resolution_entries_examined``) keep their last :data:`HISTOGRAM_CAP`
observations with exact counts, means and maxima, and the per-message
record — who sent what when, and when it landed — is the flight
recorder's, not a second copy here.
"""

from __future__ import annotations

from repro.core.addresses import ActorAddress
from repro.core.messages import Mode

from .eventlog import EventLog
from .metrics import MetricsRegistry
from .network import LinkKind

#: Observations each of the tracer's histograms keeps.
HISTOGRAM_CAP = 4096


class Tracer:
    """Counters and lifecycle events describing one run."""

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        log: EventLog | None = None,
    ):
        self.registry = reg = registry if registry is not None \
            else MetricsRegistry()
        #: The flight recorder; disabled by default (one attribute check
        #: per hook call), enabled via ``ActorSpaceSystem(trace=...)``.
        self.log = log if log is not None else EventLog(enabled=False)
        #: Envelopes entering the system, by mode.
        self.sent = reg.labeled("messages_sent_total")
        #: Envelope deliveries, by mode (a broadcast counts once per receiver).
        self.delivered = reg.labeled("messages_delivered_total")
        #: Hops by link kind, as routed (locality accounting).
        self.hops = reg.labeled("hops_total")
        #: Messages per receiving actor (load-balance accounting).
        self.received_by = reg.labeled("deliveries_by_receiver")
        #: Messages dropped: label reason -> count (dead letters, cycles...).
        self.dropped = reg.labeled("messages_dropped_total")
        #: Visibility operations applied per node replica (coherence checks).
        self.visibility_ops_applied = reg.labeled("visibility_ops_applied_total")
        #: End-to-end delivery latency, all modes.
        self.latency_hist = reg.recent("delivery_latency", HISTOGRAM_CAP)
        #: Pattern-resolution work distribution (entries examined).
        self.resolution_hist = reg.recent(
            "resolution_entries_examined", HISTOGRAM_CAP)
        #: Scalar counters by name (registered here: a dump has them at 0).
        self._counters = {name: reg.counter(name) for name in (
            "messages_suspended_total",
            "messages_released_total",
            "persistent_deliveries_total",
            "behavior_invocations_total",
            "resolution_cache_hits_total",
            "resolution_cache_misses_total",
            "resolution_cache_invalidations_total",
            "resolution_cache_repairs_total",
            "dead_letters_queued_total",
            "dead_letters_redelivered_total",
            "dead_letters_expired_total",
            "failovers_total",
            "quarantined_entries_total",
            "node_suspected_total",
            "node_confirmed_down_total",
            "node_recovered_total",
            "overload_admission_rate_total",
            "overload_circuit_open_total",
            "overload_breaker_open_total",
            "overload_breaker_closed_total",
            "daemon_updates_total",
            "gc_cycles_total",
            "gc_collected_total",
        )}

    def count(self, name: str) -> int:
        """The scalar counter ``name`` (``KeyError`` if nothing counts
        under that name)."""
        return self.registry[name].value

    # -- recording -------------------------------------------------------------

    def on_sent(self, mode: Mode, envelope=None, node: int = 0,
                t: float = 0.0, scheduled: bool = False) -> None:
        self.sent[mode] += 1
        if self.log.enabled:
            self.log.emit("sent", t, node, envelope,
                          mode=mode.value, scheduled=scheduled)

    def on_delivered(
        self,
        mode: Mode,
        receiver: ActorAddress,
        sent_at: float,
        delivered_at: float,
        src_node: int,
        dst_node: int,
        envelope=None,
    ) -> None:
        self.delivered[mode] += 1
        self.received_by[receiver] += 1
        self.latency_hist.observe(delivered_at - sent_at)
        if self.log.enabled:
            self.log.emit(
                "delivered", delivered_at, dst_node, envelope,
                mode=mode.value, receiver=str(receiver),
                sent_at=sent_at, src_node=src_node,
            )

    def on_enqueued(self, envelope=None, node: int = 0, t: float = 0.0,
                    queue_depth: int = 0, receiver=None) -> None:
        """The target mailbox accepted the envelope (event-only hook)."""
        if self.log.enabled:
            self.log.emit("enqueued", t, node, envelope,
                          queue_depth=queue_depth, receiver=receiver)

    def on_hop(self, kind: LinkKind, envelope=None, node: int = 0,
               t: float = 0.0, dst_node: int | None = None) -> None:
        self.hops[kind] += 1
        if self.log.enabled:
            self.log.emit("hop", t, node, envelope, link=kind.value,
                          dst_node=dst_node)

    def on_suspended(self, envelope=None, node: int = 0, t: float = 0.0) -> None:
        self._counters["messages_suspended_total"].inc()
        self.log.emit("suspended", t, node, envelope)

    def on_released(self, n: int = 1, envelope=None, node: int = 0,
                    t: float = 0.0) -> None:
        self._counters["messages_released_total"].inc(n)
        if self.log.enabled:
            self.log.emit("released", t, node, envelope,
                          parked_age=(t - envelope.sent_at) if envelope else None)

    def on_persistent_delivery(self) -> None:
        """A persistent broadcast reached a late-arriving actor."""
        self._counters["persistent_deliveries_total"].inc()

    def on_dropped(self, reason: str, envelope=None, node: int = 0,
                   t: float = 0.0) -> None:
        self.dropped[reason] += 1
        self.log.emit("dropped", t, node, envelope, reason=reason)

    def on_invocation(self, envelope=None, node: int = 0, t: float = 0.0,
                      actor=None, queue_depth: int = 0) -> None:
        self._counters["behavior_invocations_total"].inc()
        if self.log.enabled:
            # ``invoked`` marks the queue-*down* edge (one message left the
            # mailbox for processing) — what event-driven daemons react to.
            self.log.emit("invoked", t, node, envelope, actor=actor,
                          queue_depth=queue_depth)

    def on_resolution(self, stats, envelope=None, node: int = 0,
                      t: float = 0.0) -> None:
        """Fold one resolution's :class:`~repro.core.matching.MatchStats` in."""
        self.resolution_hist.observe(stats.entries_examined)
        counters = self._counters
        counters["resolution_cache_hits_total"].inc(stats.cache_hits)
        counters["resolution_cache_misses_total"].inc(stats.cache_misses)
        counters["resolution_cache_invalidations_total"].inc(
            stats.cache_invalidations)
        counters["resolution_cache_repairs_total"].inc(stats.cache_repairs)
        if self.log.enabled:
            self.log.emit(
                "resolved", t, node, envelope,
                entries_examined=stats.entries_examined,
                spaces_descended=stats.spaces_descended,
                cache_hits=stats.cache_hits,
                cache_misses=stats.cache_misses,
            )

    def on_visibility_applied(self, node: int, op=None, t: float = 0.0) -> None:
        self.visibility_ops_applied[node] += 1
        if self.log.enabled:
            data = {}
            if op is not None:
                data = {"op": op.kind.value, "origin_node": op.origin_node,
                        "op_id": op.op_id}
            self.log.emit("visibility_op", t, node, None, **data)

    def on_daemon_fired(self, node: int, t: float, space, updates: int,
                        kind: str = "poll") -> None:
        """A monitoring daemon rewrote derived attributes (section 8)."""
        self._counters["daemon_updates_total"].inc(updates)
        if self.log.enabled:
            # ``trigger`` not ``kind``: the latter is the event kind itself.
            self.log.emit("daemon_fired", t, node, None,
                          space=str(space), updates=updates, trigger=kind)

    def on_dead_letter(self, action: str, envelope=None, node: int = 0,
                       t: float = 0.0, reason: str | None = None,
                       attempts: int = 0) -> None:
        """Dead-letter lifecycle: ``action`` is queued/redelivered/expired."""
        self._counters[f"dead_letters_{action}_total"].inc()
        self.log.emit(f"dead_letter_{action}", t, node, envelope,
                      reason=reason, attempts=attempts)

    def on_overload(self, decision: str, envelope=None, node: int = 0,
                    t: float = 0.0, dst_node: int | None = None) -> None:
        """Overload-protection decisions: admission rejections and
        circuit-breaker transitions (``decision`` is e.g.
        ``admission_rate``, ``circuit_open``, ``breaker_open``,
        ``breaker_closed``)."""
        self._counters[f"overload_{decision}_total"].inc()
        self.log.emit(f"overload_{decision}", t, node, envelope,
                      dst_node=dst_node)

    def on_failover(self, node: int = -1, t: float = 0.0, protocol: str = "",
                    reason: str = "", new_leader: int | None = None) -> None:
        """The bus survived a leadership/token loss."""
        self._counters["failovers_total"].inc()
        self.log.emit("failover", t, node, None, protocol=protocol,
                      reason=reason, new_leader=new_leader)

    def on_quarantine(self, kind: str, node: int, t: float = 0.0,
                      target_node: int | None = None, masked: int = 0) -> None:
        """One replica masked (``quarantined``) or unmasked a dead node."""
        if kind == "quarantined":
            self._counters["quarantined_entries_total"].inc(masked)
        self.log.emit(kind, t, node, None, target_node=target_node,
                      masked=masked)

    def on_node_health(self, kind: str, observer: int, peer: int,
                       t: float = 0.0) -> None:
        """Failure-detector verdicts: node_suspected/confirmed_down/recovered."""
        self._counters[f"{kind}_total"].inc()
        self.log.emit(kind, t, observer, None, peer=peer)

    def on_gc(self, node: int, t: float, report) -> None:
        """One garbage-collection cycle completed."""
        self._counters["gc_cycles_total"].inc()
        self._counters["gc_collected_total"].inc(report.collected_count)
        if self.log.enabled:
            self.log.emit(
                "gc", t, node, None,
                collected_actors=len(report.collected_actors),
                collected_spaces=len(report.collected_spaces),
                live_actors=len(report.live_actors),
                kept_active=len(report.kept_active),
            )

    def reset(self) -> None:
        """Zero the counters and clear the buffered events (between
        benchmark phases on a reused system) while *preserving* the
        registry's registered structure and the event log's attached
        sinks and subscribers — a reset must not silently disconnect a
        flight recorder.
        """
        self.registry.reset()
        self.log.clear()

    def __repr__(self):
        total_sent = sum(self.sent.values())
        total_dlv = sum(self.delivered.values())
        return (f"<Tracer sent={total_sent} delivered={total_dlv} "
                f"suspended={self.count('messages_suspended_total')}>")
