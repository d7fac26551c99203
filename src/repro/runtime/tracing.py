"""Trace and accounting layer.

Every experiment in EXPERIMENTS.md is computed from the counters and
samples gathered here.  Since the flight-recorder PR the tracer is a thin
façade over two structured subsystems:

* a :class:`~repro.runtime.metrics.MetricsRegistry` holding every counter
  by name (``messages_sent_total``, ``messages_dropped_total``, ...) —
  the historical ``Tracer`` attributes are live views of registry
  metrics, so existing experiments keep working unchanged;
* a :class:`~repro.runtime.eventlog.EventLog` receiving typed per-envelope
  lifecycle events whenever tracing is enabled (``ActorSpaceSystem(trace=
  True)``); when disabled, each ``on_*`` hook pays one attribute check.

``keep_samples`` accepts ``True`` (keep every latency sample — the
historical behavior), ``False`` (keep none), or an integer cap ``N``:
reservoir sampling then keeps a uniform ``N``-sample of all deliveries,
so long runs stop growing memory linearly while percentiles stay honest.
The cap bounds everything that grows per delivery: the two histograms
and ``release_marks`` keep their most recent ``N`` entries (counts, means
and maxima stay exact).
"""

from __future__ import annotations

import random
from collections import defaultdict, deque
from dataclasses import dataclass

from repro.core.addresses import ActorAddress
from repro.core.messages import Mode

from .eventlog import EventLog
from .metrics import MetricsRegistry
from .network import LinkKind


@dataclass
class LatencySample:
    """One end-to-end message delivery."""

    mode: Mode
    sent_at: float
    delivered_at: float
    src_node: int
    dst_node: int

    @property
    def latency(self) -> float:
        return self.delivered_at - self.sent_at


def _scalar(metric_name: str, doc: str):
    """A read/write int attribute backed by a named registry counter."""

    def getter(self):
        return self.registry.counter(metric_name).value

    def setter(self, value):
        self.registry.counter(metric_name).value = value

    return property(getter, setter, doc=doc)


class Tracer:
    """Counters, samples, and lifecycle events describing one run."""

    def __init__(
        self,
        keep_samples: "bool | int" = True,
        registry: MetricsRegistry | None = None,
        log: EventLog | None = None,
    ):
        if keep_samples is not True and keep_samples is not False:
            if not isinstance(keep_samples, int) or keep_samples < 0:
                raise ValueError(
                    f"keep_samples must be a bool or a non-negative int, "
                    f"got {keep_samples!r}"
                )
        self.keep_samples = keep_samples
        self.registry = registry if registry is not None else MetricsRegistry()
        #: The flight recorder; disabled by default (one attribute check
        #: per hook call), enabled via ``ActorSpaceSystem(trace=...)``.
        self.log = log if log is not None else EventLog(enabled=False)
        self._init_state()

    def _init_state(self) -> None:
        """(Re)create the per-run mutable state; registry/log survive."""
        reg = self.registry
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
        # An integer ``keep_samples`` bounds the per-delivery stores too.
        cap = None if isinstance(self.keep_samples, bool) else self.keep_samples

        def histogram(name):
            return reg.histogram(name) if cap is None else reg.recent(name, cap)
        #: End-to-end delivery latency, all modes.
        self.latency_hist = histogram("delivery_latency")
        #: Pattern-resolution work distribution (entries examined).
        self.resolution_hist = histogram("resolution_entries_examined")
        # Scalar counters (registered so snapshots include them even at 0).
        for name in (
            "messages_suspended_total",
            "messages_released_total",
            "persistent_deliveries_total",
            "behavior_invocations_total",
            "resolution_cache_hits_total",
            "resolution_cache_misses_total",
            "resolution_cache_invalidations_total",
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
        ):
            reg.counter(name)
        #: End-to-end latency samples (see ``keep_samples``).
        self.samples: list[LatencySample] = []
        self._samples_seen = 0
        self._sample_rng = random.Random(0xACE5)
        #: (time, node) marks of suspension releases, for the timeline view.
        self.release_marks: "list | deque[tuple[float, int]]" = \
            [] if cap is None else deque(maxlen=cap)
        #: Time series the experiments can append to: name -> [(t, value)].
        self.series: dict[str, list[tuple[float, float]]] = defaultdict(list)

    # Scalar counter views (read/write for backward compatibility:
    # the coordinator historically did ``tracer.persistent_deliveries += 1``).
    suspended_count = _scalar(
        "messages_suspended_total",
        "Pattern messages that found no match and were suspended.")
    released_count = _scalar(
        "messages_released_total",
        "Suspended messages later released by a visibility change.")
    persistent_deliveries = _scalar(
        "persistent_deliveries_total",
        "Persistent-broadcast deliveries to late-arriving actors.")
    invocations = _scalar(
        "behavior_invocations_total", "Behavior invocations executed.")
    cache_hits = _scalar(
        "resolution_cache_hits_total", "Resolution-cache hits, all nodes.")
    cache_misses = _scalar(
        "resolution_cache_misses_total", "Resolution-cache misses, all nodes.")
    cache_invalidations = _scalar(
        "resolution_cache_invalidations_total",
        "Resolution-cache entries invalidated by visibility changes.")
    dead_letters_queued = _scalar(
        "dead_letters_queued_total",
        "Undeliverable envelopes captured by the dead-letter queue.")
    dead_letters_redelivered = _scalar(
        "dead_letters_redelivered_total",
        "Dead letters redelivered after their destination recovered.")
    dead_letters_expired = _scalar(
        "dead_letters_expired_total",
        "Dead letters dropped for good (attempt cap or queue overflow).")
    failovers = _scalar(
        "failovers_total",
        "Bus failovers survived (sequencer re-elections, token regenerations).")
    quarantined_entries = _scalar(
        "quarantined_entries_total",
        "Directory entries masked by failure quarantine, across replicas.")

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
        self._keep_sample(
            LatencySample(mode, sent_at, delivered_at, src_node, dst_node)
        )
        if self.log.enabled:
            self.log.emit(
                "delivered", delivered_at, dst_node, envelope,
                mode=mode.value, receiver=str(receiver),
                sent_at=sent_at, src_node=src_node,
            )

    def _keep_sample(self, sample: LatencySample) -> None:
        """Honour the ``keep_samples`` policy (all / none / reservoir-N)."""
        if self.keep_samples is False:
            return
        self._samples_seen += 1
        if self.keep_samples is True:
            self.samples.append(sample)
            return
        cap = self.keep_samples
        if len(self.samples) < cap:
            self.samples.append(sample)
            return
        slot = self._sample_rng.randrange(self._samples_seen)
        if slot < cap:
            self.samples[slot] = sample

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
        self.registry.counter("messages_suspended_total").inc()
        if self.log.enabled:
            self.log.emit("suspended", t, node, envelope)

    def on_released(self, n: int = 1, envelope=None, node: int = 0,
                    t: float = 0.0) -> None:
        self.registry.counter("messages_released_total").inc(n)
        self.release_marks.append((t, node))
        if self.log.enabled:
            self.log.emit("released", t, node, envelope,
                          parked_age=(t - envelope.sent_at) if envelope else None)

    def on_dropped(self, reason: str, envelope=None, node: int = 0,
                   t: float = 0.0) -> None:
        self.dropped[reason] += 1
        if self.log.enabled:
            self.log.emit("dropped", t, node, envelope, reason=reason)

    def on_invocation(self, envelope=None, node: int = 0, t: float = 0.0,
                      actor=None, queue_depth: int = 0) -> None:
        self.registry.counter("behavior_invocations_total").inc()
        if self.log.enabled:
            # ``invoked`` marks the queue-*down* edge (one message left the
            # mailbox for processing) — what event-driven daemons react to.
            self.log.emit("invoked", t, node, envelope, actor=actor,
                          queue_depth=queue_depth)

    def on_resolution(self, stats, envelope=None, node: int = 0,
                      t: float = 0.0) -> None:
        """Fold one resolution's :class:`~repro.core.matching.MatchStats` in."""
        self.resolution_hist.observe(stats.entries_examined)
        reg = self.registry
        reg.counter("resolution_cache_hits_total").inc(stats.cache_hits)
        reg.counter("resolution_cache_misses_total").inc(stats.cache_misses)
        reg.counter("resolution_cache_invalidations_total").inc(
            stats.cache_invalidations)
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
        self.registry.counter("daemon_updates_total").inc(updates)
        if self.log.enabled:
            # ``trigger`` not ``kind``: the latter is the event kind itself.
            self.log.emit("daemon_fired", t, node, None,
                          space=str(space), updates=updates, trigger=kind)

    def on_dead_letter(self, action: str, envelope=None, node: int = 0,
                       t: float = 0.0, reason: str | None = None,
                       attempts: int = 0) -> None:
        """Dead-letter lifecycle: ``action`` is queued/redelivered/expired."""
        self.registry.counter(f"dead_letters_{action}_total").inc()
        if self.log.enabled:
            self.log.emit(f"dead_letter_{action}", t, node, envelope,
                          reason=reason, attempts=attempts)

    def on_overload(self, decision: str, envelope=None, node: int = 0,
                    t: float = 0.0, dst_node: int | None = None) -> None:
        """Overload-protection decisions: admission rejections and
        circuit-breaker transitions (``decision`` is e.g.
        ``admission_rate``, ``circuit_open``, ``breaker_open``,
        ``breaker_closed``)."""
        self.registry.counter(f"overload_{decision}_total").inc()
        if self.log.enabled:
            self.log.emit(f"overload_{decision}", t, node, envelope,
                          dst_node=dst_node)

    def on_failover(self, node: int = -1, t: float = 0.0, protocol: str = "",
                    reason: str = "", new_leader: int | None = None) -> None:
        """The bus survived a leadership/token loss."""
        self.registry.counter("failovers_total").inc()
        if self.log.enabled:
            self.log.emit("failover", t, node, None, protocol=protocol,
                          reason=reason, new_leader=new_leader)

    def on_quarantine(self, kind: str, node: int, t: float = 0.0,
                      target_node: int | None = None, masked: int = 0) -> None:
        """One replica masked (``quarantined``) or unmasked a dead node."""
        if kind == "quarantined":
            self.registry.counter("quarantined_entries_total").inc(masked)
        if self.log.enabled:
            self.log.emit(kind, t, node, None, target_node=target_node,
                          masked=masked)

    def on_node_health(self, kind: str, observer: int, peer: int,
                       t: float = 0.0) -> None:
        """Failure-detector verdicts: node_suspected/confirmed_down/recovered."""
        self.registry.counter(f"{kind}_total").inc()
        if self.log.enabled:
            self.log.emit(kind, t, observer, None, peer=peer)

    def on_gc(self, node: int, t: float, report) -> None:
        """One garbage-collection cycle completed."""
        self.registry.counter("gc_cycles_total").inc()
        self.registry.counter("gc_collected_total").inc(report.collected_count)
        if self.log.enabled:
            self.log.emit(
                "gc", t, node, None,
                collected_actors=len(report.collected_actors),
                collected_spaces=len(report.collected_spaces),
                live_actors=len(report.live_actors),
                kept_active=len(report.kept_active),
            )

    def record(self, name: str, t: float, value: float) -> None:
        """Append a point to the named time series."""
        self.series[name].append((t, value))

    # -- summaries ----------------------------------------------------------------

    def latency_stats(self, mode: Mode | None = None) -> dict:
        """Mean/p50/p95/max latency over recorded samples."""
        import numpy as np

        values = [
            s.latency for s in self.samples if mode is None or s.mode is mode
        ]
        if not values:
            return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "max": 0.0}
        arr = np.asarray(values)
        return {
            "count": len(values),
            "mean": float(arr.mean()),
            "p50": float(np.percentile(arr, 50)),
            "p95": float(np.percentile(arr, 95)),
            "max": float(arr.max()),
        }

    def load_distribution(self, receivers=None) -> list[int]:
        """Per-receiver delivery counts (optionally restricted to a set)."""
        if receivers is None:
            return sorted(self.received_by.values())
        return [self.received_by.get(r, 0) for r in receivers]

    def hop_summary(self) -> dict[str, int]:
        return {k.value: self.hops.get(k, 0) for k in LinkKind}

    def cache_summary(self) -> dict[str, float]:
        """Resolution-cache counters plus the overall hit rate."""
        lookups = self.cache_hits + self.cache_misses
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "invalidations": self.cache_invalidations,
            "hit_rate": self.cache_hits / lookups if lookups else 0.0,
        }

    def metrics_snapshot(self) -> dict:
        """Plain-data dump of every registered metric (monitoring surface)."""
        return self.registry.snapshot()

    def reset(self) -> None:
        """Clear counters and samples (between benchmark phases on a reused
        system) while *preserving* the metrics registry's registered
        structure and the event log's attached sinks and subscribers —
        a reset must not silently disconnect a flight recorder.
        """
        self.registry.reset()
        self.log.clear()
        self._init_state()

    def __repr__(self):
        total_sent = sum(self.sent.values())
        total_dlv = sum(self.delivered.values())
        return f"<Tracer sent={total_sent} delivered={total_dlv} suspended={self.suspended_count}>"
