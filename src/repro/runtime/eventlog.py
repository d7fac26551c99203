"""The causal flight recorder: a structured log of envelope lifecycles.

The aggregate counters in :class:`~repro.runtime.tracing.Tracer` say *how
many* messages were suspended or dropped; they cannot say *which* message,
*why*, or what caused what.  This module records exactly that: every
envelope carries a ``trace_id`` (the root envelope of its causal tree) and
a ``parent_id`` (the envelope whose processing created it), and the
runtime emits typed :class:`TraceEvent` records at each lifecycle step:

====================  ========================================================
kind                  emitted when
====================  ========================================================
``sent``              an envelope enters the system (send/broadcast/direct,
                      or a scheduled self-message, marked ``scheduled``)
``resolved``          a pattern resolution completed (cache hits/misses and
                      entries examined in ``data``)
``hop``               the router forwarded the envelope over a link
``delivered``         the envelope reached its target actor
``enqueued``          the target mailbox accepted it (queue depth in ``data``)
``suspended``         no receiver matched; the envelope was parked
``released``          a visibility change un-parked a suspended envelope
``dropped``           the envelope was discarded (``reason`` in ``data``)
``visibility_op``     a replica applied one totally-ordered visibility op
``bus_sequenced``     the bus assigned an op its global sequence number
``daemon_fired``      a monitoring daemon rewrote derived attributes
``gc``                a garbage-collection cycle completed
``node_suspected``    a failure-detector observer missed enough heartbeats
``node_confirmed_down``  an observer confirmed a peer dead (first wins)
``node_recovered``    a suspected/confirmed peer is reachable again
``quarantined``       a replica masked a dead node's directory entries
``unquarantined``     a replica lifted the mask on recovery
``dead_letter_queued``  an undeliverable envelope was captured for retry
``dead_letter_redelivered``  a captured envelope was re-routed post-recovery
``dead_letter_expired``  a captured envelope hit its attempt/capacity bound
``failover``          the bus re-elected a sequencer / regenerated the token
====================  ========================================================

Events land in a bounded ring buffer (oldest evicted first) and are
pushed synchronously to *sinks* (persistence: JSONL, Chrome trace) and
*subscribers* (reaction: the section-8 event-driven daemons).  When the
log is disabled the ``emit`` call is a single attribute test — the
tracing-off hot path stays at pre-flight-recorder cost, which the
runtime micro-benchmark guards.

Chrome ``trace_event`` export (:func:`chrome_trace`) gives each node its
own track and binds ``sent -> delivered`` pairs with flow arrows, so a
run opens directly in ``chrome://tracing`` / Perfetto.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import IO, Any, Callable, Iterable

#: Event kinds the runtime emits (sinks may see others from user code).
EVENT_KINDS = (
    "sent",
    "resolved",
    "hop",
    "enqueued",
    "suspended",
    "released",
    "delivered",
    "dropped",
    "visibility_op",
    "bus_sequenced",
    "daemon_fired",
    "gc",
    "node_suspected",
    "node_confirmed_down",
    "node_recovered",
    "quarantined",
    "unquarantined",
    "dead_letter_queued",
    "dead_letter_redelivered",
    "dead_letter_expired",
    "failover",
)


@dataclass
class TraceEvent:
    """One structured lifecycle event.

    ``t`` is virtual time.  ``envelope_id``/``trace_id``/``parent_id``
    are ``None`` for events not tied to an envelope (visibility ops,
    daemon sweeps, GC cycles).  ``data`` holds kind-specific detail.
    """

    seq: int
    t: float
    kind: str
    node: int
    envelope_id: int | None = None
    trace_id: int | None = None
    parent_id: int | None = None
    data: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """A JSON-ready plain dict (data values stringified as needed)."""
        out = {
            "seq": self.seq,
            "t": self.t,
            "kind": self.kind,
            "node": self.node,
        }
        if self.envelope_id is not None:
            out["envelope_id"] = self.envelope_id
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
        if self.parent_id is not None:
            out["parent_id"] = self.parent_id
        if self.data:
            out["data"] = {k: _jsonable(v) for k, v in self.data.items()}
        return out

    def __repr__(self):
        env = f" env#{self.envelope_id}" if self.envelope_id is not None else ""
        return f"<TraceEvent {self.seq} t={self.t:.4f} {self.kind} n{self.node}{env}>"


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


class EventLog:
    """Bounded ring buffer of :class:`TraceEvent` with sinks and subscribers.

    Parameters
    ----------
    capacity:
        Ring-buffer size; the oldest events are evicted once full.
        Sinks see every event regardless of eviction.
    enabled:
        When ``False``, :meth:`emit` returns immediately — the recorder
        costs one attribute check per call site.
    """

    def __init__(self, capacity: int = 65536, enabled: bool = True):
        if capacity <= 0:
            raise ValueError(f"event log capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.enabled = enabled
        self.events: deque[TraceEvent] = deque(maxlen=capacity)
        self.sinks: list[Any] = []
        self.subscribers: list[Callable[[TraceEvent], None]] = []
        #: Every event ever emitted (ring eviction does not decrement).
        self.emitted_count = 0
        self._next_seq = 0

    @classmethod
    def from_events(cls, events: Iterable[TraceEvent],
                    capacity: int | None = None) -> "EventLog":
        """A query-only log over externally produced events.

        The telemetry collector merges per-node event streams into one
        timeline; wrapping the merged list in an :class:`EventLog` makes
        every query (:meth:`causal_chain`, :meth:`for_trace`,
        :meth:`by_kind`) work across node boundaries.
        """
        materialized = list(events)
        log = cls(capacity=capacity or max(len(materialized), 1),
                  enabled=False)
        log.events.extend(materialized)
        log.emitted_count = len(materialized)
        return log

    # -- emission ---------------------------------------------------------------

    def emit(
        self,
        kind: str,
        t: float,
        node: int,
        envelope=None,
        **data: Any,
    ) -> TraceEvent | None:
        """Record one event; returns it, or ``None`` when disabled.

        ``envelope`` (any object with ``envelope_id``/``trace_id``/
        ``parent_id`` attributes — in practice an
        :class:`~repro.core.messages.Envelope`) supplies the causal ids.
        """
        if not self.enabled:
            return None
        event = TraceEvent(
            seq=self._next_seq,
            t=t,
            kind=kind,
            node=node,
            envelope_id=getattr(envelope, "envelope_id", None),
            trace_id=getattr(envelope, "trace_id", None),
            parent_id=getattr(envelope, "parent_id", None),
            data=data,
        )
        self._next_seq += 1
        self.emitted_count += 1
        self.events.append(event)
        for sink in self.sinks:
            sink.write(event)
        for subscriber in self.subscribers:
            subscriber(event)
        return event

    @property
    def next_seq(self) -> int:
        """The seq the next emitted event will carry."""
        return self._next_seq

    # -- sinks and subscribers ----------------------------------------------------

    def add_sink(self, sink) -> None:
        """Attach a sink (an object with ``write(event)`` and ``close()``)."""
        self.sinks.append(sink)

    def subscribe(self, fn: Callable[[TraceEvent], None]) -> Callable[[], None]:
        """Register a synchronous per-event callback; returns an unsubscriber."""
        self.subscribers.append(fn)

        def unsubscribe() -> None:
            if fn in self.subscribers:
                self.subscribers.remove(fn)

        return unsubscribe

    def close(self) -> None:
        """Close every sink (flushes files); the log stays usable."""
        for sink in self.sinks:
            sink.close()

    # -- queries ----------------------------------------------------------------

    def clear(self) -> None:
        """Drop buffered events; sinks and subscribers stay attached."""
        self.events.clear()

    def by_kind(self, kind: str) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def for_trace(self, trace_id: int) -> list[TraceEvent]:
        """Every buffered event of one causal tree, in emission order."""
        return [e for e in self.events if e.trace_id == trace_id]

    def causal_chain(self, envelope_id: int) -> list[int]:
        """Envelope ids from ``envelope_id`` back to its causal root.

        Follows ``parent_id`` links as recorded in buffered events.  The
        chain ends at the first envelope with no recorded parent (the
        root, whose ``sent`` event started the tree).
        """
        parents: dict[int, int | None] = {}
        for e in self.events:
            if e.envelope_id is not None and e.envelope_id not in parents:
                parents[e.envelope_id] = e.parent_id
        chain = [envelope_id]
        seen = {envelope_id}
        current = envelope_id
        while True:
            parent = parents.get(current)
            if parent is None or parent in seen:
                return chain
            chain.append(parent)
            seen.add(parent)
            current = parent

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __repr__(self):
        state = "on" if self.enabled else "off"
        return (
            f"<EventLog {state} buffered={len(self.events)}/{self.capacity} "
            f"emitted={self.emitted_count}>"
        )


class JsonlSink:
    """Stream events as one JSON object per line.

    Accepts a path or an open text file.  Every line is flushed to the
    OS as it is written: a SIGKILLed node (the cluster fault drills)
    leaves a usable event log up to the instant of death instead of
    losing the stdio-buffered tail — the point of a flight recorder.
    A path is appended to, so a respawned node's recording follows the
    one of the process it replaces (its seqs start again at 0).
    """

    def __init__(self, target: "str | IO[str]"):
        if isinstance(target, str):
            # buffering=1 is line-buffered for text files; the explicit
            # flush in write() is the guarantee, this just keeps the
            # window small even if a write is interrupted mid-line.
            self._file: IO[str] = open(
                target, "a", encoding="utf-8", buffering=1)
            self._owns = True
        else:
            self._file = target
            self._owns = False
        self.written = 0

    def write(self, event: TraceEvent) -> None:
        self._file.write(json.dumps(event.to_dict()) + "\n")
        self._file.flush()
        self.written += 1

    def close(self) -> None:
        self._file.flush()
        if self._owns:
            self._file.close()

    def __repr__(self):
        return f"<JsonlSink written={self.written}>"


# ---------------------------------------------------------------------------
# Chrome trace_event export
# ---------------------------------------------------------------------------

#: Virtual-time unit -> trace microseconds.  Virtual latencies are small
#: fractions; scaling one virtual time unit to 1ms of trace time keeps
#: Perfetto's zoom levels comfortable.
_TRACE_US_PER_VT = 1_000.0

#: Event data fields naming the actor a lifecycle step happened *in*.
#: Used to assign per-actor ``tid`` tracks inside each node's process.
_ACTOR_FIELDS = ("receiver", "actor")


def _actor_label(event: TraceEvent) -> str | None:
    for key in _ACTOR_FIELDS:
        value = event.data.get(key)
        if value is not None:
            return str(value)
    return None


def chrome_trace(events: Iterable[TraceEvent],
                 us_per_t: float = _TRACE_US_PER_VT) -> dict:
    """Render events into the Chrome ``trace_event`` JSON object format.

    * Each node becomes a process (``pid``) with a human-readable
      ``process_name`` metadata record, giving per-node tracks.
    * Within a node, events naming an actor (``receiver``/``actor`` in
      their data) land on that actor's own thread track (``tid``); the
      node's runtime-level events stay on ``tid`` 0.
    * ``delivered`` events with a recorded ``sent_at`` become complete
      (``ph: "X"``) slices spanning the in-flight interval on the
      destination node's track.
    * Every event also appears as an instant (``ph: "i"``) mark.
    * ``sent``/``delivered`` pairs are linked with flow arrows
      (``ph: "s"`` / ``ph: "f"``) keyed by envelope id, so clicking a
      delivery walks back to its cause — including across nodes in a
      merged cluster trace, where the send and delivery carry
      different ``pid`` values.

    ``us_per_t`` converts the events' timescale to trace microseconds:
    the default suits virtual time; merged cluster traces carry real
    seconds and pass ``1e6``.
    """
    trace_events: list[dict] = []
    nodes_seen: set[int] = set()
    # node -> actor label -> tid (0 is the node's runtime track).
    tids: dict[int, dict[str, int]] = {}
    materialized = list(events)
    for event in materialized:
        nodes_seen.add(event.node)
        label = _actor_label(event)
        if label is not None:
            node_tids = tids.setdefault(event.node, {})
            if label not in node_tids:
                node_tids[label] = len(node_tids) + 1
    for node in sorted(nodes_seen):
        trace_events.append({
            "name": "process_name",
            "ph": "M",
            "pid": node,
            "tid": 0,
            "args": {"name": f"node {node}"},
        })
        trace_events.append({
            "name": "thread_name",
            "ph": "M",
            "pid": node,
            "tid": 0,
            "args": {"name": "runtime"},
        })
        for label, tid in sorted(tids.get(node, {}).items(),
                                 key=lambda item: item[1]):
            trace_events.append({
                "name": "thread_name",
                "ph": "M",
                "pid": node,
                "tid": tid,
                "args": {"name": label},
            })
    for event in materialized:
        ts = event.t * us_per_t
        args = {k: _jsonable(v) for k, v in event.data.items()}
        if event.envelope_id is not None:
            args["envelope_id"] = event.envelope_id
        if event.trace_id is not None:
            args["trace_id"] = event.trace_id
        if event.parent_id is not None:
            args["parent_id"] = event.parent_id
        label = _actor_label(event)
        tid = tids.get(event.node, {}).get(label, 0) if label else 0
        common = {"cat": "actorspace", "pid": event.node, "tid": tid}
        name = event.kind
        if event.kind == "dropped" and "reason" in event.data:
            name = f"dropped:{event.data['reason']}"
        trace_events.append({
            "name": name, "ph": "i", "ts": ts, "s": "p", "args": args,
            **common,
        })
        if event.kind == "delivered" and "sent_at" in event.data:
            sent_ts = float(event.data["sent_at"]) * us_per_t
            trace_events.append({
                "name": f"in-flight {event.data.get('mode', 'msg')}",
                "ph": "X",
                "ts": sent_ts,
                "dur": max(ts - sent_ts, 1.0),
                "args": args,
                **common,
            })
        if event.envelope_id is not None:
            if event.kind == "sent":
                trace_events.append({
                    "name": "causality", "ph": "s", "id": event.envelope_id,
                    "ts": ts, **common,
                })
            elif event.kind == "delivered":
                trace_events.append({
                    "name": "causality", "ph": "f", "bp": "e",
                    "id": event.envelope_id, "ts": ts, **common,
                })
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"source": "repro ActorSpace flight recorder"},
    }


def export_chrome_trace(events: Iterable[TraceEvent], path: str,
                        us_per_t: float = _TRACE_US_PER_VT) -> dict:
    """Write :func:`chrome_trace` output to ``path``; returns the dict."""
    trace = chrome_trace(events, us_per_t=us_per_t)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh)
    return trace


def validate_chrome_trace(trace: dict) -> list[str]:
    """Structural sanity check of an exported trace; returns problem strings.

    Used by the CI smoke job: an empty return means the file will load
    in ``chrome://tracing`` / Perfetto.
    """
    problems: list[str] = []
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        return ["missing traceEvents container"]
    records = trace["traceEvents"]
    if not isinstance(records, list) or not records:
        return ["traceEvents empty or not a list"]
    allowed_phases = {"M", "i", "X", "s", "f", "B", "E"}
    for i, record in enumerate(records):
        for key in ("name", "ph", "pid"):
            if key not in record:
                problems.append(f"record {i} missing {key!r}")
        ph = record.get("ph")
        if ph not in allowed_phases:
            problems.append(f"record {i} has unexpected phase {ph!r}")
        if ph != "M" and "ts" not in record:
            problems.append(f"record {i} ({ph}) missing ts")
        if ph == "X" and "dur" not in record:
            problems.append(f"record {i} (X) missing dur")
    return problems
