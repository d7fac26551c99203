"""Tests: the causal flight recorder (event log, metrics, trace export)."""

import io
import json

import pytest

from repro.core.daemons import install_event_daemon, threshold_rule
from repro.core.addresses import ActorAddress
from repro.core.messages import Mode
from repro.runtime.eventlog import (
    EventLog,
    JsonlSink,
    TraceEvent,
    chrome_trace,
    export_chrome_trace,
    validate_chrome_trace,
)
from repro.runtime.metrics import HistogramMetric, MetricsRegistry
from repro.runtime.network import Topology
from repro.runtime.system import ActorSpaceSystem
from repro.runtime.tracing import Tracer


def traced_system(nodes=3, **kw):
    kw.setdefault("trace", True)
    return ActorSpaceSystem(topology=Topology.lan(nodes), seed=0, **kw)


class TestEventLog:
    def test_emit_and_query(self):
        log = EventLog()
        log.emit("sent", 0.5, 1, None, mode="send")
        log.emit("delivered", 1.0, 2, None)
        assert len(log) == 2
        assert [e.kind for e in log.by_kind("sent")] == ["sent"]
        assert log.by_kind("delivered")[0].node == 2

    def test_ring_buffer_evicts_oldest(self):
        log = EventLog(capacity=3)
        for i in range(5):
            log.emit("sent", float(i), 0, None, i=i)
        assert len(log) == 3
        assert [e.data["i"] for e in log] == [2, 3, 4]
        assert log.emitted_count == 5

    def test_disabled_emits_nothing(self):
        log = EventLog(enabled=False)
        assert log.emit("sent", 0.0, 0, None) is None
        assert len(log) == 0 and log.emitted_count == 0

    def test_subscriber_sees_events_and_unsubscribes(self):
        log = EventLog()
        seen = []
        unsubscribe = log.subscribe(seen.append)
        log.emit("sent", 0.0, 0, None)
        unsubscribe()
        log.emit("sent", 1.0, 0, None)
        assert len(seen) == 1

    def test_clear_keeps_sinks_and_subscribers(self):
        log = EventLog()
        sink = JsonlSink(io.StringIO())
        log.add_sink(sink)
        unsub = log.subscribe(lambda e: None)
        log.emit("sent", 0.0, 0, None)
        log.clear()
        assert len(log) == 0
        assert sink in log.sinks and len(log.subscribers) == 1
        unsub()

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            EventLog(capacity=0)

    def test_jsonl_sink_round_trips(self):
        buffer = io.StringIO()
        log = EventLog()
        log.add_sink(JsonlSink(buffer))
        log.emit("dropped", 1.25, 2, None, reason="dead_letter")
        record = json.loads(buffer.getvalue())
        assert record["kind"] == "dropped"
        assert record["data"]["reason"] == "dead_letter"
        assert record["t"] == 1.25


class TestCausality:
    def test_envelopes_carry_trace_ids(self):
        system = traced_system()
        echo = system.create_actor(lambda ctx, m: ctx.send_to(m.reply_to, "pong")
                                   if m.reply_to else None, node=1)
        probe = system.create_actor(lambda ctx, m: None, node=0)
        system.send_to(echo, "ping", reply_to=probe)
        system.run()
        sent = system.trace_events("sent")
        assert all(e.trace_id is not None for e in sent)
        # The reply's trace id is the original send's envelope id.
        roots = [e for e in sent if e.parent_id is None]
        replies = [e for e in sent if e.parent_id is not None]
        assert replies and replies[0].trace_id == roots[0].envelope_id

    def test_every_delivery_chains_back_to_a_sent_event(self):
        """Acceptance: each delivered envelope has a causal chain whose
        root has a ``sent`` event."""
        system = traced_system()

        def relay(ctx, m):
            hops_left = m.payload
            if hops_left > 0:
                ctx.send("ring/*", hops_left - 1)

        for i in range(3):
            addr = system.create_actor(relay, node=i)
            system.make_visible(addr, f"ring/r{i}")
        system.run()
        system.send("ring/*", 5)
        system.run()
        system.broadcast("ring/**", 0)
        system.run()

        log = system.event_log
        sent_ids = {e.envelope_id for e in log.by_kind("sent")}
        delivered = log.by_kind("delivered")
        assert delivered, "workload should deliver messages"
        for event in delivered:
            chain = log.causal_chain(event.envelope_id)
            assert chain[0] == event.envelope_id
            assert chain[-1] in sent_ids, (
                f"delivery of envelope {event.envelope_id} has no causal "
                f"chain back to a sent event (chain: {chain})"
            )

    def test_scheduled_self_messages_are_rooted(self):
        system = traced_system()

        def ticker(ctx, m):
            if m.payload < 2:
                ctx.schedule(0.1, m.payload + 1)

        addr = system.create_actor(ticker, node=0)
        system.send_to(addr, 0)
        system.run()
        scheduled = [e for e in system.trace_events("sent")
                     if e.data.get("scheduled")]
        assert len(scheduled) == 2
        assert all(e.parent_id is not None for e in scheduled)

    def test_suspension_release_events(self):
        system = traced_system()
        system.send("later/*", "wait-for-me")
        system.run()
        assert len(system.trace_events("suspended")) == 1
        addr = system.create_actor(lambda ctx, m: None, node=1)
        system.make_visible(addr, "later/now")
        system.run()
        released = system.trace_events("released")
        assert len(released) == 1
        assert released[0].data["parked_age"] >= 0
        assert len(system.trace_events("delivered")) == 1

    def test_visibility_and_bus_events(self):
        system = traced_system()
        addr = system.create_actor(lambda ctx, m: None, node=0)
        system.make_visible(addr, "x/y")
        system.run()
        ops = system.trace_events("visibility_op")
        # Every one of the 3 replicas applied the single MAKE_VISIBLE op.
        assert {e.node for e in ops} == {0, 1, 2}
        sequenced = system.trace_events("bus_sequenced")
        assert len(sequenced) == 1
        assert sequenced[0].data["op"] == "make_visible"

    def test_resolution_events_carry_cache_stats(self):
        system = traced_system()
        addr = system.create_actor(lambda ctx, m: None, node=0)
        system.make_visible(addr, "svc/a")
        system.run()
        system.send("svc/*", 1)
        system.send("svc/*", 2)
        system.run()
        resolved = system.trace_events("resolved")
        assert resolved
        assert any(e.data["cache_misses"] for e in resolved)
        assert all("entries_examined" in e.data for e in resolved)

    def test_tracing_disabled_by_default(self):
        system = ActorSpaceSystem(seed=0)
        addr = system.create_actor(lambda ctx, m: None)
        system.send_to(addr, "x")
        system.run()
        assert not system.event_log.enabled
        assert system.event_log.emitted_count == 0
        assert system.tracer.count("behavior_invocations_total") == 1  # counters still work


class TestChromeTrace:
    def test_export_opens_as_valid_trace(self, tmp_path):
        system = traced_system()
        addr = system.create_actor(lambda ctx, m: None, node=2)
        system.make_visible(addr, "t/a")
        system.run()
        system.send("t/*", "hello")
        system.run()
        path = tmp_path / "run.trace.json"
        trace = system.export_trace(str(path))
        assert validate_chrome_trace(trace) == []
        reloaded = json.loads(path.read_text())
        phases = {r["ph"] for r in reloaded["traceEvents"]}
        assert {"M", "i", "X", "s", "f"} <= phases
        # One process-name track per node that emitted events.
        names = [r for r in reloaded["traceEvents"] if r["ph"] == "M"]
        assert {n["args"]["name"] for n in names} >= {"node 0", "node 2"}

    def test_in_flight_slices_span_latency(self):
        events = [
            TraceEvent(0, 1.0, "sent", 0, envelope_id=7, trace_id=7),
            TraceEvent(1, 3.0, "delivered", 1, envelope_id=7, trace_id=7,
                       data={"sent_at": 1.0, "mode": "send"}),
        ]
        trace = chrome_trace(events)
        slices = [r for r in trace["traceEvents"] if r["ph"] == "X"]
        assert len(slices) == 1
        assert slices[0]["ts"] == pytest.approx(1000.0)
        assert slices[0]["dur"] == pytest.approx(2000.0)

    def test_validator_flags_garbage(self):
        assert validate_chrome_trace({}) != []
        assert validate_chrome_trace({"traceEvents": []}) != []
        bad = {"traceEvents": [{"name": "x", "ph": "Z", "pid": 0, "ts": 0}]}
        assert any("phase" in p for p in validate_chrome_trace(bad))

    def test_export_helper_writes_file(self, tmp_path):
        path = tmp_path / "t.json"
        trace = export_chrome_trace(
            [TraceEvent(0, 0.0, "sent", 0, envelope_id=1, trace_id=1)],
            str(path))
        assert json.loads(path.read_text()) == trace


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        """The flavours: a counter, a histogram, and — what a gauge is
        here — a source read when the dump is taken."""
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        level = [1.5]
        reg.source("g", lambda: level[0])
        for v in [1.0, 2.0, 3.0, 4.0]:
            reg.histogram("h", 16).observe(v)
        assert reg.counter("c").value == 3
        assert reg.snapshot()["g"] == 1.5
        level[0] = 2.5  # nothing is copied: the next dump reads it again
        assert reg.snapshot()["g"] == 2.5
        assert reg.histogram("h", 16).count == 4
        assert reg.histogram("h", 16).percentile(50) == pytest.approx(2.5, abs=1.0)
        with pytest.raises(ValueError):
            HistogramMetric("unbounded", 0)

    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg["x"] is reg.counter("x")
        with pytest.raises(TypeError):
            reg.labeled("x")
        # One name, one number: a source cannot shadow a metric, nor a
        # metric a source, nor a source a source.
        with pytest.raises(TypeError):
            reg.source("x", lambda: 0)
        reg.source("depth", lambda: 0)
        with pytest.raises(TypeError):
            reg.counter("depth")
        with pytest.raises(TypeError):
            reg.source("depth", lambda: 1)
        with pytest.raises(KeyError):
            reg["nothing-counts-here"]

    def test_histogram_reservoir_bounded(self):
        h = HistogramMetric("h", cap=100)
        for i in range(10_000):
            h.observe(float(i))
        assert h.count == 10_000
        assert len(h.samples) == 100
        # A uniform reservoir's median should land near the true median.
        assert 2000 < h.percentile(50) < 8000

    def test_snapshot_and_reset(self):
        reg = MetricsRegistry()
        counter = reg.counter("n")
        counter.inc(5)
        reg.labeled("by_kind")["a"] += 2
        reg.source("hub", lambda: {"frames_out": counter.value * 2})
        snap = reg.snapshot()
        assert snap["n"] == 5
        assert snap["by_kind"] == {"a": 2}
        assert snap["hub"] == {"frames_out": 10}
        assert list(snap) == sorted(snap)
        reg.reset()
        assert counter.value == 0  # zeroed in place, same object
        assert reg.counter("n") is counter
        assert reg.snapshot()["hub"] == {"frames_out": 0}  # still read


class TestTracerFacade:
    def test_legacy_counters_are_registry_views(self):
        """A hook counts under one name; the handle, ``count`` and the
        registry dump all read that one number."""
        tracer = Tracer()
        tracer.on_sent(Mode.SEND)
        tracer.on_invocation()
        snap = tracer.registry.snapshot()
        assert snap["messages_sent_total"] == {str(Mode.SEND): 1}
        assert snap["behavior_invocations_total"] == 1
        assert tracer.count("behavior_invocations_total") == 1
        assert tracer.sent[Mode.SEND] == 1
        assert tracer.sent is tracer.registry["messages_sent_total"]
        with pytest.raises(KeyError):
            tracer.count("behaviour_invocations_total")  # a typo is loud

    def test_reset_preserves_sinks_and_subscribers(self):
        """Regression: reset() used to re-run __init__, dropping sinks."""
        log = EventLog()
        tracer = Tracer(log=log)
        sink = JsonlSink(io.StringIO())
        log.add_sink(sink)
        seen = []
        log.subscribe(seen.append)
        tracer.on_sent(Mode.SEND, t=1.0)
        tracer.reset()
        assert sink in tracer.log.sinks
        tracer.on_sent(Mode.SEND, t=2.0)
        assert sink.written == 2  # sink saw events on both sides of reset
        assert len(seen) == 2
        assert tracer.sent[Mode.SEND] == 1  # but counters were cleared

    def test_an_integer_keep_samples_bounds_every_per_delivery_store(self):
        """Nothing the tracer keeps grows with the number of deliveries,
        only its counts do — by construction, not by option: the same
        holds for a bare ``Tracer()`` and for the tracer of a
        default-constructed system."""
        from repro.core.matching import MatchStats
        from repro.runtime.tracing import HISTOGRAM_CAP as cap

        def sizes_of(tracer):
            """Length of every container the tracer or its registry holds."""
            held = {**vars(tracer), **tracer.registry._metrics}
            return {name: len(getattr(value, "samples", value))
                    for name, value in held.items()
                    if hasattr(value, "__len__") or hasattr(value, "samples")}

        receiver = ActorAddress(0, 1)
        for tracer in (Tracer(), ActorSpaceSystem(seed=0).tracer):
            assert not tracer.log.enabled
            stats = MatchStats()
            n = 3 * cap
            for i in range(n):
                tracer.on_sent(Mode.SEND)
                tracer.on_delivered(Mode.SEND, receiver, 0.0, float(i), 0, 0)
                stats.entries_examined = i
                tracer.on_resolution(stats)
                tracer.on_released(t=float(i))
            sizes = sizes_of(tracer)
            assert sizes["delivery_latency"] == cap
            assert sizes["resolution_entries_examined"] == cap
            # One counter per receiver, by design; everything else is
            # bounded by the cap whatever ``n`` is.
            assert sizes.pop("deliveries_by_receiver") == 1
            assert max(sizes.values()) <= cap, sizes
            assert len(tracer.log.events) == 0
            for hist in (tracer.latency_hist, tracer.resolution_hist):
                summary = hist.summary()
                assert summary["count"] == n
                assert summary["mean"] == pytest.approx((n - 1) / 2)
                assert summary["max"] == n - 1
        # The window is the most recent N; the first observation, long
        # evicted, would be the max of a descending stream all the same.
        tracer.reset()
        for value in range(10 * cap, 0, -1):
            tracer.latency_hist.observe(value)
        assert tracer.latency_hist.summary()["max"] == 10 * cap
        assert max(tracer.latency_hist.samples) == cap
        # Across processes a latency is a difference of two clocks: it
        # can be negative, and nothing observed reads as all zeros.
        tracer.reset()
        assert tracer.latency_hist.summary()["max"] == 0.0
        tracer.latency_hist.observe(-0.003)
        assert tracer.latency_hist.summary()["max"] == -0.003


class TestEventDrivenDaemon:
    def _loaded_system(self):
        system = traced_system(nodes=2)
        space = system.create_space()
        workers = []
        for i in range(3):
            addr = system.create_actor(lambda ctx, m: None, node=i % 2)
            system.make_visible(addr, f"w{i}", space=space)
            workers.append(addr)
        system.run()
        return system, space, workers

    def test_requires_enabled_log(self):
        system = ActorSpaceSystem(seed=0)
        space = system.create_space()
        system.run()
        with pytest.raises(ValueError):
            install_event_daemon(system, space,
                                 [threshold_rule("load", "queue", 0)])

    def test_reacts_to_mailbox_edges(self):
        system, space, workers = self._loaded_system()
        daemon = install_event_daemon(
            system, space, [threshold_rule("load", "queue", 0)])
        for _ in range(4):
            system.send_to(workers[0], "job")
        system.run()
        assert daemon.reactions > 0
        assert daemon.updates > 0
        fired = system.trace_events("daemon_fired")
        assert any(e.data["trigger"] == "event" for e in fired)
        # After the queue drained, the daemon re-derived load/low.
        entry = system.coordinators[0].directory.space(space).lookup(workers[0])
        assert any(str(a) == "load/low" for a in entry.attributes)
        daemon.close()

    def test_close_detaches(self):
        system, space, workers = self._loaded_system()
        daemon = install_event_daemon(
            system, space, [threshold_rule("load", "queue", 0)])
        daemon.close()
        daemon.close()  # idempotent
        before = daemon.reactions
        system.send_to(workers[0], "job")
        system.run()
        assert daemon.reactions == before


class TestNodeTelemetry:
    def test_telemetry_snapshot(self):
        system = traced_system()
        addr = system.create_actor(lambda ctx, m: None, node=1)
        system.make_visible(addr, "a/b")
        system.run()
        assert len(system.coordinators[1].actors) == 1
        assert (system.queue_depth(1), system.parked(1)) == (0, 0)
        assert system.tracer.visibility_ops_applied[1] >= 1
        snap = system.metrics.snapshot()
        assert (snap["queue_depth_node_1"], snap["parked_node_1"]) == (0, 0)

    def test_system_metrics_snapshot_includes_gauges(self):
        system = traced_system()
        snap = system.metrics.snapshot()
        assert "queue_depth_node_0" in snap
        assert "in_flight" in snap

    def test_a_dump_never_reads_a_stale_number(self):
        """What is computed on demand is read when the dump is taken:
        five sends that have not run yet are five envelopes in flight in
        every dump there is, whether or not a dump was taken before."""
        system = ActorSpaceSystem(topology=Topology.lan(2), seed=0)
        sink = system.create_actor(lambda ctx, m: None, node=1)
        assert system.metrics.snapshot()["in_flight"] == 0
        for i in range(5):
            system.send_to(sink, i)
        for dump in (system.metrics.snapshot, system.tracer.registry.snapshot):
            assert dump()["in_flight"] == 5
            assert dump()["transport"]["attempts"] == system.transport.attempts
        system.run()
        snap = system.metrics.snapshot()
        assert snap["in_flight"] == 0
        assert snap["messages_delivered_total"] == {str(Mode.DIRECT): 5}
        for owner in (system.tracer, system, type(system).__mro__[1]):
            assert not hasattr(owner, "metrics_snapshot")
