"""Tests: ASCII timeline rendering."""

from repro.core.addresses import ActorAddress
from repro.core.messages import Mode
from repro.runtime.network import Topology
from repro.runtime.system import ActorSpaceSystem
from repro.util.timeline import render_load_bars, render_timeline


def traced_system():
    system = ActorSpaceSystem(topology=Topology.lan(3), seed=0, trace=True)
    sink = system.create_actor(lambda ctx, m: None, node=2)
    for i in range(5):
        system.send_to(sink, i)
    system.run()
    return system, sink


class TestTimeline:
    def test_renders_rows_per_node(self):
        system, _sink = traced_system()
        out = render_timeline(system.event_log, 3, width=40)
        lines = out.splitlines()
        assert any(line.startswith("node 0") for line in lines)
        assert any(line.startswith("node 2") for line in lines)
        # Deliveries landed on node 2.
        node2 = next(line for line in lines if line.startswith("node 2"))
        assert "d" in node2

    def test_sends_marked_at_source(self):
        system, _sink = traced_system()
        out = render_timeline(system.event_log, 3, width=40)
        node0 = next(l for l in out.splitlines() if l.startswith("node 0"))
        assert "s" in node0

    def test_empty_tracer_stub(self):
        system = ActorSpaceSystem(seed=0)
        out = render_timeline(system.event_log, 1)
        assert "no messages recorded" in out and "trace=True" in out

    def test_window_clamping(self):
        system, _sink = traced_system()
        out = render_timeline(system.event_log, 3, width=20, t_start=0.0,
                              t_end=0.001)
        # Events beyond the window clamp into the last bucket, not crash.
        assert "node 2" in out

    def test_width_respected(self):
        system, _sink = traced_system()
        out = render_timeline(system.event_log, 3, width=25)
        node_line = next(l for l in out.splitlines() if l.startswith("node 0"))
        assert node_line.count("|") == 2
        body = node_line.split("|")[1]
        assert len(body) == 25

    def test_zero_span_single_sample(self):
        """One same-instant sample: degenerate span must not divide by zero."""
        system = ActorSpaceSystem(seed=0, trace=True)
        system.tracer.on_delivered(
            Mode.DIRECT, ActorAddress(0, 1), sent_at=1.0, delivered_at=1.0,
            src_node=0, dst_node=0)
        out = render_timeline(system.event_log, 1, width=30)
        node0 = next(l for l in out.splitlines() if l.startswith("node 0"))
        assert "d" in node0

    def test_single_sample_renders(self):
        system = ActorSpaceSystem(topology=Topology.lan(2), seed=0, trace=True)
        sink = system.create_actor(lambda ctx, m: None, node=1)
        system.send_to(sink, "only")
        system.run()
        out = render_timeline(system.event_log, 2, width=30)
        assert "s" in out.split("|")[1] or "d" in out

    def test_suspension_release_cells(self):
        """Released suspensions render as 'u' on the releasing node's row."""
        system = ActorSpaceSystem(topology=Topology.lan(2), seed=0, trace=True)
        system.send("later/*", "parked")
        system.run()
        addr = system.create_actor(lambda ctx, m: None, node=1)
        system.make_visible(addr, "later/now")
        system.run()
        assert system.trace_events("released")
        out = render_timeline(system.event_log, 2, width=40)
        rows = [l for l in out.splitlines() if l.startswith("node")]
        assert any("u" in row for row in rows)
        assert "u=suspension release" in out

    def test_release_mark_never_overwrites_delivery(self):
        system = ActorSpaceSystem(seed=0, trace=True)
        tracer = system.tracer
        tracer.on_sent(Mode.SEND, t=0.0)
        tracer.on_delivered(Mode.SEND, ActorAddress(0, 1), sent_at=0.0,
                            delivered_at=1.0, src_node=0, dst_node=0)
        tracer.on_released(node=0, t=1.0)  # same bucket as the delivery
        out = render_timeline(system.event_log, 1, width=10)
        node0 = next(l for l in out.splitlines() if l.startswith("node 0"))
        assert "d" in node0 and "u" not in node0


class TestLoadBars:
    def test_bars_scale_with_counts(self):
        out = render_load_bars({"a": 10, "b": 5, "c": 1}, width=10)
        lines = out.splitlines()[1:]
        assert lines[0].count("#") > lines[1].count("#") > 0

    def test_sorted_by_count_descending(self):
        out = render_load_bars({"low": 1, "high": 9})
        lines = out.splitlines()[1:]
        assert "high" in lines[0] and "low" in lines[1]

    def test_empty(self):
        assert "no deliveries" in render_load_bars({})

    def test_works_with_tracer_counts(self):
        system, sink = traced_system()
        out = render_load_bars(dict(system.tracer.received_by))
        assert str(sink) in out
