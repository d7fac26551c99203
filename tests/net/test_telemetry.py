"""Integration tests: the cluster observability plane end to end.

Real node processes over loopback TCP.  What these pin down:

* trace ids (``trace_id``/``parent_id``/``envelope_id``) survive the
  wire — a delivery on node B carries the ids minted by the send on
  node A;
* the telemetry collector's incremental scrape is honest (monotonic
  seqs, no duplicates) and its merged, clock-aligned timeline keeps
  every cross-node send strictly before its delivery;
* ``causal_chain`` over the merged log crosses node boundaries;
* the merged Chrome export passes the validator and contains cross-node
  flow arrows — the PR's acceptance criterion, as a test.
"""

from __future__ import annotations

import pytest

from repro.net.cluster import LocalCluster, TelemetryCollector, loopback_available
from repro.runtime.eventlog import EventLog, validate_chrome_trace

pytestmark = pytest.mark.skipif(
    not loopback_available(), reason="loopback sockets unavailable")


def _run_load(cluster: LocalCluster, *, pump_node: int, sink_node: int,
              total: int = 40, window: int = 8) -> None:
    sink = cluster.call(sink_node, "create_actor", behavior="load_sink",
                        params={})["address"]
    pump = cluster.call(pump_node, "create_actor", behavior="load_pump",
                        params={"target": sink, "total": total,
                                "window": window})["address"]
    cluster.call(pump_node, "send_to", target=pump, payload=("go",))
    cluster.wait_until(
        lambda: cluster.call(pump_node, "actor_state", address=pump,
                             attrs=["done"])["done"],
        timeout=60, interval=0.05, what="load drained")


def test_trace_ids_survive_tcp_round_trip(tmp_path):
    cluster = LocalCluster(2, seed=0, trace=True, out_dir=tmp_path)
    cluster.start()
    collector = TelemetryCollector.for_cluster(cluster)
    try:
        _run_load(cluster, pump_node=0, sink_node=1)
        collector.pull()
        collector.pull()  # second pull: exercises the since_seq resume

        # Incremental scrape honesty: per node, seqs unique + ascending.
        for node, events in collector.events.items():
            seqs = [e.seq for e in events]
            assert seqs == sorted(seqs)
            assert len(seqs) == len(set(seqs)), f"node {node} re-pulled events"

        sent_by_env = {e.envelope_id: e for e in collector.events[0]
                       if e.kind == "sent"}
        remote_deliveries = [
            e for e in collector.events[1]
            if e.kind == "delivered" and e.data.get("src_node") == 0]
        assert remote_deliveries, "no cross-node deliveries recorded"
        matched = 0
        for delivery in remote_deliveries:
            origin = sent_by_env.get(delivery.envelope_id)
            if origin is None:
                continue  # send evicted from node 0's ring before our pull
            matched += 1
            assert delivery.trace_id is not None
            assert delivery.trace_id == origin.trace_id
            assert delivery.parent_id == origin.parent_id
        assert matched > 0, "no delivery matched a surviving send event"

        # Merged timeline: clock alignment keeps cause before effect.
        merged = collector.merged_events()
        sent_at = {e.envelope_id: e.t for e in merged if e.kind == "sent"}
        checked = 0
        for e in merged:
            if e.kind != "delivered" or "src_node" not in e.data:
                continue
            if e.data["src_node"] == e.node or e.envelope_id not in sent_at:
                continue
            checked += 1
            assert sent_at[e.envelope_id] < e.t, (
                f"envelope {e.envelope_id}: delivered at {e.t} before "
                f"sent at {sent_at[e.envelope_id]} on the merged timeline")
        assert checked > 0

        # A causal chain on the merged log crosses the node boundary:
        # the sink's ack (delivered on node 0) chains back through the
        # request sent from node 0 and handled on node 1.
        log = EventLog.from_events(merged)
        env_nodes: dict[int, set[int]] = {}
        for e in merged:
            if e.envelope_id is not None:
                env_nodes.setdefault(e.envelope_id, set()).add(e.node)
        spanning = 0
        for e in merged:
            if (e.kind != "delivered" or e.data.get("src_node") != 1
                    or e.parent_id is None):
                continue
            chain = log.causal_chain(e.envelope_id)
            nodes = set().union(*(env_nodes.get(env, set()) for env in chain))
            if {0, 1} <= nodes:
                spanning += 1
        assert spanning > 0, "no causal chain spans both nodes"
    finally:
        collector.close()
        cluster.shutdown()


def test_merged_chrome_trace_has_cross_node_flows(tmp_path):
    """The PR acceptance criterion: 3 nodes, one merged valid Chrome
    trace, at least one flow arrow from a send on one node to a delivery
    on another, timestamps clock-aligned (send < deliver)."""
    cluster = LocalCluster(3, seed=0, trace=True, out_dir=tmp_path)
    cluster.start()
    collector = TelemetryCollector.for_cluster(cluster)
    try:
        _run_load(cluster, pump_node=0, sink_node=2, total=30, window=4)
        collector.drain()
        out = tmp_path / "cluster.trace.json"
        trace = collector.export_chrome(out)
        assert out.exists()
        assert validate_chrome_trace(trace) == []

        pairs: dict = {}
        for record in trace["traceEvents"]:
            if record.get("ph") in ("s", "f"):
                pairs.setdefault(record["id"], {})[record["ph"]] = record
        cross = [(p["s"], p["f"]) for p in pairs.values()
                 if len(p) == 2 and p["s"]["pid"] != p["f"]["pid"]]
        assert cross, "no cross-node flow binding in the merged trace"
        for start, finish in cross:
            assert start["ts"] < finish["ts"]
    finally:
        collector.close()
        cluster.shutdown()


def test_status_exposes_wire_counters_and_clock(tmp_path):
    cluster = LocalCluster(2, seed=0, trace=True, out_dir=tmp_path)
    cluster.start()
    try:
        _run_load(cluster, pump_node=0, sink_node=1, total=20, window=4)
        for node in (0, 1):
            status = cluster.call(node, "status")
            for key in ("frames_shed", "batches_in", "batches_out",
                        "heartbeats_suppressed", "clock"):
                assert key in status, f"status missing {key!r}"
            assert status["frames_shed"] == 0
            assert isinstance(status["clock"], dict)
        # The handshake alone guarantees at least the dialer holds a
        # clock sample for its peer.
        clocks = [cluster.call(n, "status")["clock"] for n in (0, 1)]
        assert any(c["peers"] for c in clocks), "no clock samples after handshake"

        telemetry = cluster.call(0, "snapshot", since_seq=0, max_events=10)
        assert telemetry["node"] == 0
        assert len(telemetry["events"]) <= 10
        assert telemetry["next_seq"] >= len(telemetry["events"])
        assert "stage_latency" in telemetry["hub"]
        for stage in ("send_queue", "decode", "deliver"):
            assert telemetry["hub"]["stage_latency"][stage]["count"] > 0
    finally:
        cluster.shutdown()
