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
  flow arrows;
* a killed and respawned node is a second incarnation to the collector
  and to its JSONL flight recording, not a reset of the first.
"""

from __future__ import annotations

import json

import pytest

from repro.net.cluster import LocalCluster, TelemetryCollector, loopback_available
from repro.net.top import _render, top_main
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
        for node, runs in collector.incarnations.items():
            assert len(runs) == 1
            seqs = [e.seq for e in runs[0]]
            assert seqs == sorted(seqs)
            assert len(seqs) == len(set(seqs)), f"node {node} re-pulled events"

        (node0,), (node1,) = collector.incarnations.values()
        sent_by_env = {e.envelope_id: e for e in node0 if e.kind == "sent"}
        remote_deliveries = [
            e for e in node1
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


def test_status_top_and_a_restarted_node(tmp_path, capsys):
    """Status and the scrape carry the wire counters and no clock of
    their own; then node 1 is killed and respawned: ``top`` shows it
    DOWN meanwhile, and the collector and the node's JSONL flight
    recording keep both of its incarnations."""
    cluster = LocalCluster(2, seed=0, trace=True, out_dir=tmp_path)
    cluster.start()
    collector = TelemetryCollector.for_cluster(cluster)
    try:
        _run_load(cluster, pump_node=0, sink_node=1, total=20, window=4)
        for node in (0, 1):
            status = cluster.call(node, "status")
            for key in ("frames_shed", "batches_in", "batches_out",
                        "heartbeats_suppressed"):
                assert key in status, f"status missing {key!r}"
            assert status["frames_shed"] == 0
            assert "clock" not in status

        telemetry = cluster.call(0, "snapshot", since_seq=0, max_events=10)
        assert telemetry["node"] == 0
        assert len(telemetry["events"]) <= 10
        assert telemetry["next_seq"] >= len(telemetry["events"])
        assert "stage_latency" in telemetry["hub"]
        for stage in ("send_queue", "decode", "deliver"):
            assert telemetry["hub"]["stage_latency"][stage]["count"] > 0
        assert "clock" not in telemetry and "clock" not in telemetry["hub"]

        collector.pull()
        cluster.kill(1)
        screen = _render(collector, collector.pull(), {}, {})
        header = screen.splitlines()[2].split(" | ")
        down = [line for line in screen.splitlines() if "DOWN" in line]
        assert len(down) == 1 and down[0].startswith("1 ")
        assert len(down[0].split(" | ")) == len(header)
        ports = ",".join(str(port) for port in cluster.ports)
        assert top_main(["--ports", ports, "--once"]) == 0
        assert "DOWN" in capsys.readouterr().out

        cluster.respawn_all([1])
        cluster.wait_linked()
        _run_load(cluster, pump_node=0, sink_node=1, total=20, window=4)
        collector.pull()
        old, new = collector.incarnations[1]
        # Every event of the new process, from its seq 0, none missed.
        assert old and len(new) == collector.snapshots[1]["events_total"]
        assert [e.seq for e in new] == list(range(len(new)))
        assert collector.events_missed[1] == 0
        # Each incarnation is aligned on its own clock samples: the
        # respawned process's events all merge after the dead one's.
        key = [(e.seq, e.kind, e.envelope_id)
               for e in collector.merged_events() if e.node == 1]
        assert sorted(key[:len(old)]) \
            == sorted((e.seq, e.kind, e.envelope_id) for e in old)
        # The respawn appended to the flight recording; seq restarts once.
        lines = (tmp_path / "node1.events.jsonl").read_text().splitlines()
        seqs = [json.loads(line)["seq"] for line in lines]
        restarts = [i for i in range(1, len(seqs)) if seqs[i] <= seqs[i - 1]]
        assert len(restarts) == 1 and seqs[restarts[0]] == 0
        assert seqs == list(range(restarts[0])) \
            + list(range(len(seqs) - restarts[0]))
    finally:
        collector.close()
        cluster.shutdown()
