"""Live cluster observability CLIs: ``repro top`` and ``repro trace --cluster``.

``python -m repro top`` attaches to a *running* cluster (via the
``cluster.json`` manifest a ``--out`` launch writes, or explicit
``--host``/``--ports``) and renders a refreshing per-node table: actor
and queue counts, wire-frame rates, shed/batch/heartbeat counters, the
node's clock offsets to its peers, plus the wire-path stage-latency
histograms (enqueue→flush, decode, deliver).  It is a read-only control
-plane client — attaching to a production cluster costs one extra
control connection per node and whatever the scrape interval implies.

``python -m repro trace --cluster`` is the batch sibling: pull telemetry
a few times, merge every node's flight-recorder events onto one
clock-aligned timeline, and export a Chrome ``trace_event`` file whose
flow arrows stitch cross-node sends to their deliveries.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.runtime.eventlog import validate_chrome_trace
from repro.util.tables import TextTable

from .cluster import TelemetryCollector

#: ANSI: clear screen + home cursor (between live refreshes).
_CLEAR = "\x1b[2J\x1b[H"


def _collector_from_args(args) -> TelemetryCollector:
    if args.cluster_file:
        path = Path(args.cluster_file)
        if path.is_dir():
            path = path / "cluster.json"
        return TelemetryCollector.from_manifest(path, timeout=args.timeout)
    if not args.ports:
        raise SystemExit("need --cluster-file or --ports")
    ports = [int(p) for p in args.ports.split(",")]
    return TelemetryCollector(args.host, ports, cluster_id=args.cluster_id,
                              timeout=args.timeout)


def _ms(value) -> str:
    if not isinstance(value, (int, float)):
        return "-"
    return f"{value * 1000.0:.2f}"


def _admission_rejected(admission: dict | None) -> str:
    """Total admission rejections (rate + breaker), or ``-`` when off."""
    if not isinstance(admission, dict):
        return "-"
    return str(admission.get("rejected_rate", 0)
               + admission.get("rejected_breaker", 0))


def _peer_offsets(clock: dict | None) -> str:
    """Render a node's per-peer offset estimates as ``peer:+ms`` pairs."""
    if not isinstance(clock, dict) or not clock.get("peers"):
        return "-"
    parts = []
    for peer, info in sorted(clock["peers"].items()):
        offset = info.get("offset_s")
        if isinstance(offset, (int, float)):
            parts.append(f"{peer}:{offset * 1000.0:+.2f}ms")
    return ",".join(parts) if parts else "-"


def _shard_table(statuses: dict[int, dict],
                 prev_shards: dict[int, tuple[float, int]]) -> "TextTable | None":
    """Per-shard sequencer view, aggregated across every node's status.

    ``prev_shards`` maps shard -> (monotonic, total ops sequenced) from
    the previous refresh; the ops/s column is the delta.  Summing
    ``ops_sequenced`` over all nodes keeps the rate honest across a
    failover or rebalance — whichever node held the seat did the work.
    """
    per_shard: dict[int, list[dict]] = {}
    map_versions: set = set()
    for status in statuses.values():
        shards = status.get("shards") if isinstance(status, dict) else None
        if not shards:
            continue
        map_versions.add(status.get("shard_map_version"))
        for k, info in shards.items():
            per_shard.setdefault(int(k), []).append(info)
    if not per_shard:
        return None
    now = time.monotonic()
    versions = ",".join(str(v) for v in sorted(map_versions, key=str))
    table = TextTable(
        ["shard", "seat", "home", "ops/s", "seq'd", "applied", "lag",
         "unacked"],
        title=f"visibility shards ({len(per_shard)} shards, map v{versions})")
    for k in sorted(per_shard):
        views = per_shard[k]
        seats = {v.get("sequencer") for v in views}
        seat = seats.pop() if len(seats) == 1 else "split"
        homes = {v.get("home") for v in views}
        home = homes.pop() if len(homes) == 1 else "split"
        sequenced = sum(v.get("ops_sequenced", 0) or 0 for v in views)
        applied = [v.get("applied", 0) or 0 for v in views]
        rate = 0.0
        last = prev_shards.get(k)
        if last is not None and now > last[0]:
            rate = (sequenced - last[1]) / (now - last[0])
        prev_shards[k] = (now, sequenced)
        table.add_row([
            k, seat, home, f"{rate:.0f}", sequenced,
            max(applied), max(applied) - min(applied),
            sum(v.get("unacked", 0) or 0 for v in views),
        ])
    return table


def _render(collector: TelemetryCollector, pulled: dict[int, dict],
            prev: dict[int, tuple[float, int, int]],
            prev_shards: dict[int, tuple[float, int]]) -> str:
    """One refresh from one scrape per node (``pulled``, what
    :meth:`TelemetryCollector.pull` just returned): the per-node table
    from each reply's ``status`` section and the collector's wire
    summary, + the wire-stage histogram table.

    ``prev`` maps node -> (monotonic, frames_in, frames_out) from the
    previous refresh; frame rates are the deltas.  Updated in place.
    """
    now = time.monotonic()
    statuses = {node: reply["status"] for node, reply in pulled.items()
                if isinstance(reply.get("status"), dict)}
    wire_summary = collector.summary()
    node_table = TextTable(
        ["node", "actors", "pend", "infl", "dlq", "ops/fsync", "links",
         "fr_in/s", "fr_out/s", "shed", "mb_shed", "adm_rej",
         "cr_stall", "b_in", "b_out", "hb_sup",
         "peak_kB", "peer offsets"],
        title=f"cluster: {collector.cluster_id}  "
              f"({len(collector.ports)} nodes, pull #{collector.pulls})")
    stage_table = TextTable(
        ["node", "stage", "count", "mean ms", "p50 ms", "p95 ms", "max ms"],
        title="wire path stage latency (enqueue->flush / decode / deliver)")
    for node in range(len(collector.ports)):
        status = statuses.get(node)
        if status is None:
            node_table.add_row([node, "DOWN"] + ["-"] * 16)
            continue
        wire = wire_summary[node]
        frames_in = wire["frames_in"] or 0
        frames_out = wire["frames_out"] or 0
        rate_in = rate_out = 0.0
        last = prev.get(node)
        if last is not None and now > last[0]:
            rate_in = (frames_in - last[1]) / (now - last[0])
            rate_out = (frames_out - last[2]) / (now - last[0])
        prev[node] = (now, frames_in, frames_out)
        peak = wire["queue_peak_bytes"]
        node_table.add_row([
            node,
            status.get("actors", "-"),
            status.get("events_pending", "-"),
            status.get("in_flight", "-"),
            status.get("dlq_pending", "-"),
            (status.get("store") or {}).get("ops_per_fsync") or "-",
            len(status.get("links", [])),
            f"{rate_in:.0f}",
            f"{rate_out:.0f}",
            wire["frames_shed"],
            status.get("mailbox_shed", "-"),
            _admission_rejected(status.get("admission")),
            status.get("credit_stalls", "-"),
            wire["batches_in"],
            wire["batches_out"],
            wire["heartbeats_suppressed"],
            f"{peak / 1024:.1f}" if isinstance(peak, (int, float)) else "-",
            _peer_offsets(wire["clock"]),
        ])
        stages = wire["stage_latency"] or {}
        for stage in ("send_queue", "decode", "deliver"):
            summary = stages.get(stage)
            if not isinstance(summary, dict):
                continue
            stage_table.add_row([
                node, stage, summary.get("count", 0),
                _ms(summary.get("mean")), _ms(summary.get("p50")),
                _ms(summary.get("p95")), _ms(summary.get("max")),
            ])
    parts = [node_table.render()]
    shard_table = _shard_table(statuses, prev_shards)
    if shard_table is not None:
        parts += ["", shard_table.render()]
    if stage_table.rows:
        parts += ["", stage_table.render()]
    return "\n".join(parts)


def top_main(argv: list[str]) -> int:
    """``python -m repro top`` — live per-node cluster table."""
    parser = argparse.ArgumentParser(
        prog="python -m repro top",
        description="Live telemetry view of a running TCP cluster.")
    parser.add_argument("--cluster-file", default=None,
                        help="cluster.json manifest (or the --out directory "
                             "that contains it)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--ports", default=None,
                        help="comma-separated node ports (alternative to "
                             "--cluster-file)")
    parser.add_argument("--cluster-id", default="actorspace")
    parser.add_argument("--interval", type=float, default=1.0,
                        help="refresh period in seconds")
    parser.add_argument("--iterations", type=int, default=0,
                        help="stop after N refreshes (0 = until interrupted)")
    parser.add_argument("--once", action="store_true",
                        help="render one snapshot and exit (no ANSI clear)")
    parser.add_argument("--timeout", type=float, default=3.0)
    args = parser.parse_args(argv)

    collector = _collector_from_args(args)
    prev: dict[int, tuple[float, int, int]] = {}
    prev_shards: dict[int, tuple[float, int]] = {}
    iterations = 1 if args.once else args.iterations
    count = 0
    try:
        while True:
            screen = _render(collector, collector.pull(), prev, prev_shards)
            if args.once:
                print(screen)
            else:
                print(_CLEAR + screen, flush=True)
            count += 1
            if iterations and count >= iterations:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    finally:
        collector.close()


def cluster_trace_main(argv: list[str]) -> int:
    """``python -m repro trace --cluster`` — merged cross-node Chrome trace."""
    parser = argparse.ArgumentParser(
        prog="python -m repro trace --cluster",
        description="Merge a running cluster's flight recorders into one "
                    "clock-aligned Chrome trace.")
    parser.add_argument("--cluster-file", default=None,
                        help="cluster.json manifest (or its directory)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--ports", default=None)
    parser.add_argument("--cluster-id", default="actorspace")
    parser.add_argument("--out", default="cluster.trace.json")
    parser.add_argument("--pulls", type=int, default=3,
                        help="telemetry pulls before exporting (more pulls "
                             "= tighter clock estimates + more events)")
    parser.add_argument("--interval", type=float, default=0.2,
                        help="pause between pulls in seconds")
    parser.add_argument("--timeout", type=float, default=3.0)
    parser.add_argument("--verbose", action="store_true",
                        help="print the full per-node telemetry summary")
    args = parser.parse_args(argv)

    collector = _collector_from_args(args)
    try:
        for i in range(max(1, args.pulls)):
            collector.pull()
            if i + 1 < args.pulls:
                time.sleep(args.interval)
        merged = collector.merged_events()
        if not merged:
            print("trace: no events collected (is tracing enabled on the "
                  "cluster?)", file=sys.stderr)
            return 1
        trace = collector.export_chrome(args.out)
        problems = validate_chrome_trace(trace)
        if problems:
            for problem in problems[:10]:
                print(f"trace: invalid output: {problem}", file=sys.stderr)
            return 1
        flows = sum(1 for r in trace["traceEvents"] if r.get("ph") == "f")
        nodes = sorted({e.node for e in merged})
        missed = sum(collector.events_missed.values())
        print(f"trace: {len(merged)} events from nodes {nodes} "
              f"({flows} flow bindings, {missed} evicted before pull) "
              f"-> {args.out}")
        if args.verbose:
            print(json.dumps(
                {str(n): s for n, s in collector.summary().items()},
                indent=2, default=str))
        else:
            print(f"clock: {collector.clock_sync.snapshot()['peers']}")
        return 0
    finally:
        collector.close()
