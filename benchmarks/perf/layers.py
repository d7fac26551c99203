"""From a span summary to the per-layer table and its budget rows.

Every per-layer metric is reported on every workload; a layer that did
no work there reads 0, which is itself the prediction being checked
(``net.*`` and ``store.*`` on the simulator workloads, ``interp.*``
outside ``pool-script``).

``*_us`` rows are **self time per completed operation** summed over all
system-under-test processes, so they add: the rows of :data:`SELF_TIME`,
``budget.idle_us_per_op`` and ``budget.unaccounted_us_per_op`` sum to
``budget.e2e_us_per_op`` — process-time per operation, i.e. traced wall
time of the timed slices × number of processes ÷ operations.
"""

from __future__ import annotations

from stats import percentile

#: per-layer metric -> the span names whose self time it sums.
SELF_TIME = {
    "core.matching.resolve_us": ("core.matching.resolve",),
    "core.visibility.apply_us": ("core.visibility.apply",),
    "core.mailbox.deliver_us": ("core.mailbox.deliver", "core.mailbox.next_ready"),
    "runtime.events.queue_us": ("runtime.events.queue",),
    "runtime.system.run_us": ("runtime.system.run", "runtime.events.other"),
    "runtime.coordinator.send_us": ("runtime.coordinator.send",),
    "runtime.coordinator.deliver_us": ("runtime.coordinator.deliver",),
    "runtime.coordinator.process_us": ("runtime.coordinator.process",),
    "runtime.coordinator.vis_us": ("runtime.coordinator.vis_call",
                                   "runtime.coordinator.apply"),
    "runtime.bus.self_us": ("runtime.bus.submit", "runtime.bus.deliver",
                            "runtime.bus.sequence", "runtime.bus.redrive"),
    "behavior.invoke_us": ("behavior.invoke",),
    "interp.self_us": ("interp.tree", "interp.vm"),
    "net.codec.encode_us": ("net.codec.encode",),
    "net.codec.decode_us": ("net.codec.decode",),
    "net.peer.send_us": ("net.peer.send",),
    "net.runtime.deliver_us": ("net.runtime.on_frame",),
    "net.runtime.forward_us": ("net.runtime.forward",),
    "net.remote.self_us": ("net.remote.submit", "net.remote.on_submit",
                           "net.remote.on_op", "net.remote.on_sync_req"),
    "shard.router.route_us": ("shard.router.route",),
    "shard.map.owner_us": ("shard.map.owner",),
    "store.node_store.append_us": ("store.node_store.append",),
    "store.node_store.commit_us": ("store.node_store.commit",
                                   "store.segment.fsync"),
}
IDLE_SPAN = "host.idle"

#: Everything else a workload may fill in; absent means 0.
OTHER = (
    "core.matching.resolves_per_op", "core.matching.hit_ratio",
    "core.mailbox.wait_us", "core.mailbox.shed",
    "runtime.events.events_per_op",
    "runtime.bus.sequence_us", "runtime.bus.redrives",
    "runtime.failure.dead_letters", "runtime.admission.rejected",
    "interp.tree_us_per_invoke", "interp.vm_us_per_invoke",
    "interp.invokes_per_item",
    "net.codec.bytes_per_frame",
    "net.peer.send_queue_p50_us", "net.peer.send_queue_p95_us",
    "net.peer.frames_per_write", "net.peer.writes_per_op",
    "net.peer.credit_stalls", "net.peer.frames_shed",
    "net.peer.heartbeats_suppressed",
    "net.remote.submit_to_apply_us", "net.remote.forwarded_ratio",
    "net.remote.sync_reqs",
    "shard.router.fanned_ratio",
    "store.node_store.fsync_us", "store.node_store.fsyncs_per_op",
    "store.node_store.bytes_per_op", "store.recovery.load_ops_per_s",
    "budget.e2e_us_per_op", "budget.layers_us_per_op",
    "budget.idle_us_per_op", "budget.unaccounted_us_per_op",
    "budget.accounted_ratio",
    "harness.trace_overhead_ratio", "harness.slice_spread",
    "harness.rtt_p99_ms", "harness.visible_p99_ms",
)
ALL = tuple(SELF_TIME) + OTHER

_EVENT_SPANS = ("runtime.coordinator.deliver", "runtime.coordinator.process",
                "runtime.bus.deliver", "runtime.bus.sequence",
                "runtime.bus.redrive", "runtime.events.other")


def _self_ns(summary: dict, names) -> int:
    return sum(summary["spans"].get(name, (0, 0, 0))[1] for name in names)


def _calls(summary: dict, names) -> int:
    return sum(summary["spans"].get(name, (0, 0, 0))[0] for name in names)


def _wait_p50_us(summary: dict, name: str) -> float:
    wait = summary["waits"].get(name)
    if not wait:
        return 0.0
    return percentile(sorted(wait["samples_ns"]), 0.5) / 1e3


def layer_table(summary: dict, ops: int, process_seconds: float,
                sharded_bus_is_remote: bool) -> dict[str, float]:
    """Every per-layer metric derivable from spans alone (rest stay 0).

    ``process_seconds`` is traced wall time of the timed slices times
    the number of system-under-test processes.
    """
    table = dict.fromkeys(ALL, 0.0)
    per_op = 1e-3 / ops  # ns total -> us per op
    for metric, names in SELF_TIME.items():
        table[metric] = _self_ns(summary, names) * per_op

    table["core.matching.resolves_per_op"] = \
        _calls(summary, ("core.matching.resolve",)) / ops
    wait = summary["waits"].get("core.mailbox.wait")
    if wait and wait["count"]:
        table["core.mailbox.wait_us"] = wait["total_ns"] / wait["count"] / 1e3
    table["runtime.events.events_per_op"] = _calls(summary, _EVENT_SPANS) / ops
    table["runtime.bus.redrives"] = _calls(summary, ("runtime.bus.redrive",))
    sequence = _wait_p50_us(summary, "bus.submit_to_apply")
    if sharded_bus_is_remote:
        table["net.remote.submit_to_apply_us"] = sequence
    else:
        table["runtime.bus.sequence_us"] = sequence

    for engine in ("tree", "vm"):
        calls = _calls(summary, (f"interp.{engine}",))
        if calls:
            table[f"interp.{engine}_us_per_invoke"] = \
                _self_ns(summary, (f"interp.{engine}",)) / calls / 1e3
            # Only the script pool interprets, and its operation is an item.
            table["interp.invokes_per_item"] = \
                _calls(summary, ("behavior.invoke",)) / ops

    submits = _calls(summary, ("net.remote.submit",))
    if submits:
        table["net.remote.forwarded_ratio"] = \
            summary["counts"].get("net.remote.forwarded", 0) / submits
    table["net.remote.sync_reqs"] = _calls(summary, ("net.remote.on_sync_req",))
    routed = summary["counts"].get("shard.router.routed", 0)
    if routed:
        table["shard.router.fanned_ratio"] = \
            summary["counts"].get("shard.router.fanned", 0) / routed
    table["store.node_store.fsync_us"] = \
        _self_ns(summary, ("store.segment.fsync",)) * per_op
    table["store.node_store.fsyncs_per_op"] = \
        _calls(summary, ("store.segment.fsync",)) / ops

    e2e = process_seconds * 1e6 / ops
    layers = sum(table[metric] for metric in SELF_TIME)
    idle = _self_ns(summary, (IDLE_SPAN,)) * per_op
    table["budget.e2e_us_per_op"] = e2e
    table["budget.layers_us_per_op"] = layers
    table["budget.idle_us_per_op"] = idle
    table["budget.unaccounted_us_per_op"] = e2e - idle - layers
    table["budget.accounted_ratio"] = layers / (e2e - idle) if e2e > idle else 0.0
    return table


def hub_table(before: list[dict], after: list[dict], ops: int,
              heartbeats_suppressed: int) -> dict[str, float]:
    """The ``net.peer``/``net.codec`` count rows, from hub snapshot deltas."""
    def delta(key: str) -> int:
        return sum(a[key] - b[key] for a, b in zip(after, before))

    frames, writes = delta("frames_out"), delta("writes")
    # Stage histograms are whole-run reservoirs; take the busiest node's.
    stage = max((hub["stage_latency"]["send_queue"] for hub in after),
                key=lambda s: s["count"])
    return {
        "net.codec.bytes_per_frame": delta("bytes_out") / frames if frames else 0.0,
        "net.peer.send_queue_p50_us": stage["p50"] * 1e6,
        "net.peer.send_queue_p95_us": stage["p95"] * 1e6,
        "net.peer.frames_per_write": frames / writes if writes else 0.0,
        "net.peer.writes_per_op": writes / ops,
        "net.peer.credit_stalls": sum(
            a["credit"]["stalls"] - b["credit"]["stalls"]
            for a, b in zip(after, before)),
        "net.peer.frames_shed": delta("frames_shed"),
        "net.peer.heartbeats_suppressed": heartbeats_suppressed,
    }
