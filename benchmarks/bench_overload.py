"""Overload drill: open-loop flood at 2-10x capacity, sim and TCP.

A closed-loop pump (the ``rpc-*`` workloads of ``benchmarks/perf``) has
offered load track service rate by construction, so it can never
overload anything.  This drill does the opposite on purpose: an :class:`OverloadPumpBehavior` offers a *fixed*
rate at a sink whose capacity is known (``processing_delay`` in the
simulator, a ``busy_ms`` busy-wait on TCP), at multiples of that
capacity, and then checks that the overload-protection stack holds the
line:

* **bounded memory** — the sink's invocation port never exceeds its
  mailbox capacity, link send buffers stay under ``max_pending_bytes``,
  and process RSS stays under an explicit ceiling;
* **bounded latency for admitted traffic** — in the simulator the
  worst-case wait of an admitted envelope is ``peak_depth x service``
  by construction (reported); on TCP a concurrent closed-loop probe
  against an *unflooded* actor on the overloaded node measures the real
  p50/p99 an admitted message sees while the flood runs;
* **zero silent drops** — at quiescence every offered envelope is
  accounted for: ``delivered + expired == offered``.  Shed mail parks
  in the dead-letter queue and either re-levels into the sink or
  expires visibly; nothing vanishes.

Run directly (not under pytest)::

    PYTHONPATH=src python benchmarks/bench_overload.py [--quick]

Emits ``BENCH_overload.json`` next to this file and a table on stdout.
``--max-rss-mb`` / ``--max-admitted-p99-ms`` exit non-zero on violation
— CI uses them to keep overload protection from regressing.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.net.cluster import LocalCluster, loopback_available  # noqa: E402
from repro.net.registry import (  # noqa: E402
    OverloadPumpBehavior,
    OverloadSinkBehavior,
)
from repro.runtime.network import Topology  # noqa: E402
from repro.runtime.system import ActorSpaceSystem  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
NODES = 3
MULTIPLIERS = [2, 4, 10]
#: Sink service rate in the simulator: 1 / processing_delay.
SIM_SERVICE_RATE = 500.0
#: TCP sink busy-wait per message; service rate is at most 1000/busy_ms.
TCP_BUSY_MS = 2.0
MAILBOX_CAPACITY = 64
PUMP_TICK = 0.01


def _self_rss_mb() -> float:
    """This process's peak RSS in MiB (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _proc_peak_rss_mb(pid: int) -> float | None:
    """Peak RSS of another live process via /proc (Linux only)."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        pass
    return None


# -- simulator side ---------------------------------------------------------------

def bench_sim(multipliers: list[int], seconds: float) -> list[dict]:
    """Flood a bounded mailbox at ``m x`` capacity in virtual time.

    Runs with drop-oldest shedding plus the circuit breaker, stepping
    the clock in slices to probe the sink's queue depth — the bounded-
    memory claim is checked *during* the flood, not just after it.
    """
    rows = []
    for multiplier in multipliers:
        offered_rate = multiplier * SIM_SERVICE_RATE
        total = int(offered_rate * seconds)
        system = ActorSpaceSystem(
            topology=Topology.lan(NODES), seed=0,
            processing_delay=1.0 / SIM_SERVICE_RATE,
            mailbox_capacity=MAILBOX_CAPACITY,
            mailbox_policy="drop-oldest",
            breaker_threshold=MAILBOX_CAPACITY,
            breaker_window=0.25,
            breaker_cooldown=0.1,
        )
        sink = OverloadSinkBehavior()
        sink_addr = system.create_actor(sink, node=1)
        pump = OverloadPumpBehavior(
            sink_addr, total=total,
            burst=max(1, int(offered_rate * PUMP_TICK)), tick=PUMP_TICK)
        pump_addr = system.create_actor(pump, node=0)
        system.send_to(pump_addr, ("go",))

        record = system.actor_record(sink_addr)
        peak_invocation = peak_pending = 0
        horizon = 0.0
        while not system.idle:
            horizon += 0.05
            if horizon > 600.0:
                raise RuntimeError("sim overload drill failed to quiesce")
            system.run(until=horizon)
            peak_invocation = max(peak_invocation,
                                  len(record.mailbox._invocation))
            peak_pending = max(peak_pending, record.mailbox.pending)

        delivered = sink.count
        expired = system.dead_letters.expired_total
        assert pump.done and pump.sent == total
        # Zero silent drops: every offered envelope is accounted for.
        assert delivered + expired == total, \
            f"accounting leak: {delivered} + {expired} != {total}"
        # Bounded memory: the invocation port respected its bound and
        # nothing is still parked.
        assert peak_invocation <= MAILBOX_CAPACITY
        assert system.dead_letters.pending() == 0
        rows.append({
            "transport": "sim",
            "multiplier": multiplier,
            "offered_msgs_per_s": offered_rate,
            "offered_total": total,
            "delivered": delivered,
            "shed_mailbox": record.mailbox.shed_count,
            "expired": expired,
            "admission": system.admission.metrics(),
            "peak_invocation_depth": peak_invocation,
            "peak_mailbox_pending": peak_pending,
            # An admitted envelope waits at most depth x service time.
            "admitted_wait_bound_ms": round(
                peak_invocation * 1000.0 / SIM_SERVICE_RATE, 3),
            "goodput_fraction": round(delivered / total, 4),
        })
    return rows


# -- TCP loopback side ------------------------------------------------------------

def bench_tcp(multipliers: list[int], seconds: float,
              probe_total: int) -> list[dict]:
    """The same flood across real node processes, plus a latency probe.

    The flood runs pump(node 0) -> busy-wait sink(node 1); a concurrent
    closed-loop probe runs node 2 -> a second, unflooded actor on node 1
    and reports the p50/p99 an *admitted* message experiences while the
    node is saturated.  The probe targets its own actor so shedding at
    the flooded sink can never strand it waiting for an ack.
    """
    service_rate = 1000.0 / TCP_BUSY_MS
    # The breaker matters for the drill's own runtime, not just realism:
    # without it every drop-oldest victim re-levels out of the DLQ until
    # it finally lands, so the post-flood drain costs total x busy_ms.
    # With it, the destination node refuses redeliveries while saturated
    # and refused envelopes (attempts preserved) expire in bounded time.
    cluster = LocalCluster(
        NODES, seed=0, trace=False,
        node_args=["--mailbox-capacity", str(MAILBOX_CAPACITY),
                   "--mailbox-policy", "drop-oldest",
                   "--breaker-threshold", str(MAILBOX_CAPACITY)])
    cluster.start()
    rows = []
    try:
        expired_before = 0
        for multiplier in multipliers:
            offered_rate = multiplier * service_rate
            total = int(offered_rate * seconds)
            sink = cluster.call(
                1, "create_actor", behavior="overload_sink",
                params={"busy_ms": TCP_BUSY_MS})["address"]
            probe_sink = cluster.call(
                1, "create_actor", behavior="load_sink", params={})["address"]
            pump = cluster.call(
                0, "create_actor", behavior="overload_pump",
                params={"target": sink, "total": total, "tick": PUMP_TICK,
                        "burst": max(1, int(offered_rate * PUMP_TICK))},
            )["address"]
            probe = cluster.call(
                2, "create_actor", behavior="load_pump",
                params={"target": probe_sink, "total": probe_total,
                        "window": 1})["address"]
            cluster.call(0, "send_to", target=pump, payload=("go",))
            cluster.call(2, "send_to", target=probe, payload=("go",))
            cluster.wait_until(
                lambda: cluster.call(0, "actor_state", address=pump,
                                     attrs=["done"])["done"],
                timeout=180, interval=0.1,
                what=f"overload pump x{multiplier} finished offering")
            cluster.wait_until(
                lambda: cluster.call(2, "actor_state", address=probe,
                                     attrs=["done"])["done"],
                timeout=180, interval=0.1,
                what=f"admitted-latency probe x{multiplier} drained")

            def accounted() -> bool:
                if any(cluster.call(n, "status")["dlq_pending"]
                       for n in range(NODES)):
                    return False
                done = cluster.call(1, "actor_state", address=sink,
                                    attrs=["count"])["count"]
                late = sum(cluster.call(n, "dlq")["expired"]
                           for n in range(NODES)) - expired_before
                return done + late >= total

            cluster.wait_until(accounted, timeout=240, interval=0.2,
                               what=f"overload x{multiplier} accounting closed")

            delivered = cluster.call(1, "actor_state", address=sink,
                                     attrs=["count"])["count"]
            expired_total = sum(cluster.call(n, "dlq")["expired"]
                                for n in range(NODES))
            expired = expired_total - expired_before
            expired_before = expired_total
            assert delivered + expired == total, \
                f"accounting leak: {delivered} + {expired} != {total}"
            probe_stats = cluster.call(
                2, "actor_state", address=probe,
                attrs=["p50_ms", "p99_ms", "throughput"])
            status1 = cluster.call(1, "status")
            hub0 = cluster.call(0, "snapshot", events=False)["hub"]
            rss = [_proc_peak_rss_mb(p.pid) for p in cluster.procs.values()]
            rows.append({
                "transport": "tcp-loopback",
                "multiplier": multiplier,
                "offered_msgs_per_s": offered_rate,
                "offered_total": total,
                "delivered": delivered,
                "expired": expired,
                "mailbox_shed_node1": status1["mailbox_shed"],
                "admission_node1": status1["admission"],
                "wire_frames_shed_node0": hub0["frames_shed"],
                "credit": hub0["credit"],
                "send_buffer_peak_bytes_node0": hub0["queue_peak_bytes"],
                "admitted_p50_ms": round(probe_stats["p50_ms"], 3),
                "admitted_p99_ms": round(probe_stats["p99_ms"], 3),
                "goodput_fraction": round(delivered / total, 4),
                "node_peak_rss_mb": [round(r, 1) for r in rss
                                     if r is not None],
            })
    finally:
        cluster.shutdown()
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--multipliers", type=int, nargs="+",
                        default=MULTIPLIERS,
                        help=f"offered load as a multiple of sink capacity "
                             f"(default {MULTIPLIERS})")
    parser.add_argument("--seconds", type=float, default=2.0,
                        help="flood duration per sweep point (default 2.0)")
    parser.add_argument("--probe-total", type=int, default=300,
                        help="closed-loop probe round trips per TCP point")
    parser.add_argument("--quick", action="store_true",
                        help="small counts for smoke runs")
    parser.add_argument("--max-rss-mb", type=float, default=None,
                        help="fail if any process's peak RSS exceeds this")
    parser.add_argument("--max-admitted-p99-ms", type=float, default=None,
                        help="fail if the TCP admitted-traffic p99 "
                             "exceeds this at any multiplier")
    parser.add_argument("--out", default=str(HERE / "BENCH_overload.json"),
                        help="output JSON path")
    args = parser.parse_args(argv)
    seconds = 0.8 if args.quick else args.seconds
    probe_total = 100 if args.quick else args.probe_total

    rows = bench_sim(args.multipliers, seconds)
    if loopback_available():
        rows.extend(bench_tcp(args.multipliers, seconds, probe_total))
    else:
        print("loopback TCP unavailable; emitting simulator rows only")
    launcher_rss = _self_rss_mb()

    header = (f"{'transport':<14} {'xcap':>5} {'offered':>8} {'deliv':>7} "
              f"{'expired':>8} {'goodput':>8} {'p99 ms':>8}")
    print(header)
    print("-" * len(header))
    for row in rows:
        p99 = row.get("admitted_p99_ms", row.get("admitted_wait_bound_ms"))
        print(f"{row['transport']:<14} {row['multiplier']:>5} "
              f"{row['offered_total']:>8} {row['delivered']:>7} "
              f"{row['expired']:>8} {row['goodput_fraction']:>8} {p99:>8}")

    tcp_rows = [r for r in rows if r["transport"] == "tcp-loopback"]
    worst_p99 = max((r["admitted_p99_ms"] for r in tcp_rows), default=None)
    peak_rss = max([launcher_rss]
                   + [r for row in tcp_rows
                      for r in row.get("node_peak_rss_mb", [])])
    report = {
        "nodes": NODES,
        "multipliers": args.multipliers,
        "seconds_per_point": seconds,
        "mailbox_capacity": MAILBOX_CAPACITY,
        "sim_service_rate": SIM_SERVICE_RATE,
        "tcp_busy_ms": TCP_BUSY_MS,
        "worst_admitted_p99_ms": worst_p99,
        "launcher_peak_rss_mb": round(launcher_rss, 1),
        "peak_rss_mb": round(peak_rss, 1),
        "results": rows,
    }
    pathlib.Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {args.out}")
    print(f"peak RSS (launcher+nodes): {peak_rss:.1f} MB"
          + (f"; worst admitted p99: {worst_p99} ms" if worst_p99 else ""))

    failed = False
    if args.max_rss_mb is not None and peak_rss > args.max_rss_mb:
        print(f"FAIL: peak RSS {peak_rss:.1f} MB exceeds "
              f"{args.max_rss_mb} MB")
        failed = True
    if args.max_admitted_p99_ms is not None and worst_p99 is not None \
            and worst_p99 > args.max_admitted_p99_ms:
        print(f"FAIL: admitted p99 {worst_p99} ms exceeds "
              f"{args.max_admitted_p99_ms} ms")
        failed = True
    if not failed and (args.max_rss_mb is not None
                       or args.max_admitted_p99_ms is not None):
        print("OK: overload gates hold (bounded memory, bounded admitted "
              "p99, zero silent drops)")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
