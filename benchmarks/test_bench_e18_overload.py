"""E18 — beyond the paper: surviving overload.

Section 4 guarantees delivery; it says nothing about an actor offered
more mail than it can drain.  An open-loop pump — one that keeps
offering at a fixed rate whatever the sink does — floods a sink of known
capacity (``1 / processing_delay``) at 2x, 4x and 10x that capacity,
with bounded mailboxes (drop-oldest) and the per-destination circuit
breaker on.  The clock is stepped in slices so the mailbox is probed
*during* the flood, not only after it.

Claims regenerated, at every sweep point:
* zero silent drops — at quiescence ``delivered + expired == offered``;
* bounded memory — the sink's invocation port never holds more than its
  capacity, and nothing is left parked in the dead-letter queue;
* graceful degradation — goodput falls as offered load rises, and an
  admitted envelope waits at most ``peak depth x service time``.

The same flood over real sockets is checked by
``tests/net/test_cluster.py::test_an_open_loop_flood_loses_nothing_silently``.
"""

from repro.net.registry import OverloadPumpBehavior, OverloadSinkBehavior
from repro.runtime.network import Topology
from repro.runtime.system import ActorSpaceSystem
from repro.util import TextTable

from .common import emit

NODES = 3
SERVICE_RATE = 500.0  # sink capacity in msgs/s: 1 / processing_delay
CAPACITY = 64         # mailbox bound, and the breaker's shed threshold
SECONDS = 2.0         # flood duration per sweep point
TICK = 0.01           # pump period
MULTIPLIERS = (2, 4, 10)


def _flood(multiplier):
    offered_rate = multiplier * SERVICE_RATE
    total = int(offered_rate * SECONDS)
    system = ActorSpaceSystem(
        topology=Topology.lan(NODES), seed=0,
        processing_delay=1.0 / SERVICE_RATE,
        mailbox_capacity=CAPACITY, mailbox_policy="drop-oldest",
        breaker_threshold=CAPACITY, breaker_window=0.25,
        breaker_cooldown=0.1)
    sink = OverloadSinkBehavior()
    sink_addr = system.create_actor(sink, node=1)
    pump = OverloadPumpBehavior(sink_addr, total=total,
                                burst=max(1, int(offered_rate * TICK)),
                                tick=TICK)
    system.send_to(system.create_actor(pump, node=0), ("go",))

    mailbox = system.actor_record(sink_addr).mailbox
    peak_depth = 0
    horizon = 0.0
    while not system.idle:
        horizon += 0.05
        assert horizon <= 600.0, "the flood never quiesced"
        system.run(until=horizon)
        peak_depth = max(peak_depth, len(mailbox._invocation))

    expired = system.dead_letters.expired_total
    assert pump.done and pump.sent == total
    assert sink.count + expired == total, \
        f"accounting leak: {sink.count} + {expired} != {total}"
    assert peak_depth <= CAPACITY
    assert system.dead_letters.pending() == 0
    return {
        "offered": total,
        "delivered": sink.count,
        "shed": mailbox.shed_count,
        "refused": system.admission.rejected_breaker,
        "expired": expired,
        "goodput": sink.count / total,
        "peak_depth": peak_depth,
        "wait_bound_ms": peak_depth * 1000.0 / SERVICE_RATE,
    }


def test_bench_e18_overload(benchmark):
    table = TextTable(
        ["x capacity", "offered", "delivered", "mailbox shed",
         "breaker refusals", "expired", "goodput", "peak depth",
         "admitted wait bound (ms)"],
        title=f"E18: open-loop flood of a {SERVICE_RATE:.0f} msg/s sink, "
              f"{SECONDS} s per point, mailbox {CAPACITY} (drop-oldest) "
              f"+ circuit breaker",
    )
    goodputs = []
    for multiplier in MULTIPLIERS:
        r = _flood(multiplier)
        goodputs.append(r["goodput"])
        table.add_row([
            multiplier, r["offered"], r["delivered"], r["shed"],
            r["refused"], r["expired"], f"{r['goodput']:.4f}",
            r["peak_depth"], r["wait_bound_ms"],
        ])
    emit("e18_overload", table)
    assert all(a > b for a, b in zip(goodputs, goodputs[1:])), goodputs
    benchmark(lambda: _flood(2))
