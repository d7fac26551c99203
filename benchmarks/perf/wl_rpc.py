"""``rpc-sim`` and ``rpc-tcp``: the pattern-directed message path.

64 sinks, visible as ``w<k>/r<i>`` (8 groups of 8) in one space ``svc``,
all on node 1; a pump on node 0 sends ``w<k>/*@svc`` cycling ``k`` and
each sink acks by address.  Every request is resolved by
``Coordinator._resolve`` against an 8-entry working set, so the
resolution cache always hits: this is the message path with the
visibility plane read-only.

* phase A — window 1: the unloaded round trip (``op_p50_ms``);
* phase B — window 64: the loaded throughput (``ops_per_s``);
* phase C — broadcast to one 8-member group, 4 rounds outstanding, a
  round completing when all 8 acks are in (``alt_ops_per_s`` counts
  acknowledged deliveries).

The two workloads are the same code on two drivers; their difference
*is* the wire (codec, peer queues, sockets, a second process).
"""

from __future__ import annotations

import random
import time

import harness
import layers
from stats import median, percentile, spread
from harness import SLICES, Result, Timed, scaled

GROUPS = 8
GROUP_SIZE = 8
SPACE = "svc"
WINDOWS = {"A": 1, "B": 64, "C": 4}
#: Operations per timed slice at scale 1 (a broadcast round is one op of
#: phase C).  Fixed counts, never durations: two commits do equal work.
SLICE_OPS = {
    "rpc-sim": {"A": 6000, "B": 6000, "C": 800},
    "rpc-tcp": {"A": 800, "B": 3500, "C": 350},
}
#: Set-ups timed per pass (the last one is kept and measured on).
SETUPS = {"rpc-sim": 25, "rpc-tcp": 4}


def _build(name: str, seed: int, traced: bool, recorder, tag: str):
    """Spawn, link, populate and complete one first request."""
    rng = random.Random(seed)
    if name == "rpc-sim":
        driver = harness.SimDriver(2, seed, recorder)
    else:
        driver = harness.TcpDriver(2, seed, harness.new_run_dir(tag), traced)
    try:
        space = driver.create_space(SPACE)
        members = list(range(GROUPS * GROUP_SIZE))
        rng.shuffle(members)  # which sink lands in which group
        sinks = [
            driver.create_actor(
                "perf_sink", {}, node=1,
                visible={"attributes": f"w{index % GROUPS}/r{member}",
                         "space": space})
            for index, member in enumerate(members)]
        order = list(range(GROUPS))
        rng.shuffle(order)  # the order groups are cycled in
        pump = driver.create_actor("perf_pump", {
            "destinations": [f"w{k}/*@{SPACE}" for k in order]}, node=0)
        bcast = driver.create_actor("perf_pump", {
            "destinations": [f"w{order[0]}/*@{SPACE}"], "mode": "broadcast",
            "fanout": GROUP_SIZE}, node=0)
        driver.settle()
        first = driver.go([pump], ("go", 1, 1))
        if harness.load_failures(first):
            raise harness.CheckFailed("first request was not acknowledged")
    except BaseException:
        driver.close()
        raise
    return driver, sinks, {"A": pump, "B": pump, "C": bcast}


def run(name: str, seed: int, scale: float, traced: bool, recorder,
        spans_dir=None) -> Result:
    result = Result(name, seed, scale, traced)
    setups = []
    driver = None
    for attempt in range(1 if traced else SETUPS[name]):
        if driver is not None:
            driver.close()
        started = time.perf_counter()
        driver, sinks, pumps = _build(name, seed, traced, recorder,
                                      f"setup{attempt}")
        setups.append(time.perf_counter() - started)
    try:
        _measure(result, name, driver, sinks, pumps, scale, traced, spans_dir)
    finally:
        driver.close()
    if not traced:
        result.metric("setup_s", median(setups), samples=len(setups),
                      slices=setups)
    return result


def _measure(result, name, driver, sinks, pumps, scale, traced, spans_dir):
    fraction = harness.TRACED_FRACTION if traced else 1.0
    ops = {phase: scaled(count * fraction, scale)
           for phase, count in SLICE_OPS[name].items()}
    offered = 1  # deliveries expected at the sinks; the set-up made one

    def one_slice(phase: str) -> list[dict]:
        nonlocal offered
        states = driver.go([pumps[phase]], ("go", ops[phase], WINDOWS[phase]))
        result.offered(ops[phase], harness.load_failures(states))
        offered += ops[phase] * (GROUP_SIZE if phase == "C" else 1)
        return states

    for phase in "ABC":  # one untimed slice each: caches, links, allocator
        one_slice(phase)
    if traced:
        baseline = max(ops["B"] / harness.slice_seconds(one_slice("B"))
                       for _ in range(harness.BASELINE_SLICES))
        hubs_before = driver.hub_snapshots() if name == "rpc-tcp" else None
        harness.start_tracing(driver)

    hits0, misses0 = driver.resolution_counts()
    timed = Timed(driver.pids)
    slice_s = {phase: [] for phase in "ABC"}
    rtt_slice_p50_ms, rtts_ms = [], []
    # Phases take turns, one slice at a time, so each phase's seven
    # slices sample the whole run rather than one stretch of it.
    for _ in range(SLICES):
        for phase in "ABC":
            with timed:
                states = one_slice(phase)
            slice_s[phase].append(harness.slice_seconds(states))
            if phase == "A":
                rtt_slice_p50_ms.append(states[0]["p50_ms"])
                rtts_ms.extend(driver.state(
                    pumps["A"], ["latencies_ms"])["latencies_ms"])
    rtts_ms.sort()
    hits1, misses1 = driver.resolution_counts()

    round_ops = ops["A"] + ops["B"] + ops["C"] * GROUP_SIZE
    completed = SLICES * round_ops
    if traced:
        table = harness.traced_table(driver, spans_dir, completed, timed.wall_s)
        if name == "rpc-tcp":
            suppressed = sum(
                driver.cluster.call(node, "status")["heartbeats_suppressed"]
                for node in range(driver.nodes))
            table.update(layers.hub_table(hubs_before, driver.hub_snapshots(),
                                          completed, suppressed))
        rates = [ops["B"] / s for s in slice_s["B"]]
        table["harness.trace_overhead_ratio"] = max(rates) / baseline
        table["harness.slice_spread"] = spread(rates)
        table["harness.rtt_p99_ms"] = percentile(rtts_ms, 0.99)
        lookups = (hits1 - hits0) + (misses1 - misses0)
        table["core.matching.hit_ratio"] = \
            (hits1 - hits0) / lookups if lookups else 0.0
        result.table(table)
    else:
        result.fastest("ops_per_s", ops["B"], slice_s["B"])
        result.quickest("op_p50_ms", rtt_slice_p50_ms, samples=len(rtts_ms))
        result.fastest("alt_ops_per_s", ops["C"] * GROUP_SIZE, slice_s["C"])
        cpu = timed.cpu_blocks  # one block per slice, three slices a round
        result.quickest(
            "cpu_us_per_op",
            [sum(cpu[i:i + 3]) * 1e6 / round_ops for i in range(0, len(cpu), 3)],
            samples=SLICES)
        result.metric("peak_rss_mb", harness.peak_rss_mb(driver.pids))
        result.notes["rtt_p50_ms_pooled"] = percentile(rtts_ms, 0.5)
        result.notes["rtt_p99_ms"] = percentile(rtts_ms, 0.99)

    # Conservation: every request offered was delivered to exactly one
    # sink (eight for a broadcast round); nothing shed, dead-lettered or
    # refused along the way.
    delivered = sum(driver.state(sink, ["count"])["count"] for sink in sinks)
    failures = driver.failure_counts()
    result.check("conservation", delivered == offered)
    result.check("no_dead_letters_shed_or_rejected",
                 not any(failures.values()))
    result.check("replicas_coherent", driver.coherent())
    result.offered(0, sum(failures.values()) + abs(offered - delivered))
