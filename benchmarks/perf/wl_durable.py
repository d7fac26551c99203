"""``vis-durable-tcp``: a visibility change that has to reach the disk.

Two node processes, ``--data-dir``, ``--fsync commit``, ``--shards 2``,
``--snapshot-interval 0``.  Two spaces are probed onto shard 0 (seat on
node 0) and shard 1 (seat on node 1); each node hosts four churn actors,
all in the space whose sequencer sits on the *other* node, so every
operation crosses the wire as ``SHARD_FWD``, is sequenced and fsynced
there, comes back as ``BUS_OP`` and is fsynced again here.  Eight closed
loops run at once, each: ``change_attributes(self, a)`` then
``send(a@space, probe)`` to itself — the probe stays suspended (§5.6)
until the change has been applied at this node.

(Seat-local operations are about four times quicker.  Mixing them in
would give two populations of loops that finish at different times and a
latency median sitting on the gap between two modes; the remote path
contains the local one, so nothing is left unmeasured.)

Then the whole cluster is SIGKILLed and respawned from disk alone,
``RECOVERIES`` times.

Metrics: ``ops_per_s`` visibility ops completed per second by all eight
loops; ``op_p50_ms`` call → own probe received;
``alt_ops_per_s`` persisted ops restored per second of recovery
(``respawn_all()`` → every node's ``applied_seq`` back at its pre-kill
value).
"""

from __future__ import annotations

import random
import time
from pathlib import Path

from repro.shard.map import ShardMap
from repro.store.node_store import load_data_dir

import harness
import layers
from stats import median, percentile, spread
from harness import Result, Timed, scaled

NODES = 2
SHARDS = 2
LOOPS_PER_NODE = 4
#: Operations per loop per slice (eight loops run concurrently).
SLICE_OPS = 40
#: Timed slices.  Many short ones instead of the usual seven long ones:
#: two processes that block in fsync on one shared core feel every burst
#: of a neighbour's load, and with a neighbour busy half the time the
#: best of seven 1 s slices spread 24 % between runs while the best of
#: fifty 0.25 s slices (the same seconds in total) spread 8 %.
SLICES = 50
SETUPS = 3
RECOVERIES = 5
NODE_ARGS = ["--fsync", "commit", "--snapshot-interval", "0"]


def _shard_atoms(rng: random.Random) -> list[str]:
    """One root atom homed on each shard, in shard order."""
    probe = ShardMap(SHARDS)
    atoms: dict[int, str] = {}
    while len(atoms) < SHARDS:
        atom = f"dur{rng.randrange(10**6)}"
        atoms.setdefault(probe.owner_of(atom), atom)
    return [atoms[k] for k in range(SHARDS)]


def _build(seed: int, traced: bool, tag: str):
    rng = random.Random(seed)
    run_dir = harness.new_run_dir(tag)
    driver = harness.TcpDriver(
        NODES, seed, run_dir, traced, shards=SHARDS,
        data_dir=run_dir / "data", node_args=NODE_ARGS)
    try:
        spaces = [driver.create_space(atom, node=shard % NODES)
                  for shard, atom in enumerate(_shard_atoms(rng))]
        loops = []
        for node in range(NODES):
            space = spaces[(node + 1) % NODES]  # sequenced on the other node
            for index in range(LOOPS_PER_NODE):
                prefix = f"c{node}x{index}n{rng.randrange(10**6)}"
                loops.append(driver.create_actor(
                    "perf_vis_churn", {"space": space, "prefix": prefix}, node,
                    visible={"attributes": f"{prefix}/init", "space": space}))
        driver.settle()
        first = driver.go(loops, ("go", 1, 1))
        driver.expected_ops += len(loops)
        if harness.load_failures(first):
            raise harness.CheckFailed("first visibility op never became visible")
    except BaseException:
        driver.close()
        raise
    return driver, loops, run_dir / "data"


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def _slice(driver, loops, ops: int, result: Result) -> tuple[float, list]:
    """All loops do ``ops`` operations each, starting together.

    Returns the seconds from the first loop's start to the last one's
    finish (the loops stamp one system-wide monotonic clock) and every
    latency sample in milliseconds.
    """
    states = driver.go(loops, ("go", ops, 1))
    driver.expected_ops += ops * len(loops)
    result.offered(ops * len(loops), harness.load_failures(states))
    wall = harness.slice_seconds(states)
    latencies = [sample for address in loops for sample in
                 driver.state(address, ["latencies_ms"])["latencies_ms"]]
    return wall, latencies


def run(name: str, seed: int, scale: float, traced: bool, recorder,
        spans_dir=None) -> Result:
    result = Result(name, seed, scale, traced, slices=SLICES)
    setups = []
    driver = None
    for attempt in range(1 if traced else SETUPS):
        if driver is not None:
            driver.close()
        started = time.perf_counter()
        driver, loops, data_dir = _build(seed, traced, f"setup{attempt}")
        setups.append(time.perf_counter() - started)
    try:
        _measure(result, driver, loops, data_dir, scale, traced, spans_dir)
    finally:
        driver.close()
    if traced:
        # Offline read of what the run itself persisted (nodes are down).
        started = time.perf_counter()
        loaded = sum(len(load_data_dir(str(shard_dir)).ops)
                     for shard_dir in sorted(data_dir.glob("node*/shard-*")))
        result.metric("store.recovery.load_ops_per_s",
                      loaded / (time.perf_counter() - started))
    else:
        result.metric("setup_s", median(setups), samples=len(setups),
                      slices=setups)
    return result


def _measure(result, driver, loops, data_dir, scale, traced, spans_dir):
    fraction = harness.TRACED_FRACTION if traced else 1.0
    ops = scaled(SLICE_OPS * fraction, scale)
    slice_ops = ops * len(loops)
    _slice(driver, loops, ops, result)

    baseline = None
    if traced:
        baseline = max(slice_ops / _slice(driver, loops, ops, result)[0]
                       for _ in range(harness.BASELINE_SLICES))
        hubs_before = driver.hub_snapshots()
        harness.start_tracing(driver)

    bytes_before = _dir_bytes(data_dir)
    timed = Timed(driver.pids)
    walls, slice_p50_ms, latencies_ms = [], [], []
    for _ in range(SLICES):
        with timed:
            wall, samples = _slice(driver, loops, ops, result)
        walls.append(wall)
        slice_p50_ms.append(percentile(sorted(samples), 0.5))
        latencies_ms += samples
    latencies_ms.sort()
    completed = SLICES * slice_ops
    rates = [slice_ops / wall for wall in walls]

    if traced:
        table = harness.traced_table(driver, spans_dir, completed,
                                     timed.wall_s, remote_bus=True)
        suppressed = sum(
            driver.cluster.call(node, "status")["heartbeats_suppressed"]
            for node in range(driver.nodes))
        table.update(layers.hub_table(hubs_before, driver.hub_snapshots(),
                                      completed, suppressed))
        table["harness.trace_overhead_ratio"] = max(rates) / baseline
        table["harness.slice_spread"] = spread(rates)
        table["harness.visible_p99_ms"] = percentile(latencies_ms, 0.99)
        table["store.node_store.bytes_per_op"] = \
            (_dir_bytes(data_dir) - bytes_before) / completed
        hits, misses = driver.resolution_counts()
        table["core.matching.hit_ratio"] = \
            hits / (hits + misses) if hits + misses else 0.0
        result.table(table)
    else:
        result.fastest("ops_per_s", slice_ops, walls)
        result.quickest("op_p50_ms", slice_p50_ms, samples=len(latencies_ms))
        result.quickest("cpu_us_per_op",
                        [cpu * 1e6 / slice_ops for cpu in timed.cpu_blocks],
                        samples=SLICES)
        result.metric("peak_rss_mb", harness.peak_rss_mb(driver.pids))
        result.notes["visible_p50_ms_pooled"] = percentile(latencies_ms, 0.5)
        result.notes["visible_p99_ms"] = percentile(latencies_ms, 0.99)

    failures = driver.failure_counts()
    applied = driver.applied()
    result.check("applied_seq_equal_and_complete",
                 all(n == driver.expected_ops for n in applied))
    result.check("replicas_coherent", driver.coherent())
    result.check("no_dead_letters_shed_or_rejected", not any(failures.values()))
    result.offered(0, sum(failures.values()))

    if not traced:
        _recover(result, driver, applied)


def _recover(result: Result, driver, applied: list[int]) -> None:
    """Kill everything, restart from disk, time the catch-up; repeat."""
    cluster = driver.cluster
    before = cluster.call(0, "directory")["snapshot"]
    rates = []
    for _ in range(RECOVERIES):
        cluster.kill_all()
        started = time.perf_counter()
        cluster.respawn_all()
        cluster.wait_until(lambda: driver.applied() == applied,
                           timeout=60.0, interval=0.005,
                           what="applied_seq restored from disk")
        rates.append(sum(applied) / (time.perf_counter() - started))
        result.check("directory_survives_recovery", all(
            cluster.call(node, "directory")["snapshot"] == before
            for node in range(driver.nodes)))
    result.metric("alt_ops_per_s", max(rates), samples=len(rates),
                  slices=rates)
    result.notes["recover_s"] = sum(applied) / max(rates)
