"""``churn-sim``: visibility writes beside pattern reads.

Simulator, 3 nodes, 4 visibility shards, no store.  512 sink actors live
in 8 spaces whose root atoms are probed so every shard homes two of
them.  One *cycle* is:

1. one visibility operation through the driver API, run to quiescence —
   rotating ``change_attributes`` / ``make_invisible`` / ``make_visible``
   (the last re-shows what the previous cycle hid), submitted at the
   actor's own node so origins vary;
2. four pattern sends from node 0, run to quiescence — one into the
   space just touched (its cached resolution is now stale and must be
   re-walked) and three into other spaces (cached resolutions that only
   need revalidating against epochs).

So exactly one resolution in four misses: ``core.matching.hit_ratio`` is
0.75 by construction, and the workload fails if it is not.  This is the
layer ``rpc-sim`` uses read-only, under writes: a cache change that
speeds hits but slows invalidation shows here.

Metrics: ``ops_per_s`` cycles per second; ``op_p50_ms`` visibility call
→ quiescence (applied on every replica); ``alt_ops_per_s`` pattern sends
delivered per second of message-path time (send → quiescence).
"""

from __future__ import annotations

import random
import time

from repro.core.messages import Destination
from repro.shard.map import ShardMap

import harness
from stats import median, percentile, spread
from harness import SLICES, Result, Timed, scaled

NODES = 3
SHARDS = 4
FAMILIES = 8
ACTORS = 512
GROUPS = 4  # attribute groups per space; sends target one of them
SENDS = 4
SLICE_CYCLES = 3600
SETUPS = 15


def _family_atoms(rng: random.Random) -> list[str]:
    """Root atoms for the spaces, ``FAMILIES / SHARDS`` homed on each shard."""
    probe = ShardMap(SHARDS)
    per_shard = FAMILIES // SHARDS
    homed: dict[int, list[str]] = {k: [] for k in range(SHARDS)}
    while any(len(atoms) < per_shard for atoms in homed.values()):
        atom = f"fam{rng.randrange(10**6)}"
        bucket = homed[probe.owner_of(atom)]
        if len(bucket) < per_shard and atom not in bucket:
            bucket.append(atom)
    atoms = [atom for bucket in homed.values() for atom in bucket]
    rng.shuffle(atoms)
    return atoms


class _World:
    """The populated system plus the bookkeeping that keeps every op valid."""

    def __init__(self, seed: int, recorder):
        rng = random.Random(seed)
        self.driver = harness.SimDriver(NODES, seed, recorder, shards=SHARDS)
        system = self.system = self.driver.system
        self.spaces = [
            system.create_space(attributes=atom, node=rng.randrange(NODES))
            for atom in _family_atoms(rng)]
        system.run()
        #: per space: [(address, group, name)] of the actors living in it
        self.members: list[list[tuple]] = [[] for _ in self.spaces]
        self.sinks = []
        for index in range(ACTORS):
            family, group = index % FAMILIES, (index // FAMILIES) % GROUPS
            node = rng.randrange(NODES)
            name = f"a{rng.randrange(10**6)}"
            address = self.driver.create_actor(
                "perf_sink", {}, node,
                visible={"attributes": f"g{group}/{name}",
                         "space": self.spaces[family]})
            self.members[family].append((address, group, name))
            self.sinks.append(address)
        system.run()
        self.destinations = [
            Destination(f"g{rng.randrange(GROUPS)}/*", space)
            for space in self.spaces]
        self.sent = 0
        for destination in self.destinations:  # prime all eight cache entries
            self._send(destination)
        system.run()
        self.rng = rng
        #: address -> suffix bit, flipped per rename so each is a real change
        self.flip: dict = {}

    def _send(self, destination) -> None:
        self.system.send(destination, ("req", self.sent), node=0)
        self.sent += 1

    def plan(self, cycles: int, first: int) -> list[tuple]:
        """Seeded op order for ``cycles`` cycles, decided before timing."""
        rng = self.rng
        steps = []
        hidden = None
        for index in range(first, first + cycles):
            kind = index % 3
            if kind == 2:
                family, entry = hidden
            else:
                family = rng.randrange(FAMILIES)
                entry = rng.randrange(len(self.members[family]))
            if kind == 1:
                hidden = (family, entry)
            others = rng.sample(
                [f for f in range(FAMILIES) if f != family], SENDS - 1)
            steps.append((kind, family, entry, others))
        return steps

    def cycle(self, step: tuple) -> tuple[float, float, float]:
        """One visibility op then four sends; the three timestamps after t0."""
        kind, family, entry, others = step
        system = self.system
        space = self.spaces[family]
        address, group, name = self.members[family][entry]
        t0 = time.perf_counter()
        if kind == 0:
            bit = self.flip[address] = self.flip.get(address, 0) ^ 1
            system.change_attributes(address, f"g{group}/{name}x{bit}",
                                     space, node=address.node)
        elif kind == 1:
            system.make_invisible(address, space, node=address.node)
        else:
            system.make_visible(address, f"g{group}/{name}", space,
                                node=address.node)
        system.run()
        t1 = time.perf_counter()
        self._send(self.destinations[family])
        for other in others:
            self._send(self.destinations[other])
        system.run()
        return t0, t1, time.perf_counter()


def _slices(world: _World, count: int, cycles: int, first: int,
            timed: Timed | None = None):
    """Run ``count`` slices; per-slice (wall, send-path) seconds and latencies."""
    steps = world.plan(count * cycles, first)
    timed = timed or Timed(world.driver.pids)
    walls, send_s, latencies = [], [], []
    for index in range(count):
        with timed:
            started = time.perf_counter()
            sending = 0.0
            for step in steps[index * cycles:(index + 1) * cycles]:
                t0, t1, t2 = world.cycle(step)
                latencies.append(t1 - t0)
                sending += t2 - t1
            walls.append(time.perf_counter() - started)
        send_s.append(sending)
    return walls, send_s, latencies


def run(name: str, seed: int, scale: float, traced: bool, recorder,
        spans_dir=None) -> Result:
    result = Result(name, seed, scale, traced)
    setups = []
    for _ in range(1 if traced else SETUPS):
        started = time.perf_counter()
        world = _World(seed, recorder)
        setups.append(time.perf_counter() - started)
    driver = world.driver
    fraction = harness.TRACED_FRACTION if traced else 1.0
    cycles = max(3, scaled(SLICE_CYCLES * fraction, scale) // 3 * 3)

    # Cycle numbering continues across calls: kind rotates on index % 3
    # and every call covers whole rotations, so a hide is always followed
    # by its re-show within the same call.
    _slices(world, 1, cycles, 0)
    done = cycles
    baseline = None
    if traced:
        walls, _send, _lat = _slices(world, harness.BASELINE_SLICES, cycles, done)
        done += harness.BASELINE_SLICES * cycles
        baseline = max(cycles / w for w in walls)
        harness.start_tracing(driver)

    hits0, misses0 = driver.resolution_counts()
    timed = Timed(driver.pids)
    walls, send_s, latencies = _slices(world, SLICES, cycles, done, timed)
    hits1, misses1 = driver.resolution_counts()
    timed_cycles = SLICES * cycles
    lookups = (hits1 - hits0) + (misses1 - misses0)
    hit_ratio = (hits1 - hits0) / lookups if lookups else 0.0

    pooled = sorted(latencies)
    if traced:
        table = harness.traced_table(driver, spans_dir, timed_cycles,
                                     timed.wall_s)
        rates = [cycles / w for w in walls]
        table["harness.trace_overhead_ratio"] = max(rates) / baseline
        table["harness.slice_spread"] = spread(rates)
        table["harness.visible_p99_ms"] = percentile(pooled, 0.99) * 1e3
        table["core.matching.hit_ratio"] = hit_ratio
        result.table(table)
    else:
        result.metric("setup_s", median(setups), samples=len(setups),
                      slices=setups)
        result.fastest("ops_per_s", cycles, walls)
        result.quickest(
            "op_p50_ms",
            [percentile(sorted(latencies[i:i + cycles]), 0.5) * 1e3
             for i in range(0, len(latencies), cycles)], samples=len(pooled))
        result.fastest("alt_ops_per_s", cycles * SENDS, send_s)
        result.quickest("cpu_us_per_op",
                        [cpu * 1e6 / cycles for cpu in timed.cpu_blocks],
                        samples=SLICES)
        result.metric("peak_rss_mb", harness.peak_rss_mb(driver.pids))
        result.notes["visible_p50_ms_pooled"] = percentile(pooled, 0.5) * 1e3
        result.notes["visible_p99_ms"] = percentile(pooled, 0.99) * 1e3
    result.notes["hit_ratio"] = hit_ratio

    delivered = sum(driver.state(sink, ["count"])["count"]
                    for sink in world.sinks)
    failures = driver.failure_counts()
    result.check("hit_ratio_is_0.75", hit_ratio == 0.75)
    result.check("conservation", delivered == world.sent)
    result.check("no_dead_letters_shed_or_rejected", not any(failures.values()))
    result.check("replicas_coherent", driver.coherent())
    result.offered(world.sent,
                   sum(failures.values()) + abs(world.sent - delivered))
    driver.close()
    return result
