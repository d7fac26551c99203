"""E19 — beyond the paper: sharding the visibility plane.

Section 5 orders visibility operations *per space*; nothing in the paper
asks for one order across unrelated spaces, yet a single sequencer
imposes it.  The shard subsystem partitions spaces by the crc32 of their
root attribute atom across independent sequencers.
``sequencer_service_time`` gives every seat a serial per-op service
time, standing in for the durable append and fan-out a real seat does,
so one seat saturates and several divide the load.

Claims regenerated (virtual time, so the gates are exact):
* throughput scales with shards — eight spaces whose root atoms spread
  evenly over 1, 2, 4 and 8 shards, one actor per space, on 8 nodes:
  4 shards sequence the same ops at least 1.5x faster than one;
* the plane costs a single space nothing — one space's per-op latency on
  a 4-shard plane, whose seat is the node the unsharded sequencer lives
  on, stays within 1.10 of the unsharded plane.
"""

import zlib

from repro.runtime.network import Topology
from repro.runtime.system import ActorSpaceSystem
from repro.shard.map import ShardMap
from repro.util import TextTable

from .common import emit

SPACES = 8
NODES = 8             # one node per potential seat
SHARD_COUNTS = (1, 2, 4, 8)
OPS_PER_SPACE = 50
SERVICE_TIME = 0.002  # modelled per-op sequencer service time
LATENCY_NODES = 2
LATENCY_OPS = 400


def _affine_atoms():
    """Root atoms whose crc32 buckets cover 0..SPACES-1 exactly, so they
    spread evenly over every swept shard count: the sweep measures the
    plane, not hash luck."""
    atoms: dict[int, str] = {}
    index = 0
    while len(atoms) < SPACES:
        atom = f"shard{index}"
        atoms.setdefault(zlib.crc32(atom.encode("utf-8")) % SPACES, atom)
        index += 1
    return [atoms[i] for i in range(SPACES)]


def _noop(ctx, message):  # pragma: no cover - never messaged
    return None


def _system(shards, nodes):
    return ActorSpaceSystem(topology=Topology.lan(nodes), seed=0,
                            sequencer_service_time=SERVICE_TIME,
                            shards=shards)


def _sweep_point(shards):
    """Virtual makespan of OPS_PER_SPACE ops on each of SPACES spaces,
    each submitted from its actor's own node."""
    system = _system(shards, NODES)
    targets = []
    for i, atom in enumerate(_affine_atoms()):
        home = i % NODES
        space = system.create_space(node=home, attributes=atom)
        actor = system.create_actor(_noop, node=home)
        system.make_visible(actor, f"{atom}/seed", space, node=home)
        targets.append((atom, actor, space, home))
    system.run()
    t0 = system.clock.now
    total = OPS_PER_SPACE * SPACES
    for i in range(total):
        atom, actor, space, home = targets[i % SPACES]
        system.make_visible(actor, f"{atom}/v{i & 7}", space, node=home)
    system.run()
    return total, system.clock.now - t0


def _seat_zero_atom():
    """An affine atom whose 4-shard sequencer seat is node 0."""
    seats = ShardMap(4, list(range(LATENCY_NODES)))
    return next(atom for atom in _affine_atoms()
                if seats.sequencer_for(ShardMap(4).owner_of(atom)) == 0)


def _per_op_latency(shards):
    """Virtual seconds per op of LATENCY_OPS ops on one space."""
    atom = _seat_zero_atom()
    system = _system(shards, LATENCY_NODES)
    space = system.create_space(node=0, attributes=atom)
    actor = system.create_actor(_noop, node=0)
    system.make_visible(actor, f"{atom}/seed", space, node=0)
    system.run()
    t0 = system.clock.now
    for i in range(LATENCY_OPS):
        system.make_visible(actor, f"{atom}/v{i & 7}", space, node=0)
    system.run()
    return (system.clock.now - t0) / LATENCY_OPS


def test_bench_e19_shard(benchmark):
    sweep = TextTable(
        ["shards", "ops", "makespan", "ops/s (virtual)", "speedup vs 1"],
        title=f"E19a: {SPACES} shard-affine spaces x {OPS_PER_SPACE} "
              f"visibility ops on {NODES} nodes, "
              f"{SERVICE_TIME * 1e3:g} ms service per op at a seat",
    )
    throughput = {}
    for shards in SHARD_COUNTS:
        ops, makespan = _sweep_point(shards)
        throughput[shards] = ops / makespan
        sweep.add_row([shards, ops, f"{makespan:.6f}",
                       f"{throughput[shards]:.1f}",
                       f"{throughput[shards] / throughput[1]:.2f}"])

    latency = TextTable(
        ["plane", "ops", "ms per op", "ratio vs unsharded"],
        title=f"E19b: one space, {LATENCY_OPS} ops on {LATENCY_NODES} "
              f"nodes, seat on node 0 either way",
    )
    per_op = {shards: _per_op_latency(shards) for shards in (1, 4)}
    for shards in (1, 4):
        latency.add_row([f"{shards} shard{'s' * (shards > 1)}", LATENCY_OPS,
                         f"{per_op[shards] * 1e3:.4f}",
                         f"{per_op[shards] / per_op[1]:.4f}"])
    emit("e19_shard", sweep, latency)

    assert throughput[4] / throughput[1] >= 1.5, throughput
    assert per_op[4] / per_op[1] <= 1.10, per_op
    benchmark(lambda: _sweep_point(4))
