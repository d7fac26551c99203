"""Regression: per-shard store namespaces and the order they merge in.

Each shard persists to its own ``shard-K`` store; offline tools find the
namespaces, and recovery's order merges the per-shard logs into one
linear extension.  (A node recovering from a damaged shard store is
covered in ``tests/net/test_durability.py``.)
"""

import zlib

import numpy as np
import pytest

from repro.core.addresses import ActorAddress
from repro.core.errors import ActorSpaceError
from repro.runtime.bus import OpKind
from repro.runtime.network import Topology
from repro.runtime.system import ActorSpaceSystem
from repro.shard.merge import shard_dirs
from repro.store import NodeStore
from repro.store.node_store import load_node_dir
from repro.store.recovery import apply_suffix, restore_node

N_SHARDS = 4


def atoms_spread(shards=N_SHARDS):
    """One root atom per shard, in shard order."""
    found = {}
    i = 0
    while len(found) < shards:
        atom = f"fam{i}"
        found.setdefault(zlib.crc32(atom.encode()) % shards, atom)
        i += 1
    return [found[k] for k in range(shards)]


def noop(ctx, message):
    return None


def build(tmp_path, seed=0, shards=N_SHARDS):
    """A 2-node system whose node 0 persists each shard's stream to
    ``shard-K``, as a node process lays out its data directory."""
    system = ActorSpaceSystem(topology=Topology.lan(2), seed=seed,
                              shards=shards)
    for k, stream in system.bus.shards.items():
        stream.cores[0].store = NodeStore(str(tmp_path / f"shard-{k}"))
    return system


def close_stores(system):
    for inner in system.bus.shards.values():
        inner.cores[0].store.close()


def workload(system, atoms, ops_per_space=5):
    spaces, actors = [], []
    for atom in atoms:
        spaces.append(system.create_space(node=0, attributes=atom))
        actors.append(system.create_actor(noop, node=0))
    system.run()
    for space, actor, atom in zip(spaces, actors, atoms):
        for j in range(ops_per_space):
            system.make_visible(actor, f"{atom}/v{j}", space, node=0)
    system.run()
    return spaces, actors


class TestOfflineMerge:
    def test_shard_dirs_discovers_namespaces(self, tmp_path):
        atoms = atoms_spread()
        system = build(tmp_path)
        workload(system, atoms)
        close_stores(system)
        found = shard_dirs(str(tmp_path))
        assert sorted(found) == list(range(N_SHARDS))

    def test_unsharded_dir_maps_to_shard_zero(self, tmp_path):
        assert shard_dirs(str(tmp_path)) == {0: str(tmp_path)}

    def test_merge_is_a_linear_extension_of_every_shard(self, tmp_path):
        atoms = atoms_spread()
        system = build(tmp_path)
        workload(system, atoms)
        total = sum(len(b.log) for b in system.bus.shards.values())
        close_stores(system)
        _recovered, shard_ops = load_node_dir(str(tmp_path))
        offline = ActorSpaceSystem(shards=N_SHARDS).coordinators[0]
        merged = list(apply_suffix(offline, shard_ops))  # recovery's order
        assert len(merged) == total
        # Streams promise nothing across shards: recovery interleaves
        # the logs by (seq, shard), which keeps each shard's own order,
        # and parking puts an op behind its space's ADD.
        order = [(seq, shard) for shard, seq, _op, _error in merged]
        assert order == sorted(order)
        assert all(error is None for *_, error in merged)
        assert offline.directory.snapshot() == \
            system.coordinators[0].directory.snapshot()

    #: A segment the encoder wrote while ops still carried a sequencing
    #: tick (7 and 8) in their record: seq 0 also repeats it beside the
    #: op, as logs did before that; seq 1 does not.
    TICKED_SEGMENT = bytes.fromhex(
        "70000000838b5fc86400000004730000000372656373000000026f707300"
        "00000373657169000000010073000000026f704f06000000010000000001"
        "00000000010500000001006900000001074e640000000173000000067461"
        "72676574610000000100000000010173000000047469636b690000000107"
        "610000003d3718076400000003730000000372656373000000026f707300"
        "00000373657169000000010173000000026f704f06000000010000000001"
        "01000000010600000001006900000001084e640000000173000000067461"
        "726765746100000001000000000102")

    def test_a_record_still_carrying_its_tick_loads(self, tmp_path):
        (tmp_path / "log").mkdir()
        (tmp_path / "log" / "seg-00000001.log").write_bytes(
            self.TICKED_SEGMENT)
        recovered, shard_ops = load_node_dir(str(tmp_path))
        assert recovered.report.clean
        assert shard_ops == {0: recovered.ops}
        assert [(seq, op.kind, op.args, op.origin_seq, op.op_id)
                for seq, op in sorted(recovered.ops.items())] == [
            (0, OpKind.PURGE, {"target": ActorAddress(0, 1)}, 0, 5),
            (1, OpKind.PURGE, {"target": ActorAddress(0, 2)}, 1, 6)]
        assert not hasattr(recovered.ops[0], "tick")


class TestRestoreEqualsLive:
    """Node 0 persists each shard's stream through its cores' stores, and
    a restart rebuilds from those logs merged by ``(seq, shard)`` plus
    dependency parking — what a node process does too.  Across seeds
    (latencies and the order of submissions from both nodes) the rebuilt
    directory equals the live replica's."""

    @pytest.mark.parametrize("shards", [2, 4])
    @pytest.mark.parametrize("seed", range(20))
    def test_restore_node_rebuilds_the_live_directory(self, tmp_path, seed,
                                                      shards):
        system = build(tmp_path, seed, shards)
        rng = np.random.default_rng(seed)
        node = lambda: int(rng.integers(0, 2))  # noqa: E731
        # A space homed on every shard, one nested in another, and
        # actors churning in all of them, submitted from both nodes.
        spaces = [system.create_space(node=node(), attributes=f"{atom}/s")
                  for atom in atoms_spread(shards)]
        spaces.append(system.create_space(node=node(), attributes="inner",
                                          parent=spaces[-1]))
        actors = [system.create_actor(noop, node=node()) for _ in range(4)]
        doomed = system.create_actor(noop, node=node())
        system.make_visible(doomed, "doomed", spaces[-1], node=node())
        for i in range(24):
            actor = actors[int(rng.integers(0, len(actors)))]
            space = spaces[int(rng.integers(0, len(spaces)))]
            verb = ("make_visible", "change_attributes",
                    "make_invisible")[int(rng.integers(0, 3))]
            attrs = () if verb == "make_invisible" else (f"v/{i}",)
            try:
                getattr(system, verb)(actor, *attrs, space, node=node())
            except ActorSpaceError:
                pass
            if rng.random() < 0.3:
                system.run()
        system.destroy_space(spaces[int(rng.integers(0, shards))],
                             node=node())
        system.make_invisible(doomed, spaces[-1], node=node())
        system.release(doomed)
        system.run()
        assert doomed in system.collect_garbage().collected_actors
        system.run()
        close_stores(system)
        recovered, shard_ops = load_node_dir(str(tmp_path))
        kinds = {op.kind for ops in shard_ops.values() for op in ops.values()}
        assert {OpKind.DESTROY_SPACE, OpKind.PURGE} <= kinds
        restarted = ActorSpaceSystem(topology=Topology.lan(2),
                                     shards=shards)
        restore_node(0, restarted.coordinators[0], restarted.dead_letters,
                     recovered, shard_ops=shard_ops)
        assert restarted.directory_of(0).snapshot() == \
            system.directory_of(0).snapshot()
