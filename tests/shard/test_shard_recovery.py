"""Regression: per-shard store namespaces and the order they merge in.

Each shard persists to its own ``shard-K`` store; offline tools find the
namespaces, and recovery's order merges the per-shard logs into one
linear extension.  (A node recovering from a damaged shard store is
covered in ``tests/net/test_durability.py``.)
"""

import zlib

from repro.core.addresses import ActorAddress
from repro.runtime.bus import OpKind, VisibilityOp
from repro.runtime.network import Topology
from repro.runtime.system import ActorSpaceSystem
from repro.shard.merge import shard_dirs
from repro.store import NodeStore, SegmentWriter
from repro.store.node_store import load_node_dir
from repro.store.recovery import apply_suffix

N_SHARDS = 4


def atoms_spread():
    found = {}
    i = 0
    while len(found) < N_SHARDS:
        atom = f"fam{i}"
        found.setdefault(zlib.crc32(atom.encode()) % N_SHARDS, atom)
        i += 1
    return [found[k] for k in range(N_SHARDS)]


def noop(ctx, message):
    return None


def build(tmp_path, seed=0):
    system = ActorSpaceSystem(topology=Topology.lan(2), seed=seed,
                              shards=N_SHARDS)
    system.bus.attach_store(lambda k: NodeStore(str(tmp_path / f"shard-{k}")))
    return system


def close_stores(system):
    for inner in system.bus.shards.values():
        inner.store.close()


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
        # Ticks (one shared counter, persisted inside each op) are
        # globally unique, and the merge preserves each shard's internal
        # seq order: it is the order the ops were sequenced in.
        ticks = [op.tick for _shard, _seq, op, _error in merged]
        assert ticks == sorted(set(ticks))
        assert [(shard, seq) for shard, seq, _op, _error in merged] == \
            system.bus.journal
        per_shard_seqs = {}
        for shard, seq, _op, _error in merged:
            per_shard_seqs.setdefault(shard, []).append(seq)
        for shard, seqs in per_shard_seqs.items():
            assert seqs == sorted(seqs), (shard, seqs)

    def test_a_record_still_carrying_its_tick_loads(self, tmp_path):
        """Logs once wrote the tick a second time, beside the op."""
        (tmp_path / "log").mkdir()
        writer = SegmentWriter(str(tmp_path / "log" / "seg-00000001.log"))
        op = VisibilityOp(OpKind.PURGE, {"target": ActorAddress(0, 1)},
                          origin_node=0, tick=7)
        writer.append({"rec": "op", "seq": 0, "op": op, "tick": 7})
        writer.close()
        recovered, shard_ops = load_node_dir(str(tmp_path))
        assert recovered.report.clean
        assert shard_ops == {0: recovered.ops}
        assert recovered.ops[0].tick == 7
        assert recovered.ops[0].args == op.args
