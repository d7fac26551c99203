"""Regression: per-shard store namespaces and the offline merge.

Each shard persists to its own ``shard-K`` store; offline tools find the
namespaces and merge the per-shard logs into one linear extension.  (A
node recovering from a damaged shard store is covered in
``tests/net/test_durability.py``.)
"""

import zlib

from repro.runtime.network import Topology
from repro.runtime.system import ActorSpaceSystem
from repro.shard.merge import merge_shard_logs, shard_dirs
from repro.store import NodeStore

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
        merged = merge_shard_logs(str(tmp_path))
        assert len(merged) == total
        # Ticks are globally unique (one shared counter) and the merge
        # preserves each shard's internal seq order.
        ticks = [tick for _shard, _seq, tick, _op in merged]
        assert ticks == sorted(ticks)
        per_shard_seqs = {}
        for shard, seq, _tick, _op in merged:
            per_shard_seqs.setdefault(shard, []).append(seq)
        for shard, seqs in per_shard_seqs.items():
            assert seqs == sorted(seqs), (shard, seqs)
