"""Tests: snapshots, log truncation, and snapshot+suffix restoration."""

import os

from repro.runtime.bus import OpKind, VisibilityOp
from repro.runtime.network import Topology
from repro.runtime.system import ActorSpaceSystem
from repro.store import NodeStore
from repro.store.node_store import load_data_dir, load_node_dir, segment_paths
from repro.store.recovery import restore_node, snapshot_state
from repro.store.snapshot import (
    list_snapshots,
    load_latest_snapshot,
    write_snapshot,
)

from .test_outbox import SAMPLE_OP, capture_before_packed_record
from .workload import (
    close_stores,
    each_plane,
    noop,
    run_persisted_workload,
    shard_stores,
)


def cores_of(system, node=0):
    return {k: bus.cores[node] for k, bus in system.bus.shards.items()}


def take_snapshot(system, store, node=0):
    state = snapshot_state(node, system.coordinators[node],
                           system.dead_letters, cores=cores_of(system, node))
    store.write_snapshot(state, shard_stores(system))
    return state


def applied_total(state):
    return sum(state["applied"].values())


def late_churn(system, tag, count=3):
    """Ops on a fresh space homed wherever its root atom hashes, plus
    actors in the root space: every shard of the plane gets a suffix."""
    for i in range(count):
        space = system.create_space(node=i % 2, attributes=f"{tag}{i}/home")
        actor = system.create_actor(noop, node=i % 2)
        system.make_visible(actor, f"{tag}/{i}", node=i % 2)
        system.make_visible(actor, f"{tag}/in{i}", space, node=i % 2)
    system.run()


class TestSnapshotRestore:
    @each_plane
    def test_snapshot_truncates_prefix_and_restores_exactly(self, tmp_path, shards):
        system, store = run_persisted_workload(str(tmp_path), seed=3,
                                               n_ops=20, shards=shards)
        state = take_snapshot(system, store)
        assert applied_total(state) > 0
        # Post-snapshot churn becomes the replayable suffix.
        late_churn(system, "late")
        truncated = sum(s.segments_truncated
                        for s in shard_stores(system).values())
        close_stores(system, store)

        recovered, shard_ops = load_node_dir(str(tmp_path))
        assert recovered.snapshot_seq == applied_total(state)
        # Rotation-at-snapshot made truncation exact: every surviving
        # persisted op is at or past its shard's snapshot boundary.
        assert all(shard_ops.values()) and truncated >= 1
        for shard, ops in shard_ops.items():
            assert min(ops, default=state["applied"][shard]) \
                >= state["applied"][shard]

        system2 = ActorSpaceSystem(topology=Topology.lan(2), seed=3,
                                   shards=shards)
        summary = restore_node(0, system2.coordinators[0],
                               system2.dead_letters, recovered,
                               shard_ops=shard_ops, cores=cores_of(system2))
        assert summary["ops_replayed"] == sum(map(len, shard_ops.values()))
        assert system2.directory_of(0).snapshot() == \
            system.directory_of(0).snapshot()
        # Every shard cursor lands exactly where the previous incarnation
        # stood, and the sequence factories resync: no ghost
        # re-registration, no address collisions with it.
        before, after = system.coordinators[0], system2.coordinators[0]
        assert after._shard_cursors == before._shard_cursors
        assert all(after_core.next_origin >= cores_of(system)[k].next_origin
                   for k, after_core in cores_of(system2).items())
        assert after.addresses._next_serial >= before.addresses._next_serial
        # The restored records keep their home shard (a v1 snapshot
        # dropped it), so post-restart ops still route where they did.
        assert {r.address: r.shard for r in after.directory.spaces()} == \
            {r.address: r.shard for r in before.directory.spaces()}

    @each_plane
    def test_corrupt_newest_snapshot_falls_back_to_older(self, tmp_path, shards):
        system, store = run_persisted_workload(str(tmp_path), seed=4,
                                               n_ops=12, shards=shards)
        first = take_snapshot(system, store)
        late_churn(system, "after")
        second = take_snapshot(system, store)
        close_stores(system, store)

        snaps = list_snapshots(str(tmp_path))
        assert len(snaps) == 2  # prune keeps two
        # Corrupt the newest; loading must fall back, honestly reported.
        with open(snaps[-1][1], "r+b") as fh:
            fh.seek(10)
            fh.write(b"\xff\xff\xff")
        recovered = load_data_dir(str(tmp_path))
        assert recovered.snapshot_seq == snaps[0][0] < applied_total(second)
        assert not recovered.report.clean
        # The inter-snapshot suffix survived truncation on every shard's
        # store: the second snapshot floored it at the first's cursors.
        shard_ops = load_node_dir(str(tmp_path))[1]
        for shard, ops in shard_ops.items():
            assert ops and sorted(ops) == list(range(
                first["applied"][shard], second["applied"][shard]))
        # So the older snapshot plus that longer suffix still restores.
        system2 = ActorSpaceSystem(topology=Topology.lan(2), seed=4,
                                   shards=shards)
        restore_node(0, system2.coordinators[0], system2.dead_letters,
                     recovered, shard_ops=shard_ops)
        assert system2.directory_of(0).snapshot() == \
            system.directory_of(0).snapshot()
        assert system2.coordinators[0]._shard_cursors == \
            system.coordinators[0]._shard_cursors

    def test_v1_snapshot_loads_as_one_shard(self, tmp_path):
        """A snapshot written before snapshots carried the plane (scalar
        cursors, no home shards) restores as shard 0 of a one-shard
        plane."""
        system, store = run_persisted_workload(str(tmp_path), seed=9, n_ops=15)
        state = snapshot_state(0, system.coordinators[0], system.dead_letters)
        v1 = {k: v for k, v in state.items()
              if k not in ("applied", "origin", "waiting")}
        for space in v1["spaces"]:
            del space["shard"]
        origin_seq = system.bus.shards[0].cores[0].next_origin
        assert origin_seq > 0
        v1.update(version=1, applied_seq=state["applied"][0],
                  origin_seq=origin_seq, expected={1: 7})
        write_snapshot(str(tmp_path), v1["applied_seq"], v1)
        store.close()

        recovered = load_data_dir(str(tmp_path))
        assert recovered.snapshot["applied"] == {0: v1["applied_seq"]}
        assert recovered.snapshot["expected"] == {0: {1: 7}}
        assert recovered.snapshot["origin"] == {0: origin_seq}
        system2 = ActorSpaceSystem(topology=Topology.lan(2), seed=9)
        restore_node(0, system2.coordinators[0], system2.dead_letters,
                     recovered, cores=cores_of(system2))
        assert system2.directory_of(0).snapshot() == \
            system.directory_of(0).snapshot()
        assert system2.coordinators[0]._shard_cursors == \
            system.coordinators[0]._shard_cursors
        assert cores_of(system2)[0].next_origin == origin_seq

    def test_ops_parked_for_their_space_survive_a_snapshot(self, tmp_path):
        """An actor op that outran its space's ADD is parked with its
        shard's cursor already past it; the snapshot must carry it."""
        system = ActorSpaceSystem(topology=Topology.lan(2), seed=1, shards=2)
        replica = system.coordinators[1]
        space = system.coordinators[0].addresses.new_space_address()
        actor = system.create_actor(noop, node=0)
        early = VisibilityOp(
            OpKind.MAKE_VISIBLE, {"target": actor, "attributes": "early/bird",
                                  "space": space, "capability": None},
            origin_node=0, shard=1)
        replica.on_bus_delivery(0, early)
        assert replica._shard_cursors[1] == 1
        assert not replica.directory.knows_space(space)
        state = snapshot_state(1, replica, system.dead_letters)
        store = NodeStore(str(tmp_path))
        store.write_snapshot(state, {})
        store.close()

        system2 = ActorSpaceSystem(topology=Topology.lan(2), seed=1, shards=2)
        restored = system2.coordinators[1]
        restore_node(1, restored, system2.dead_letters,
                     load_data_dir(str(tmp_path)))
        assert restored._shard_cursors[1] == 1
        add = VisibilityOp(OpKind.ADD_SPACE, {"address": space, "shard": 1},
                           origin_node=0, origin_seq=1)
        restored.on_bus_delivery(restored._shard_cursors[0], add)
        entry = restored.directory.space(space).lookup(actor)
        assert {str(p) for p in entry.attributes} == {"early/bird"}

    def test_a_reopened_store_continues_where_the_directory_left_off(
            self, tmp_path):
        """A writer opening a directory takes from its one read: the next
        segment's index, each closed segment's highest op seq, the
        retained snapshot's cursors (both for truncation), and the
        dead-letter event count — floored at the snapshot's mark, since
        the journal records behind it may have been truncated."""
        store = NodeStore(str(tmp_path), segment_bytes=1)  # rotate per commit
        for seq in range(3):
            store.append_op(seq, SAMPLE_OP)
            store.commit()
        store.append_dlq_capture(capture_before_packed_record(0), 1,
                                 "node_unreachable", 0, 0.0)
        store.commit()
        # Truncates below its own cursor: the segments of ops 0 and 1 and
        # the journal's only segment go; op 2's stays for the fallback.
        store.write_snapshot({"applied": {0: 2}}, {0: store})
        store.close()

        again = NodeStore(str(tmp_path), segment_bytes=1)
        again.append_dlq_capture(capture_before_packed_record(1), 1,
                                 "node_unreachable", 0, 0.0)
        again.append_op(3, SAMPLE_OP)
        again.commit()
        assert [e["n"] for e in load_data_dir(str(tmp_path)).dlq_events] == [2]
        # Floored at the retained snapshot's cursor (2), not at this one's.
        again.write_snapshot({"applied": {0: 4}}, {0: again})
        again.close()
        assert [os.path.basename(p) for p in segment_paths(str(tmp_path))] \
            == ["seg-00000003.log", "seg-00000006.log", "seg-00000007.log"]

    def test_no_tmp_files_survive_installation(self, tmp_path):
        system, store = run_persisted_workload(str(tmp_path), seed=5, n_ops=8)
        take_snapshot(system, store)
        store.close()
        leftovers = [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]
        assert leftovers == []

    def test_half_written_tmp_is_ignored(self, tmp_path):
        system, store = run_persisted_workload(str(tmp_path), seed=6, n_ops=8)
        state = take_snapshot(system, store)
        store.close()
        # A crash mid-install leaves a .tmp; it must not shadow the real one.
        tmp_file = os.path.join(
            str(tmp_path),
            f"snapshot-{applied_total(state) + 5:020d}.snap.tmp")
        with open(tmp_file, "wb") as fh:
            fh.write(b"garbage")
        loaded = load_latest_snapshot(str(tmp_path))
        assert loaded is not None and loaded[0] == applied_total(state)

    def test_segment_rotation_by_size(self, tmp_path):
        _system, store = run_persisted_workload(
            str(tmp_path), seed=8, n_ops=25, segment_bytes=512)
        store.close()
        # Tiny segment cap: the workload must have rolled several segments,
        # and the multi-segment log still recovers in order.
        assert len(segment_paths(str(tmp_path))) >= 2
        recovered = load_data_dir(str(tmp_path))
        assert recovered.report.clean
        seqs = sorted(recovered.ops)
        assert seqs == list(range(len(seqs)))
