"""Tests: NodeRuntime crash recovery from a data directory (no sockets).

A single-node runtime is its own sequencer: ops sequence and stage
in-process, and one call to the host's commit point (``_commit_turn``,
what ``serve`` runs at the end of every turn) persists and applies them,
so the full durability wiring — outbox commit, snapshot, restart,
snapshot+suffix replay, origin resync — is testable without ever
opening a socket or running ``serve``.  Every restart case runs on a
one-shard and a two-shard plane: there is one recovery path.
"""

import shutil
import time
from unittest import mock

import pytest

from repro.core.addresses import ActorAddress
from repro.core.messages import Mode
from repro.net.codec import FrameKind, decode_value
from repro.net.runtime import NodeRuntime
from repro.runtime.bus import OpKind, VisibilityOp
from repro.runtime.context import external_envelope
from repro.store import segment
from repro.store.node_store import load_node_dir
from repro.store.replay import replay_main, replay_recovered

from ..store.workload import each_plane, last_shard_atom


def noop(ctx, message):
    pass


def make_runtime(data_dir, shards, node=0, ports=None):
    return NodeRuntime(node, ports or {0: 39741}, data_dir=str(data_dir),
                       trace=False, quiet=True, shards=shards,
                       shard_sequencer=0)


def populate(runtime, tag, count=4):
    """Actors visible in the root space (shard 0) and in a space of
    their own homed on the last shard, so every shard of the plane
    carries ops."""
    created = []
    for i in range(count):
        addr = runtime.coordinator.create_actor(
            noop, (), {}, host_space=runtime.root_space)
        runtime.coordinator.make_visible(
            addr, f"{tag}/worker{i}", runtime.root_space, None)
        atom = last_shard_atom(runtime.shards, f"{tag}{i}")
        space = runtime.create_space(attributes=f"{atom}/home")
        runtime.coordinator.make_visible(
            addr, f"{tag}/homed{i}", space, None)
        created.append(addr)
    runtime._commit_turn()  # the turn ends: one fsync, then the applies
    return created


def log_length(runtime):
    return sum(len(bus.core.log) for bus in runtime.bus.shards.values())


def next_origins(runtime):
    return [bus.core.next_origin for bus in runtime.bus.shards.values()]


def capture_letters(runtime, count):
    """``count`` envelopes for an unreachable node 1, dead-lettered and
    journalled at the end of the turn."""
    envelopes = [external_envelope(
        runtime, Mode.DIRECT, ("lost", i), target=ActorAddress(1, 7))
        for i in range(count)]
    for envelope in envelopes:
        runtime.dead_letters.capture(envelope, 1, "node_unreachable")
    runtime._commit_turn()
    return envelopes


def close(runtime):
    for store in runtime._stores:  # SIGKILL stand-in: no snapshot written
        store.close()


class TestNodeRuntimeRecovery:
    @each_plane
    def test_restart_recovers_directory_from_log(self, tmp_path, shards):
        first = make_runtime(tmp_path, shards)
        assert first.recovery is None  # nothing on disk yet
        populate(first, "gen1")
        before = first.coordinator.directory.snapshot()
        cursors = list(first.coordinator._shard_cursors)
        ops_before = log_length(first)
        assert all(cursors)  # every shard of the plane sequenced something
        assert sum(s.ops_appended for s in first._stores) == ops_before > 0
        close(first)

        second = make_runtime(tmp_path, shards)
        assert second.recovery is not None
        assert second.recovery["ops_replayed"] == ops_before
        assert second.recovery["records_dropped"] == 0
        assert second.coordinator.directory.snapshot() == before
        assert second.coordinator._shard_cursors == cursors
        assert log_length(second) == ops_before
        close(second)

    @each_plane
    def test_restart_does_not_ghost_reregister(self, tmp_path, shards):
        first = make_runtime(tmp_path, shards)
        populate(first, "gen1")
        origin_seqs = next_origins(first)
        serial = first.coordinator.addresses._next_serial
        persisted = {rec.address
                     for rec in first.coordinator.directory.spaces()}
        close(first)

        second = make_runtime(tmp_path, shards)
        # The restarted incarnation continues minting where the previous
        # one stopped: no colliding origin seqs, no recycled addresses.
        assert all(new >= old for new, old in
                   zip(next_origins(second), origin_seqs))
        assert second.coordinator.addresses._next_serial >= serial
        fresh = populate(second, "gen2", count=1)[0]
        assert fresh.serial >= serial
        registry = second.coordinator.directory.space(second.root_space)
        assert fresh in registry
        fresh_space = second.coordinator.create_space()
        assert fresh_space not in persisted
        close(second)

    @each_plane
    def test_restart_recovers_dead_letters(self, tmp_path, shards):
        first = make_runtime(tmp_path, shards, ports={0: 39741, 1: 39742})
        populate(first, "gen1", count=1)
        capture_letters(first, 3)
        dlq = first.dead_letters
        counters = (dlq.pending(), dlq.queued_total, dlq.redelivered_total,
                    dlq.expired_total)
        assert counters[:2] == (3, 3)
        close(first)

        second = make_runtime(tmp_path, shards, ports={0: 39741, 1: 39742})
        dlq = second.dead_letters
        assert (dlq.pending(), dlq.queued_total, dlq.redelivered_total,
                dlq.expired_total) == counters
        assert second.recovery["dlq_recovered"] == 3
        close(second)

    @each_plane
    def test_a_letter_recovered_once_is_recovered_again(self, tmp_path,
                                                        shards):
        """Each start on a data dir mints ids from a block of its own.  A
        letter the first start captured and the second recovered is
        still pending at the third, though the second delivered as many
        local envelopes as it takes to re-mint the letter's id."""
        ports = {0: 39741, 1: 39742}
        first = make_runtime(tmp_path, shards, ports=ports)
        populate(first, "gen1", count=1)
        letter = capture_letters(first, 1)[0]
        close(first)

        second = make_runtime(tmp_path, shards, ports=ports)
        assert second.dead_letters.pending() == 1
        worker = second.coordinator.create_actor(
            noop, (), {}, host_space=second.root_space)
        minted = []
        for i in range(letter.envelope_id % (1 << 32) + 1):
            envelope = external_envelope(second, Mode.DIRECT, ("local", i),
                                         target=worker)
            second.coordinator._deliver(envelope)  # lands in a mailbox
            minted.append(envelope.envelope_id)
        second._commit_turn()
        assert second.dead_letters.pending() == 1
        close(second)

        third = make_runtime(tmp_path, shards, ports=ports)
        assert third.recovery["dlq_recovered"] == 1
        assert [held.envelope.envelope_id for held in
                third.dead_letters.letters()] == [letter.envelope_id]
        assert letter.envelope_id not in minted
        close(third)

    @each_plane
    def test_ops_unacked_at_a_snapshot_keep_their_numbers(self, tmp_path,
                                                          shards):
        """With every seat on an unreachable node, what this node submits
        stays unacked but is numbered.  A restart from the snapshot
        numbers past it on every shard — one whose store is unreadable
        too."""
        def seatless():
            return NodeRuntime(0, {0: 39741, 1: 39742}, trace=False,
                               data_dir=str(tmp_path), quiet=True,
                               shards=shards, shard_sequencer=1)

        first = seatless()
        populate(first, "gen1", count=2)
        numbered = next_origins(first)
        assert all(bus.core.unacked for bus in first.bus.shards.values())
        assert first.write_snapshot_now() is not None
        close(first)
        if shards > 1:
            log_dir = tmp_path / "shard-1" / "log"
            shutil.rmtree(log_dir)
            log_dir.write_bytes(b"not a directory")

        second = seatless()
        assert sorted(second.shard_stores) == [0]
        assert next_origins(second) == numbered
        close(second)

    @each_plane
    def test_a_restart_decodes_each_record_once(self, tmp_path, shards):
        first = make_runtime(tmp_path, shards, ports={0: 39741, 1: 39742})
        populate(first, "gen1")
        capture_letters(first, 3)
        close(first)
        records = load_node_dir(str(tmp_path))[0].report.records
        assert records == log_length(first) + 3

        with mock.patch.object(segment, "decode_value",
                               wraps=decode_value) as decode:
            second = make_runtime(tmp_path, shards,
                                  ports={0: 39741, 1: 39742})
        assert decode.call_count == records
        assert second.recovery["ops_replayed"] == log_length(first)
        assert second.dead_letters.pending() == 3
        close(second)

    @each_plane
    def test_a_restart_releases_what_it_recovered(self, tmp_path, shards):
        """The log, snapshot and dead letters a store decoded when it
        opened are dropped once recovery has restored them."""
        ports = {0: 39741, 1: 39742}
        first = make_runtime(tmp_path, shards, ports=ports)
        populate(first, "gen1")
        capture_letters(first, 2)
        close(first)

        second = make_runtime(tmp_path, shards, ports=ports)
        assert second.recovery["ops_replayed"] == log_length(first)
        assert second.dead_letters.pending() == 2
        assert [store.recovered for store in second._stores] == \
            [None] * len(second._stores)
        close(second)

    @each_plane
    def test_snapshot_plus_suffix_restart(self, tmp_path, shards):
        first = make_runtime(tmp_path, shards)
        populate(first, "gen1")
        close(first)

        # Recovery writes a fresh snapshot immediately, capping the next
        # restart's replay to the post-recovery suffix.
        second = make_runtime(tmp_path, shards)
        snapshot_floor = second.store.latest_snapshot_seq
        assert snapshot_floor == sum(second.coordinator._shard_cursors)
        populate(second, "gen2", count=2)
        expected = second.coordinator.directory.snapshot()
        cursors = list(second.coordinator._shard_cursors)
        total_ops = sum(cursors)
        close(second)

        third = make_runtime(tmp_path, shards)
        assert third.recovery is not None
        assert third.recovery["snapshot_seq"] == snapshot_floor
        assert third.recovery["ops_replayed"] == total_ops - snapshot_floor
        assert third.coordinator.directory.snapshot() == expected
        assert third.coordinator._shard_cursors == cursors
        close(third)

    @each_plane
    def test_ops_after_a_snapshot_truncated_restart_apply(self, tmp_path,
                                                          shards):
        """A seat restarted from a snapshot has an empty log; it must not
        re-mint sequence numbers it (and every replica) already applied —
        those ops were dropped as replay overlap and silently lost."""
        ports = {0: 39741, 1: 39742}

        def pair():
            seat = make_runtime(tmp_path / "n0", shards, 0, ports)
            replica = make_runtime(tmp_path / "n1", shards, 1, ports)

            def wire(node, kind, payload):  # the seat's fan-out, no socket
                if kind == FrameKind.BUS_OP:
                    replica.bus.shards[payload["shard"]].on_op(
                        payload["seq"], payload["op"])
                return True

            seat.hub.send = wire
            return seat, replica

        def turn(seat, replica):
            seat._commit_turn()
            replica._commit_turn()

        seat, replica = pair()
        populate(seat, "gen1", count=2)
        turn(seat, replica)
        for runtime in (seat, replica):
            assert runtime.write_snapshot_now() is not None
            close(runtime)

        seat, replica = pair()
        cursors = list(seat.coordinator._shard_cursors)
        assert all(cursors) and log_length(seat) == 0  # truncated
        assert replica.coordinator._shard_cursors == cursors
        populate(seat, "gen2", count=2)
        turn(seat, replica)
        assert not any(bus.core.unacked for bus in seat.bus.shards.values())
        assert all(new > old for new, old in
                   zip(seat.coordinator._shard_cursors, cursors))
        directory = seat.coordinator.directory.snapshot()
        assert any("gen2/worker1" in map(str, attrs)
                   for registry in directory.values()
                   for attrs in registry.values())
        assert replica.coordinator.directory.snapshot() == directory
        for runtime in (seat, replica):
            close(runtime)

    @each_plane
    def test_offline_replay_rebuilds_what_the_node_recovers(self, tmp_path,
                                                            shards):
        """A node writes its logs with its spaces spread over every shard; replay reads each shard's namespace and lands on the
        node's own directory — from genesis, and again from the snapshot
        a restart writes."""
        first = make_runtime(tmp_path, shards)
        populate(first, "gen1")
        live = first.coordinator.directory.snapshot()
        close(first)
        replayed, summary = replay_recovered(*load_node_dir(str(tmp_path)))
        assert summary["gap"] is None
        assert summary["ops_applied"] == log_length(first)
        assert replayed.directory.snapshot() == live
        assert replay_main([str(tmp_path), "--check", "--quiet"]) == 0

        second = make_runtime(tmp_path, shards)  # recovers, then snapshots
        assert second.coordinator.directory.snapshot() == live
        populate(second, "gen2", count=1)
        live = second.coordinator.directory.snapshot()
        close(second)
        replayed, summary = replay_recovered(*load_node_dir(str(tmp_path)))
        assert summary["snapshot_seq"] > 0
        assert replayed.directory.snapshot() == live
        assert replayed._shard_cursors == second.coordinator._shard_cursors

    @pytest.mark.parametrize("damage", ["garbage", "unopenable"])
    def test_damaged_shard_costs_one_shard(self, tmp_path, damage):
        """Shard 1's segments overwritten with bytes that parse as no
        record, or its log directory replaced by a file: the node still
        comes up with every op of shard 0, and shard 1 starts empty, to
        re-sync from its seat."""
        first = make_runtime(tmp_path, 2)
        populate(first, "gen1")
        shard0_ops = len(first.bus.shards[0].core.log)
        shard0_cursor = first.coordinator._shard_cursors[0]
        assert shard0_ops and first.coordinator._shard_cursors[1]
        close(first)
        log_dir = tmp_path / "shard-1" / "log"
        segments = list(log_dir.glob("seg-*.log"))
        assert segments
        if damage == "garbage":
            for segment in segments:
                segment.write_bytes(b"\xde\xad\xbe\xef" * 64)
        else:
            shutil.rmtree(log_dir)
            log_dir.write_bytes(b"not a directory")

        second = make_runtime(tmp_path, 2)
        assert (1 in second.shard_stores) == (damage == "garbage")
        assert second.recovery["ops_replayed"] == shard0_ops
        assert second.coordinator._shard_cursors == [shard0_cursor, 0]
        assert len(second.bus.shards[0].core.log) == shard0_ops
        assert not second.bus.shards[1].core.log
        worker = populate(second, "gen2", count=1)[0]
        assert worker in second.coordinator.directory.space(
            second.root_space)
        close(second)

    @each_plane
    def test_status_reports_store_and_recovery(self, tmp_path, shards):
        first = make_runtime(tmp_path, shards)
        populate(first, "gen1", count=1)
        status = first._ctl_status()
        assert status["store"]["ops_appended"] >= 1
        assert status["recovery"] is None
        assert sorted(status["shards"]) == list(range(shards))
        assert status["applied_seq"] == \
            sum(info["applied"] for info in status["shards"].values())
        close(first)

        second = make_runtime(tmp_path, shards)
        status = second._ctl_status()
        assert status["recovery"]["ops_replayed"] >= 1
        assert status["store"]["fsync_policy"] == "commit"
        close(second)

    @each_plane
    def test_storeless_runtime_unchanged(self, tmp_path, shards):
        runtime = NodeRuntime(0, {0: 39742}, trace=False, quiet=True,
                              shards=shards)
        assert runtime.store is None and runtime.recovery is None
        assert runtime.write_snapshot_now() is None
        populate(runtime, "gen1", count=1)
        status = runtime._ctl_status()
        assert status["store"] is None


def test_two_starts_without_a_data_dir_mint_different_ids():
    """A start without a data dir has no incarnation count to claim, yet
    a respawn must not mint the envelope, message and op ids of the
    process before it: peers' in-flight and dead-letter bookkeeping is
    keyed on them."""
    def first_ids():
        runtime = NodeRuntime(1, {0: 39741, 1: 39742}, trace=False)
        envelope = external_envelope(runtime, Mode.DIRECT, "hello",
                                     target=ActorAddress(0, 1))
        op = VisibilityOp(OpKind.PURGE, {}, runtime.node_id)
        return envelope.envelope_id, envelope.message.message_id, op.op_id

    before = first_ids()
    time.sleep(0.002)  # a respawn starts later than its predecessor
    after = first_ids()
    assert all(old != new for old, new in zip(before, after))
    assert {minted >> 44 for minted in before + after} == {1}
