"""Tests: NodeRuntime crash recovery from a data directory (no sockets).

A single-node runtime is its own sequencer: ops sequence and stage
in-process, and one call to the host's commit point (``_commit_turn``,
what ``serve`` runs at the end of every turn) persists and applies them,
so the full durability wiring — outbox commit, snapshot, restart,
snapshot+suffix replay, origin resync — is testable without ever
opening a socket or running ``serve``.
"""

from repro.net.runtime import NodeRuntime


def noop(ctx, message):
    pass


def make_runtime(data_dir, port=39741):
    return NodeRuntime(0, {0: port}, data_dir=str(data_dir), trace=False,
                       quiet=True)


def populate(runtime, tag, count=4):
    created = []
    for i in range(count):
        addr = runtime.coordinator.create_actor(
            noop, (), {}, host_space=runtime.root_space)
        runtime.coordinator.make_visible(
            addr, f"{tag}/worker{i}", runtime.root_space, None)
        created.append(addr)
    runtime._commit_turn()  # the turn ends: one fsync, then the applies
    return created


class TestNodeRuntimeRecovery:
    def test_restart_recovers_directory_from_log(self, tmp_path):
        first = make_runtime(tmp_path)
        assert first.recovery is None  # nothing on disk yet
        populate(first, "gen1")
        before = first.coordinator.directory.snapshot()
        ops_before = len(first.bus.log)
        assert first.store.ops_appended == ops_before > 0
        first.store.close()  # SIGKILL stand-in: no snapshot written

        second = make_runtime(tmp_path)
        assert second.recovery is not None
        assert second.recovery["ops_replayed"] == ops_before
        assert second.recovery["records_dropped"] == 0
        assert second.coordinator.directory.snapshot() == before
        assert len(second.bus.log) == ops_before
        second.store.close()

    def test_restart_does_not_ghost_reregister(self, tmp_path):
        first = make_runtime(tmp_path)
        populate(first, "gen1")
        origin_seq = first.coordinator._next_origin_seq
        serial = first.coordinator.addresses._next_serial
        first.store.close()

        second = make_runtime(tmp_path)
        # The restarted incarnation continues minting where the previous
        # one stopped: no colliding origin seqs, no recycled addresses.
        assert second.coordinator._next_origin_seq >= origin_seq
        assert second.coordinator.addresses._next_serial >= serial
        fresh = populate(second, "gen2", count=1)[0]
        assert fresh.serial >= serial
        registry = second.coordinator.directory.space(second.root_space)
        assert fresh in registry
        second.store.close()

    def test_snapshot_plus_suffix_restart(self, tmp_path):
        first = make_runtime(tmp_path)
        populate(first, "gen1")
        first.store.close()

        # Recovery writes a fresh snapshot immediately, capping the next
        # restart's replay to the post-recovery suffix.
        second = make_runtime(tmp_path)
        snapshot_floor = second.store.latest_snapshot_seq
        assert snapshot_floor == second.coordinator._next_apply_seq
        populate(second, "gen2", count=2)
        expected = second.coordinator.directory.snapshot()
        total_ops = len(second.bus.log)
        second.store.close()

        third = make_runtime(tmp_path)
        assert third.recovery is not None
        assert third.recovery["snapshot_seq"] == snapshot_floor
        assert third.recovery["ops_replayed"] < total_ops  # suffix only
        assert third.coordinator.directory.snapshot() == expected
        third.store.close()

    def test_status_reports_store_and_recovery(self, tmp_path):
        first = make_runtime(tmp_path)
        populate(first, "gen1", count=1)
        status = first._ctl_status()
        assert status["store"]["ops_appended"] >= 1
        assert status["recovery"] is None
        first.store.close()

        second = make_runtime(tmp_path)
        status = second._ctl_status()
        assert status["recovery"]["ops_replayed"] >= 1
        assert status["store"]["fsync_policy"] == "commit"
        second.store.close()

    def test_storeless_runtime_unchanged(self, tmp_path):
        runtime = NodeRuntime(0, {0: 39742}, trace=False, quiet=True)
        assert runtime.store is None and runtime.recovery is None
        populate(runtime, "gen1", count=1)
        status = runtime._ctl_status()
        assert status["store"] is None
