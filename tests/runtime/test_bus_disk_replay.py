"""Regression: state transfer from disk when no live replica can source.

``Bus.replay_to`` used to hard-error with ``NodeDownError`` whenever ops
were pending and every other replica was down — even though, with a
store attached, the recovering node holds every op on its own disk.
The storeless behavior is preserved (it is the honest answer when the
log exists only in live memory); the store-backed bus now falls back to
the persisted log instead.
"""

import pytest

from repro.core.errors import NodeDownError
from repro.runtime.network import Topology
from repro.runtime.system import ActorSpaceSystem
from repro.store import NodeStore


def noop(ctx, message):
    pass


def small_workload(system):
    for node in (0, 1):
        actor = system.create_actor(noop, node=node)
        system.make_visible(actor, f"svc/n{node}")
    system.run()


class TestDiskReplayFallback:
    def test_storeless_total_outage_still_hard_errors(self):
        system = ActorSpaceSystem(topology=Topology.lan(2), seed=0)
        small_workload(system)
        system.crash_node(0)
        system.crash_node(1)
        with pytest.raises(NodeDownError):
            system.bus.replay_to(1, {0: 0})

    def test_live_source_is_still_preferred(self, tmp_path):
        system = ActorSpaceSystem(topology=Topology.lan(2), seed=0)
        system.bus.shards[0].store = NodeStore(str(tmp_path))
        small_workload(system)
        system.bus.replay_to(1, {0: 0})  # node 0 lives: ordinary transfer
        assert system.bus.disk_replays == 0
        system.bus.shards[0].store.close()

    def test_fresh_process_replays_from_disk(self, tmp_path):
        system = ActorSpaceSystem(topology=Topology.lan(2), seed=0)
        store = NodeStore(str(tmp_path))
        system.bus.shards[0].store = store
        small_workload(system)
        expected = system.directory_of(1).snapshot()
        n_ops = len(system.bus.shards[0].log)
        assert n_ops > 0
        store.close()

        # A fresh incarnation: empty in-memory log, everything on disk,
        # and a total outage — the exact case that used to be fatal.
        system2 = ActorSpaceSystem(topology=Topology.lan(2), seed=0)
        store2 = NodeStore(str(tmp_path))
        system2.bus.shards[0].store = store2
        system2.crash_node(0)
        system2.crash_node(1)
        count = system2.bus.replay_to(1, {0: 0})
        assert count == n_ops
        assert system2.bus.disk_replays == 1
        # The replica comes back and drains the scheduled deliveries.
        system2.coordinators[1].crashed = False
        system2.run()
        assert system2.directory_of(1).snapshot() == expected
        store2.close()

    def test_disk_replay_respects_from_seq(self, tmp_path):
        system = ActorSpaceSystem(topology=Topology.lan(2), seed=0)
        store = NodeStore(str(tmp_path))
        system.bus.shards[0].store = store
        small_workload(system)
        n_ops = len(system.bus.shards[0].log)
        system.crash_node(0)
        system.crash_node(1)
        count = system.bus.replay_to(1, {0: n_ops - 1})
        assert count == 1
        store.close()
