"""Tests: coordinator recovery via bus-log state transfer."""

import pytest

from repro.runtime.network import Topology
from repro.runtime.system import ActorSpaceSystem


def lan(nodes=3, seed=0, **kw):
    return ActorSpaceSystem(topology=Topology.lan(nodes), seed=seed, **kw)


class TestRecoveryStateTransfer:
    def test_recovered_replica_reconverges(self):
        system = lan()
        r_before = system.create_actor(lambda ctx, m: None, node=0)
        system.make_visible(r_before, "svc/pre")
        system.run()
        system.crash_node(2)
        # Visibility churn while node 2 is down.
        addrs = []
        for i in range(5):
            a = system.create_actor(lambda ctx, m: None, node=i % 2)
            system.make_visible(a, f"svc/during{i}")
            addrs.append(a)
        system.make_invisible(r_before, system.root_space)
        system.run()
        assert not system.replicas_coherent() or system.coordinators[2].crashed
        system.recover_node(2)
        system.run()
        assert system.replicas_coherent()
        d2 = system.directory_of(2)
        root = d2.space(system.root_space)
        assert r_before not in root
        for a in addrs:
            assert a in root

    def test_recovery_then_new_ops_stay_ordered(self):
        system = lan()
        system.crash_node(1)
        a = system.create_actor(lambda ctx, m: None, node=0)
        system.make_visible(a, "one")
        system.run()
        system.recover_node(1)
        # New churn immediately after recovery interleaves with replay.
        b = system.create_actor(lambda ctx, m: None, node=2)
        system.make_visible(b, "two")
        system.change_attributes(a, "one-renamed", system.root_space)
        system.run()
        assert system.replicas_coherent()

    def test_replay_is_idempotent_for_duplicate_seqs(self):
        system = lan()
        a = system.create_actor(lambda ctx, m: None, node=0)
        system.make_visible(a, "x")
        system.run()
        applied_before = system.tracer.visibility_ops_applied[1]
        # Redundant replay of everything to a live node: hold-back dedupes.
        system.bus.replay_to(1, {0: 0})
        system.run()
        assert system.tracer.visibility_ops_applied[1] == applied_before
        assert system.replicas_coherent()

    def test_pattern_sends_work_after_recovery(self):
        system = lan()
        got = []
        system.crash_node(2)
        addr = system.create_actor(lambda ctx, m: got.append(m.payload),
                                   node=0)
        system.make_visible(addr, "late/svc")
        system.run()
        system.recover_node(2)
        system.run()
        # Resolve from the recovered node's replica.
        system.send("late/*", "hello", node=2)
        system.run()
        assert got == ["hello"]

    def test_bus_log_grows_with_ops(self):
        system = lan()
        for i in range(4):
            a = system.create_actor(lambda ctx, m: None)
            system.make_visible(a, f"n{i}")
        system.run()
        assert len(system.bus.shards[0].log) == 4  # 4 make_visible ops sequenced
