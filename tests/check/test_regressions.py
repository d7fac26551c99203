"""Regression tests: shrunk traces for divergences the oracle found.

Each trace here is the minimal command sequence that exercised a real
runtime bug (fixed in the self-healing-delivery work); the conformance
oracle replays them on every run, so reintroducing any of the bugs
diverges again immediately.
"""

from repro.check import Scenario, check_scenario
from repro.check.scenario import generate_scenario
from repro.check.schedule import RandomTieBreaker
from repro.runtime.network import LatencyModel, Topology
from repro.runtime.system import ActorSpaceSystem


def conforms(scenario: Scenario) -> None:
    report = check_scenario(scenario)
    assert report.ok, report.summary() + "".join(
        f"\n  {d}" for d in report.divergences)


class TestShrunkTraces:
    def test_recovery_unmask_releases_parked_send(self):
        """Lifting a quarantine mask at recovery must recheck parked mail.

        Shrunk from the divergence that motivated the recheck in
        ``recover_node``: a send parks because its only match sits on a
        confirmed-down node; without the recheck it stays parked forever
        after the node returns.
        """
        conforms(Scenario(
            nodes=2, bus="sequencer", seed=1, unmatched="suspend",
            commands=[
                {"op": "actor", "name": "a0", "node": 1},
                {"op": "vis", "target": "a0", "attrs": ["svc"],
                 "space": "ROOT", "node": 0},
                {"op": "detector", "duration": 4.0},
                {"op": "crash", "node": 1},
                {"op": "send", "pattern": "svc", "space": None,
                 "space_pattern": None, "node": 0, "msg": 0, "ref": None},
                {"op": "recover", "node": 1},
                {"op": "settle"},
            ]))

    def test_gc_keeps_actor_referenced_by_parked_message(self):
        """GC must pin actors referenced from suspended messages (§5.5).

        Shrunk from the divergence behind the suspended/persistent pin
        scan in ``collect_garbage``: the parked message's ``ref`` payload
        is the only thing keeping ``a0`` reachable.
        """
        conforms(Scenario(
            nodes=1, bus="sequencer", seed=2, unmatched="suspend",
            commands=[
                {"op": "actor", "name": "a0", "node": 0},
                {"op": "release", "target": "a0"},
                {"op": "send", "pattern": "nomatch", "space": None,
                 "space_pattern": None, "node": 0, "msg": 0, "ref": "a0"},
                {"op": "gc"},
            ]))

    def test_crashed_origin_park_set_is_frozen(self):
        """A crashed coordinator must not release its park set (§5.6).

        Shrunk from generated seed 23: a visibility op lands while the
        parked send's origin node is down; the release must wait for the
        origin's recovery replay, not happen at op-apply time.
        """
        conforms(Scenario(
            nodes=2, bus="sequencer", seed=23, unmatched="suspend",
            commands=[
                {"op": "actor", "name": "a0", "node": 0},
                {"op": "send", "pattern": "late", "space": None,
                 "space_pattern": None, "node": 1, "msg": 0, "ref": None},
                {"op": "detector", "duration": 4.0},
                {"op": "crash", "node": 1},
                {"op": "vis", "target": "a0", "attrs": ["late"],
                 "space": "ROOT", "node": 0},
                {"op": "recover", "node": 1},
                {"op": "settle"},
            ]))


class TestShardedJournalReplay:
    def test_a_destroy_before_its_spaces_add_leaves_the_space_unknown(self):
        """A ``destroy_space`` sequenced before its space's ADD is rejected
        by every replica (the space is unknown there) and must not make
        the space known to the oracle's journal replay: the cross-shard
        vis ops on it still wait for the ADD, as they do on a replica.
        Seed 273 on three or four shards orders them so."""
        for shards in (3, 4):
            report = check_scenario(
                generate_scenario(273, bus="sequencer"),
                tiebreaker=RandomTieBreaker(0), shards=shards)
            assert report.ok, (shards, [str(d) for d in report.divergences])


class TestRecoveryResume:
    def test_recovery_then_resume_stays_conformant(self):
        """A recovered replica must *resume* the order, not restart it.

        Shrunk from the durability drill: churn lands while node 1 is
        down, node 1 recovers via state transfer, then continues issuing
        its own ops — the resumed origin numbering has to extend the
        pre-crash sequence or the oracle sees a ghost re-registration.
        """
        conforms(Scenario(
            nodes=2, bus="sequencer", seed=9, unmatched="suspend",
            commands=[
                {"op": "actor", "name": "a0", "node": 1},
                {"op": "vis", "target": "a0", "attrs": ["pre"],
                 "space": "ROOT", "node": 1},
                {"op": "detector", "duration": 4.0},
                {"op": "crash", "node": 1},
                {"op": "actor", "name": "a1", "node": 0},
                {"op": "vis", "target": "a1", "attrs": ["during"],
                 "space": "ROOT", "node": 0},
                {"op": "recover", "node": 1},
                {"op": "actor", "name": "a2", "node": 1},
                {"op": "vis", "target": "a2", "attrs": ["post"],
                 "space": "ROOT", "node": 1},
                {"op": "settle"},
            ]))

    def test_crash_cycle_log_passes_offline_oracle(self, tmp_path):
        """What a crash/recover cycle persists must replay as history.

        Bridges the live harness and the durability layer: the same
        churn as above runs with a store attached, and the bytes left on
        disk are handed to the *offline* oracle (``check_recovered``) —
        so recovery-then-resume is checked twice, once live and once
        from its own persisted log.
        """
        from repro.check.logcheck import check_recovered
        from repro.store import NodeStore
        from repro.store.node_store import load_data_dir

        system = ActorSpaceSystem(topology=Topology.lan(2), seed=9)
        store = NodeStore(str(tmp_path))
        system.bus.shards[0].cores[0].store = store
        pre = system.create_actor(lambda ctx, m: None, node=1)
        system.make_visible(pre, "pre", node=1)
        system.run()
        system.crash_node(1)
        during = system.create_actor(lambda ctx, m: None, node=0)
        system.make_visible(during, "during", node=0)
        system.run()
        system.recover_node(1)
        post = system.create_actor(lambda ctx, m: None, node=1)
        system.make_visible(post, "post", node=1)
        system.run()
        assert system.replicas_coherent()
        store.close()

        recovered = load_data_dir(str(tmp_path))
        assert recovered.report.clean
        assert len(recovered.ops) == len(system.bus.shards[0].log)
        assert check_recovered(recovered) == []


class TestMailboxPumpRestart:
    def test_backlog_accepted_before_crash_is_processed_after_recovery(self):
        """Processing events swallowed during a crash must restart.

        Direct runtime check for the pump-restart loop at the end of
        ``recover_node``: mail delivered before the crash sits in the
        mailbox; the scheduled processing event fires while ``crashed``
        is set and is dropped, so recovery must reschedule it.
        """
        system = ActorSpaceSystem(
            topology=Topology.lan(2), seed=0, processing_delay=0.5,
            latency_model=LatencyModel(local=0.1, lan=0.1, wan=0.1,
                                       jitter=0.0))
        got = []
        addr = system.create_actor(lambda ctx, m: got.append(m.payload),
                                   node=1)
        system.run()
        system.send_to(addr, "work")
        # Delivery lands at +0.1; processing is scheduled for +0.6.
        system.run(until=system.clock.now + 0.3)
        assert got == []
        system.crash_node(1)
        system.run()  # the processing event fires into a crashed node
        assert got == []
        system.recover_node(1)
        system.run()
        assert got == ["work"]
