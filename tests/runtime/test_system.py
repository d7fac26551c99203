"""Tests for the system facade and per-node coordinators."""

import pytest

from repro.core.actor import Behavior
from repro.core.capabilities import Capability
from repro.core.errors import CapabilityError, NoMatchError, VisibilityCycleError
from repro.core.manager import Arbitration, SpaceManager, UnmatchedPolicy
from repro.core.messages import Mode
from repro.runtime.network import Topology
from repro.runtime.system import ActorSpaceSystem


class Recorder(Behavior):
    """Stores everything it receives, with timestamps."""

    def __init__(self):
        self.received = []

    def receive(self, ctx, message):
        self.received.append((ctx.now, message.payload))


def lan(nodes=3, seed=0, **kw):
    return ActorSpaceSystem(topology=Topology.lan(nodes), seed=seed, **kw)


class TestBasics:
    def test_direct_send(self):
        system = lan()
        r = Recorder()
        addr = system.create_actor(r, node=1)
        system.send_to(addr, "hello")
        system.run()
        assert [p for _t, p in r.received] == ["hello"]

    def test_actor_to_actor_roundtrip(self):
        system = lan()
        r = Recorder()
        sink = system.create_actor(r, node=2)

        def echo(ctx, message):
            ctx.send_to(message.reply_to, ("echo", message.payload))

        e = system.create_actor(echo, node=1)
        system.send_to(e, 42, reply_to=sink)
        system.run()
        assert r.received[0][1] == ("echo", 42)

    def test_messages_take_time(self):
        system = lan()
        r = Recorder()
        addr = system.create_actor(r, node=2)
        system.send_to(addr, "x")
        system.run()
        assert r.received[0][0] > 0  # LAN latency elapsed

    def test_become_changes_next_message_only(self):
        system = lan()
        log = []

        class First(Behavior):
            def receive(self, ctx, message):
                log.append(("first", message.payload))
                ctx.become(Second())
                log.append(("still-first", message.payload))

        class Second(Behavior):
            def receive(self, ctx, message):
                log.append(("second", message.payload))

        addr = system.create_actor(First())
        system.send_to(addr, 1)
        system.run()
        system.send_to(addr, 2)
        system.run()
        assert log == [("first", 1), ("still-first", 1), ("second", 2)]

    def test_create_from_within_actor(self):
        system = lan()
        results = []

        def child(ctx, message):
            results.append(message.payload)

        def parent(ctx, message):
            addr = ctx.create(child, node=2)
            ctx.send_to(addr, ("forwarded", message.payload))

        p = system.create_actor(parent)
        system.send_to(p, "data")
        system.run()
        assert results == [("forwarded", "data")]

    def test_schedule_delivers_later(self):
        system = lan()
        times = []

        def waiter(ctx, message):
            if message.payload == "start":
                ctx.schedule(5.0, "wake")
            else:
                times.append(ctx.now)

        addr = system.create_actor(waiter)
        system.send_to(addr, "start")
        system.run()
        assert times and times[0] >= 5.0

    def test_terminate_stops_delivery(self):
        system = lan()
        r = Recorder()

        class OneShot(Behavior):
            def receive(self, ctx, message):
                r.received.append((ctx.now, message.payload))
                ctx.terminate()

        addr = system.create_actor(OneShot())
        system.send_to(addr, 1)
        system.run()
        system.send_to(addr, 2)
        system.run()
        assert [p for _t, p in r.received] == [1]
        assert system.tracer.dropped["dead_letter"] >= 1

    def test_run_until_stops_clock(self):
        system = lan()
        addr = system.create_actor(Recorder())
        system.send_to(addr, "later")
        t = system.run(until=0.0001)
        assert t == 0.0001
        assert not system.idle  # event still queued
        system.run()
        assert system.idle


class TestPatternCommunication:
    def test_send_reaches_exactly_one(self):
        system = lan()
        recorders = [Recorder() for _ in range(3)]
        for i, r in enumerate(recorders):
            addr = system.create_actor(r, node=i)
            system.make_visible(addr, f"svc/s{i}")
        system.run()
        system.send("svc/*", "ping")
        system.run()
        total = sum(len(r.received) for r in recorders)
        assert total == 1

    def test_broadcast_reaches_all(self):
        system = lan()
        recorders = [Recorder() for _ in range(3)]
        for i, r in enumerate(recorders):
            addr = system.create_actor(r, node=i)
            system.make_visible(addr, f"svc/s{i}")
        system.run()
        system.broadcast("svc/*", "ping")
        system.run()
        assert all(len(r.received) == 1 for r in recorders)

    def test_actor_side_send_and_broadcast(self):
        system = lan()
        r = Recorder()
        target = system.create_actor(r, node=2)
        system.make_visible(target, "workers/w0")
        system.run()

        def sender(ctx, message):
            ctx.send("workers/*", ("job", 1))
            ctx.broadcast("workers/**", ("note", 2))

        s = system.create_actor(sender)
        system.send_to(s, "go")
        system.run()
        payloads = sorted(p for _t, p in r.received)
        assert payloads == [("job", 1), ("note", 2)]

    def test_make_invisible_removes_from_matching(self):
        system = lan()
        r = Recorder()
        addr = system.create_actor(r)
        system.make_visible(addr, "svc/a")
        system.run()
        system.make_invisible(addr, system.root_space)
        system.run()
        system.send("svc/*", "x", )
        system.run()
        assert r.received == []  # suspended, nobody matches
        assert system.tracer.count("messages_suspended_total") == 1

    def test_change_attributes(self):
        system = lan()
        r = Recorder()
        addr = system.create_actor(r)
        system.make_visible(addr, "old/name")
        system.run()
        system.change_attributes(addr, "new/name", system.root_space)
        system.run()
        system.send("new/name", "hit")
        system.run()
        assert len(r.received) == 1
        system.send("old/name", "miss")
        system.run()
        assert len(r.received) == 1


class TestSuspension:
    def test_send_suspends_until_match_appears(self):
        system = lan()
        system.send("late/arrival", "payload")
        system.run()
        assert system.tracer.count("messages_suspended_total") == 1
        r = Recorder()
        addr = system.create_actor(r)
        system.make_visible(addr, "late/arrival")
        system.run()
        assert [p for _t, p in r.received] == ["payload"]
        assert system.tracer.count("messages_released_total") == 1

    def test_broadcast_suspends_and_releases_to_all_current(self):
        system = lan()
        system.broadcast("team/**", "kickoff")
        system.run()
        recorders = [Recorder() for _ in range(3)]
        for i, r in enumerate(recorders):
            addr = system.create_actor(r, node=i)
            system.make_visible(addr, f"team/m{i}")
        system.run()
        got = sum(len(r.received) for r in recorders)
        # Default SUSPEND policy releases once, to then-visible members; at
        # least the first-registered member must have received it.
        assert got >= 1

    def test_discard_policy(self):
        system = ActorSpaceSystem(
            topology=Topology.lan(2), seed=0,
            root_manager_factory=lambda: SpaceManager(
                unmatched=UnmatchedPolicy.DISCARD),
        )
        system.send("ghost", "x")
        system.run()
        assert system.tracer.dropped["unmatched_discarded"] == 1
        assert system.tracer.count("messages_suspended_total") == 0

    def test_error_policy_raises_at_sender(self):
        system = ActorSpaceSystem(
            topology=Topology.lan(2), seed=0,
            root_manager_factory=lambda: SpaceManager(
                unmatched=UnmatchedPolicy.ERROR),
        )
        with pytest.raises(NoMatchError):
            system.send("ghost", "x")

    def test_persistent_broadcast_reaches_future_actors_exactly_once(self):
        system = ActorSpaceSystem(
            topology=Topology.lan(2), seed=0,
            root_manager_factory=lambda: SpaceManager(
                unmatched=UnmatchedPolicy.PERSISTENT),
        )
        system.broadcast("club/**", "standing-invite")
        system.run()
        early = Recorder()
        addr = system.create_actor(early)
        system.make_visible(addr, "club/early")
        system.run()
        late = Recorder()
        addr2 = system.create_actor(late, node=1)
        system.make_visible(addr2, "club/late")
        system.run()
        assert [p for _t, p in early.received] == ["standing-invite"]
        assert [p for _t, p in late.received] == ["standing-invite"]
        # Re-registering must not deliver again (exactly once).
        system.change_attributes(addr2, "club/renamed", system.root_space)
        system.run()
        assert len(late.received) == 1


class TestArbitration:
    def _distribute(self, arbitration, seed=0):
        system = ActorSpaceSystem(
            topology=Topology.lan(2), seed=seed,
            root_manager_factory=lambda: SpaceManager(arbitration=arbitration),
        )
        recorders = [Recorder() for _ in range(4)]
        for i, r in enumerate(recorders):
            addr = system.create_actor(r, node=i % 2)
            system.make_visible(addr, f"s/r{i}")
        system.run()
        for _ in range(40):
            system.send("s/*", "req")
        system.run()
        return [len(r.received) for r in recorders]

    def test_random_spreads(self):
        counts = self._distribute(Arbitration.RANDOM)
        assert sum(counts) == 40
        assert all(c > 0 for c in counts)

    def test_round_robin_is_even(self):
        counts = self._distribute(Arbitration.ROUND_ROBIN)
        assert counts == [10, 10, 10, 10]


    def test_least_loaded_is_even_and_counts_in_flight_once_per_send(self):
        """An 8-member group with 64 envelopes en route: every dispatch
        walks ``in_flight`` once — not once per candidate — and the
        spread is what counting per candidate gave (8 each, no ties lost)."""

        class CountingDict(dict):
            walks = 0

            def values(self):
                CountingDict.walks += 1
                return super().values()

        system = ActorSpaceSystem(
            topology=Topology.lan(2), seed=0,
            root_manager_factory=lambda: SpaceManager(
                arbitration=Arbitration.LEAST_LOADED),
        )
        system.in_flight = CountingDict()
        recorders = [Recorder() for _ in range(8)]
        for i, r in enumerate(recorders):
            system.make_visible(system.create_actor(r, node=i % 2), f"s/r{i}")
        system.run()
        for _ in range(64):
            system.send("s/*", "req")
        assert len(system.in_flight) == 64
        assert CountingDict.walks == 64
        system.send("s/*", "one more")
        assert CountingDict.walks == 65
        system.run()
        assert sorted(len(r.received) for r in recorders) == [8] * 7 + [9]


class TestCapabilitiesAndCycles:
    def test_protected_space_rejects_wrong_key(self):
        system = lan()
        key = system.new_capability()
        vault = system.create_space(capability=key)
        system.run()
        addr = system.create_actor(Recorder())
        with pytest.raises(CapabilityError):
            system.make_visible(addr, "a", vault)
        with pytest.raises(CapabilityError):
            system.make_visible(addr, "a", vault, capability=Capability(123))
        system.make_visible(addr, "a", vault, capability=key)
        system.run()
        assert addr in system.directory_of(0).space(vault)

    def test_cycle_rejected_synchronously_when_known(self):
        system = lan()
        a = system.create_space()
        b = system.create_space()
        system.run()
        system.make_visible(b, "down", a)
        system.run()
        with pytest.raises(VisibilityCycleError):
            system.make_visible(a, "up", b)

    def test_racing_cycle_rejected_at_apply_time(self):
        """Two concurrent make_visible ops that individually pass the local
        pre-check but jointly close a cycle: the bus total order makes one
        of them lose, identically at every replica."""
        system = lan(nodes=2)
        a = system.create_space(node=0)
        b = system.create_space(node=1)
        system.run()
        # Submit both before either applies: neither local precheck can see
        # the other edge yet.
        system.coordinators[0].make_visible(b, "down", a)
        system.coordinators[1].make_visible(a, "up", b)
        system.run()
        d = system.directory_of(0)
        # Exactly one edge won.
        edges = int(b in d.space(a)) + int(a in d.space(b))
        assert edges == 1
        assert any(
            k.startswith("op_rejected:VisibilityCycleError")
            for k in system.tracer.dropped
        )
        assert system.replicas_coherent()


class TestCoherenceAndCrash:
    def test_replicas_converge_after_many_ops(self):
        system = lan(nodes=4, seed=3)
        for i in range(20):
            addr = system.create_actor(Recorder(), node=i % 4)
            system.make_visible(addr, f"a/n{i}", node=i % 4)
        system.run()
        assert system.replicas_coherent()
        ops = system.tracer.visibility_ops_applied
        assert len(set(ops.values())) == 1  # same op count everywhere

    def test_crashed_node_drops_messages(self):
        system = lan(nodes=3)
        r = Recorder()
        addr = system.create_actor(r, node=2)
        system.run()
        system.crash_node(2)
        system.send_to(addr, "lost")
        system.run()
        assert r.received == []
        assert system.tracer.dropped["node_down"] >= 1

    def test_recovered_node_receives_again(self):
        system = lan(nodes=3)
        r = Recorder()
        addr = system.create_actor(r, node=2)
        system.run()
        system.crash_node(2)
        system.send_to(addr, "lost")
        system.run()
        system.recover_node(2)
        system.send_to(addr, "found")
        system.run()
        # Self-healing delivery: the message dropped during the outage was
        # captured as a dead letter and redelivered on recovery, alongside
        # the post-recovery send.
        assert sorted(p for _t, p in r.received) == ["found", "lost"]
        assert system.dead_letters.redelivered_total == 1


class TestGcIntegration:
    def test_collects_orphan_actor(self):
        system = lan()
        keeper = system.create_actor(Recorder())
        orphan = system.create_actor(Recorder())
        system.run()
        system.release(orphan)  # driver drops its handle
        report = system.collect_garbage()
        assert orphan in report.collected_actors
        assert keeper in report.live_actors
        assert system.actor_record(orphan).terminated

    def test_visible_actor_survives_gc(self):
        system = lan()
        addr = system.create_actor(Recorder())
        system.make_visible(addr, "svc/x")
        system.run()
        system.release(addr)
        report = system.collect_garbage()
        # Visible in the root space (a permanent root): still live.
        assert addr not in report.collected_actors

    def test_space_collected_after_release(self):
        system = lan()
        space = system.create_space()
        system.run()
        system.release(space)
        report = system.collect_garbage()
        assert space in report.collected_spaces

    def test_root_space_never_collected(self):
        system = lan()
        report = system.collect_garbage()
        assert system.root_space not in report.collected_spaces


class TestTracing:
    def test_counts_by_mode(self):
        system = lan()
        r = Recorder()
        addr = system.create_actor(r)
        system.make_visible(addr, "a/b")
        system.run()
        system.send_to(addr, 1)
        system.send("a/*", 2)
        system.broadcast("a/**", 3)
        system.run()
        assert system.tracer.sent[Mode.DIRECT] == 1
        assert system.tracer.sent[Mode.SEND] == 1
        assert system.tracer.sent[Mode.BROADCAST] == 1
        assert sum(system.tracer.delivered.values()) == 3
        stats = system.metrics.snapshot()["delivery_latency"]
        assert stats["count"] == 3 and stats["mean"] > 0

    def test_load_distribution(self):
        system = lan()
        r = Recorder()
        addr = system.create_actor(r)
        system.send_to(addr, 1)
        system.send_to(addr, 2)
        system.run()
        assert system.tracer.received_by[addr] == 2
        assert system.metrics.snapshot()["deliveries_by_receiver"] == {
            str(addr): 2}


class TestResolutionCache:
    """The per-coordinator resolution cache, observed through the facade."""

    def test_repeated_sends_hit_the_cache(self):
        system = lan()
        r = Recorder()
        w = system.create_actor(r, node=0)
        system.make_visible(w, "workers/w1")
        system.run()
        for _ in range(5):
            system.send("workers/*", payload="job")
        system.run()
        stats = system.resolution_cache_stats(node=0)
        assert stats["hits"] >= 4
        assert system.tracer.count("resolution_cache_hits_total") >= 4
        assert [p for _t, p in r.received] == ["job"] * 5

    def test_visibility_change_invalidates_then_rehits(self):
        system = lan()
        a, b = Recorder(), Recorder()
        wa = system.create_actor(a, node=0)
        system.make_visible(wa, "workers/a")
        system.run()
        system.broadcast("workers/*", payload=1)
        system.run()
        wb = system.create_actor(b, node=0)
        system.make_visible(wb, "workers/b")
        system.run()
        system.broadcast("workers/*", payload=2)
        system.run()
        assert [p for _t, p in a.received] == [1, 2]
        assert [p for _t, p in b.received] == [2]
        assert system.resolution_cache_stats()["invalidations"] >= 1

    def test_a_one_actor_change_is_repaired_and_counted(self):
        system = lan()
        a, b = Recorder(), Recorder()
        wa = system.create_actor(a, node=0)
        system.make_visible(wa, "workers/a")
        system.run()
        system.broadcast("workers/*", payload=1, node=0)
        system.run()
        wb = system.create_actor(b, node=1)
        system.make_visible(wb, "workers/b")
        system.run()
        system.broadcast("workers/*", payload=2, node=0)
        system.run()
        assert [p for _t, p in b.received] == [2]
        assert system.resolution_cache_stats(node=0)["repairs"] == 1
        assert system.tracer.count("resolution_cache_repairs_total") == 1
        assert system.metrics.snapshot()["resolution_cache_repairs_total"] == 1

    def test_suspended_send_released_with_cache_in_the_loop(self):
        system = lan()
        system.send("late/*", payload="waiting")
        system.run()
        assert system.tracer.count("messages_suspended_total") == 1
        r = Recorder()
        w = system.create_actor(r, node=1)
        system.make_visible(w, "late/w")
        system.run()
        assert [p for _t, p in r.received] == ["waiting"]
        assert system.tracer.count("messages_released_total") == 1

    def test_introspective_resolve_uses_cache(self):
        system = lan()
        r = Recorder()
        w = system.create_actor(r, node=0)
        system.make_visible(w, "svc/a")
        system.run()
        assert system.resolve("svc/*") == [w]
        before = system.resolution_cache_stats(node=0)["hits"]
        assert system.resolve("svc/*") == [w]
        assert system.resolution_cache_stats(node=0)["hits"] == before + 1

    def test_replicas_stay_coherent_with_caching(self):
        system = lan(nodes=3)
        addrs = []
        for n in range(3):
            r = Recorder()
            addrs.append(system.create_actor(r, node=n))
            system.make_visible(addrs[-1], f"svc/n{n}", node=n)
        system.run()
        assert system.replicas_coherent()
        for n in range(3):
            assert system.resolve("svc/*", node=n) == sorted(addrs)
