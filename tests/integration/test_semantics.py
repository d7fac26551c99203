"""Integration: paradigm semantics the paper specifies, end to end.

Covers: eventual delivery under loss, unordered broadcasts + the
sequenced-send recipe (section 5.3), suspension interplay (5.6), cycle
defences (5.7), and GC across a running system (5.5).
"""

import pytest

from repro.core.actor import Behavior
from repro.core.manager import CyclePolicy, SpaceManager
from repro.runtime.network import Topology
from repro.runtime.system import ActorSpaceSystem


class Collector(Behavior):
    def __init__(self):
        self.items = []

    def receive(self, ctx, message):
        self.items.append(message.payload)


class TestEventualDelivery:
    def test_all_messages_arrive_despite_loss(self):
        """Guaranteed eventual delivery (section 4) under 40% loss."""
        system = ActorSpaceSystem(topology=Topology.lan(3), seed=2, loss=0.4)
        c = Collector()
        addr = system.create_actor(c, node=2)
        for i in range(50):
            system.send_to(addr, i)
        system.run()
        assert sorted(c.items) == list(range(50))

    def test_loss_costs_latency_not_messages(self):
        def mean_latency(loss):
            system = ActorSpaceSystem(topology=Topology.lan(2), seed=2,
                                      loss=loss)
            c = Collector()
            addr = system.create_actor(c, node=1)
            for i in range(50):
                system.send_to(addr, i)
            system.run()
            return system.tracer.latency_hist.summary()["mean"]

        assert mean_latency(0.5) > mean_latency(0.0)


class TestOrdering:
    def test_broadcast_order_not_guaranteed(self):
        """Two broadcasts may be seen in different orders by different
        receivers (section 5.3) — with jittered links this occurs."""
        orders = set()
        for seed in range(25):
            system = ActorSpaceSystem(topology=Topology.lan(4), seed=seed)
            receivers = [Collector() for _ in range(3)]
            for i, c in enumerate(receivers):
                addr = system.create_actor(c, node=i + 1)
                system.make_visible(addr, f"grp/m{i}")
            system.run()
            system.broadcast("grp/*", "A")
            system.broadcast("grp/*", "B")
            system.run()
            for c in receivers:
                orders.add(tuple(c.items))
        assert ("A", "B") in orders and ("B", "A") in orders

    def test_sequencer_actor_restores_total_order(self):
        """The paper's recipe: route broadcasts through one serializer
        actor to impose a global order on a group."""
        for seed in range(25):
            system = ActorSpaceSystem(topology=Topology.lan(4), seed=seed)
            receivers = [Collector() for _ in range(3)]
            for i, c in enumerate(receivers):
                addr = system.create_actor(c, node=i + 1)
                system.make_visible(addr, f"grp/m{i}")
            system.run()

            class Serializer(Behavior):
                def __init__(self):
                    self.seq = 0

                def receive(self, ctx, message):
                    ctx.broadcast("grp/*", (self.seq, message.payload))
                    self.seq += 1

            ser = system.create_actor(Serializer(), node=0)
            system.send_to(ser, "A")
            system.run()  # serialize: second submission after the first fan-out
            system.send_to(ser, "B")
            system.run()
            for c in receivers:
                assert [p for p in c.items] == [(0, "A"), (1, "B")]


class TestCycleDefences:
    def test_dag_policy_prevents_broadcast_storm(self):
        system = ActorSpaceSystem(topology=Topology.lan(2), seed=0)
        s = system.create_space(attributes="outer")
        system.run()
        from repro.core.errors import VisibilityCycleError

        with pytest.raises(VisibilityCycleError):
            system.make_visible(s, "inner", s)

    def test_tagging_policy_drops_runaway_traces(self):
        factory = lambda: SpaceManager(cycles=CyclePolicy.TAGGING,
                                       max_forward_hops=2)
        system = ActorSpaceSystem(topology=Topology.lan(2), seed=0,
                                  root_manager_factory=factory)
        c = Collector()
        addr = system.create_actor(c)
        system.make_visible(addr, "svc/x")
        system.run()
        # A normal send passes (trace short)...
        system.send("svc/*", "ok")
        system.run()
        assert c.items == ["ok"]

    def test_forwarding_loop_between_actors_trapped_by_hop_budget(self):
        """Two actors forwarding to each other's pattern forever: each
        resend is a fresh envelope, so the defence here is the fuel the
        driver controls — run() with max_events bounds the storm."""
        system = ActorSpaceSystem(topology=Topology.lan(2), seed=0)

        def forwarder(other):
            def behavior(ctx, message):
                ctx.send(other, message.payload)
            return behavior

        a = system.create_actor(forwarder("loop/b"), node=0)
        b = system.create_actor(forwarder("loop/a"), node=1)
        system.make_visible(a, "loop/a")
        system.make_visible(b, "loop/b")
        system.run()
        system.send("loop/a", "hot-potato")
        system.run(max_events=500)
        assert not system.idle  # the loop is still alive — by design
        assert system.tracer.count("behavior_invocations_total") <= 501


class TestGcDuringExecution:
    def test_completed_workers_are_collected_with_their_parent(self):
        """The acquaintance graph is conservative: a creator is assumed to
        remember its children, so they die together once the driver drops
        the parent."""
        system = ActorSpaceSystem(topology=Topology.lan(2), seed=0)
        spawned = []

        def parent(ctx, message):
            for _ in range(5):
                child = ctx.create(lambda ctx2, m2: None)
                spawned.append(child)

        p = system.create_actor(parent)
        system.send_to(p, "spawn")
        system.run()
        # While the driver holds the parent, the children are pinned
        # through the (conservative) creator edge.
        pinned = system.collect_garbage(delete=False)
        assert not (set(spawned) & pinned.collected_actors)
        # Dropping the parent unpins the whole family.
        system.release(p)
        report = system.collect_garbage()
        assert p in report.collected_actors
        assert set(spawned) <= report.collected_actors

    def test_acquaintance_via_message_keeps_alive(self):
        system = ActorSpaceSystem(topology=Topology.lan(2), seed=0)

        class Keeper(Behavior):
            def __init__(self):
                self.friend = None

            def receive(self, ctx, message):
                self.friend = message.payload  # stores the address

        keeper = Keeper()
        keeper_addr = system.create_actor(keeper)
        hidden = system.create_actor(lambda ctx, m: None)
        system.run()
        system.send_to(keeper_addr, hidden)  # address travels in a message
        system.run()
        system.release(hidden)
        report = system.collect_garbage()
        assert hidden not in report.collected_actors  # keeper knows it
