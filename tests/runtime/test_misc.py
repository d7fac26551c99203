"""Edge-case tests: node views, system options, tracer, context guards."""

import pytest

from repro.core.messages import Destination, Mode
from repro.runtime.network import LatencyModel, LinkKind, Topology
from repro.runtime.system import ActorSpaceSystem


def live_actors(system, node):
    return sum(not r.terminated
               for r in system.coordinators[node].actors.values())


class TestNodeView:
    """Per-node accounting, read through the host."""

    def test_counts_and_cluster(self):
        system = ActorSpaceSystem(topology=Topology.wan(2, 2), seed=0)
        assert system.topology.cluster_of(2) == 1
        assert live_actors(system, 2) == 0
        addr = system.create_actor(lambda ctx, m: None, node=2)
        assert live_actors(system, 2) == 1
        system.send_to(addr, "job", node=2)
        system.send("nobody/home", "parked", node=2)
        system.run(max_events=1)  # the job is in the mailbox, not yet run
        assert (system.queue_depth(2), system.parked(2)) == (1, 1)
        assert (system.queue_depth(0), system.parked(0)) == (0, 0)
        system.run()
        assert (system.queue_depth(2), system.parked(2)) == (0, 1)
        assert not system.coordinators[2].crashed
        system.crash_node(2)
        assert system.coordinators[2].crashed

    def test_terminated_actors_not_counted(self):
        system = ActorSpaceSystem(seed=0)
        addr = system.create_actor(lambda ctx, m: None)
        system.send_to(addr, "job")
        system.run(max_events=1)
        assert (live_actors(system, 0), system.queue_depth()) == (1, 1)
        system.coordinators[0].terminate_actor(addr)
        assert (live_actors(system, 0), system.queue_depth()) == (0, 0)

    def test_coordinator_accessor(self):
        system = ActorSpaceSystem(topology=Topology.lan(2), seed=0)
        assert system._local(1) is system.coordinators[1]
        assert system._local(None) is system.coordinators[0]
        with pytest.raises(ValueError, match="not local"):
            system.queue_depth(2)


class TestSystemOptions:
    def test_bad_bus_name_rejected(self):
        with pytest.raises(ValueError):
            ActorSpaceSystem(bus="carrier-pigeon")

    def test_processing_delay_consumes_time(self):
        def finish_time(delay):
            system = ActorSpaceSystem(seed=0, processing_delay=delay)
            addr = system.create_actor(lambda ctx, m: None)
            for i in range(5):
                system.send_to(addr, i)
            return system.run()

        assert finish_time(0.1) > finish_time(0.0)

    def test_custom_latency_model(self):
        slow = LatencyModel(lan=5.0, jitter=0.0)
        system = ActorSpaceSystem(topology=Topology.lan(2), seed=0,
                                  latency_model=slow)
        got = []
        addr = system.create_actor(lambda ctx, m: got.append(ctx.now), node=1)
        system.send_to(addr, "x")
        system.run()
        assert got[0] == pytest.approx(5.0)

    def test_same_seed_same_run(self):
        def trace():
            system = ActorSpaceSystem(topology=Topology.lan(3), seed=99)
            order = []
            for i in range(3):
                addr = system.create_actor(
                    lambda ctx, m, i=i: order.append((i, round(ctx.now, 9))),
                    node=i)
                system.make_visible(addr, f"g/m{i}")
            system.run()
            for i in range(9):
                system.send("g/*", i)
            system.run()
            return order

        assert trace() == trace()

    def test_step_executes_one_event(self):
        system = ActorSpaceSystem(seed=0)
        addr = system.create_actor(lambda ctx, m: None)
        system.send_to(addr, "x")
        before = system.events.executed_count
        assert system.step()
        assert system.events.executed_count == before + 1
        while system.step():
            pass
        assert not system.step()


class TestContextGuards:
    def test_negative_schedule_rejected(self):
        system = ActorSpaceSystem(seed=0)
        errors = []

        def behavior(ctx, message):
            try:
                ctx.schedule(-1.0, "nope")
            except ValueError as e:
                errors.append(e)

        addr = system.create_actor(behavior)
        system.send_to(addr, "go")
        system.run()
        assert len(errors) == 1

    def test_context_identity_properties(self):
        system = ActorSpaceSystem(seed=0)
        seen = {}

        def behavior(ctx, message):
            seen["self"] = ctx.self_address
            seen["host"] = ctx.host_space
            seen["now"] = ctx.now

        addr = system.create_actor(behavior)
        system.send_to(addr, "x")
        system.run()
        assert seen["self"] == addr
        assert seen["host"] == system.root_space
        assert seen["now"] >= 0

    def test_actor_created_space_is_heritable(self):
        """An actor created inside a space hosts its children there too."""
        system = ActorSpaceSystem(seed=0)
        space = system.create_space()
        system.run()
        hosts = []

        def child(ctx, message):
            hosts.append(ctx.host_space)

        def parent(ctx, message):
            addr = ctx.create(child)
            ctx.send_to(addr, "check")

        p = system.create_actor(parent, space=space)
        system.send_to(p, "go")
        system.run()
        assert hosts == [space]

    def test_pattern_space_destination_from_actor(self):
        system = ActorSpaceSystem(seed=0)
        pool = system.create_space(attributes="pools/main")
        system.run()
        got = []
        worker = system.create_actor(lambda ctx, m: got.append(m.payload),
                                     space=pool)
        system.make_visible(worker, "w1", pool)
        system.run()

        def sender(ctx, message):
            # The @space part given as a pattern, resolved in the host space.
            ctx.send(Destination("w1", "pools/*"), "via-pattern-space")

        s = system.create_actor(sender)
        system.send_to(s, "go")
        system.run()
        assert got == ["via-pattern-space"]


class TestTracerExtras:
    def test_hop_summary_keys(self):
        system = ActorSpaceSystem(topology=Topology.wan(1, 1), seed=0)
        addr = system.create_actor(lambda ctx, m: None, node=1)
        system.send_to(addr, "x")
        system.run()
        summary = system.metrics.snapshot()["hops_total"]
        assert set(summary) <= {str(kind) for kind in LinkKind}
        assert summary[str(LinkKind.WAN)] == 1
        assert system.tracer.hops[LinkKind.WAN] == 1

    def test_deliveries_counted_by_mode_latency_once(self):
        system = ActorSpaceSystem(seed=0)
        addr = system.create_actor(lambda ctx, m: None)
        system.make_visible(addr, "a")
        system.run()
        system.send_to(addr, 1)
        system.broadcast("a", 2)
        system.run()
        snap = system.metrics.snapshot()
        assert snap["messages_delivered_total"] == {
            str(Mode.BROADCAST): 1, str(Mode.DIRECT): 1}
        # One distribution for all modes; who sent what when is the
        # flight recorder's (``trace=True``), not a second copy here.
        assert snap["delivery_latency"]["count"] == 2
        system.tracer.reset()
        assert system.metrics.snapshot()["delivery_latency"]["count"] == 0

    def test_handles_survive_reset_and_count_one_message_once(self):
        system = ActorSpaceSystem(topology=Topology.lan(2), seed=0)
        addr = system.create_actor(lambda ctx, m: None, node=1)
        system.make_visible(addr, "a")
        system.send("a", 0)
        system.run()
        tracer = system.tracer
        tracer.reset()  # zeroes in place: the hooks' handles stay bound
        system.send("a", 1)
        system.run()
        assert tracer.sent[Mode.SEND] == tracer.delivered[Mode.SEND] == 1
        assert tracer.hops[LinkKind.LAN] == tracer.received_by[addr] == 1
        assert tracer.count("behavior_invocations_total") == 1
        assert tracer.count("resolution_cache_hits_total") \
            + tracer.count("resolution_cache_misses_total") >= 1
        assert tracer.latency_hist.count == tracer.resolution_hist.count == 1
        snap = system.metrics.snapshot()
        assert snap["messages_sent_total"] == {str(Mode.SEND): 1}
        assert snap["hops_total"] == {str(LinkKind.LAN): 1}
        assert snap["behavior_invocations_total"] == 1
        assert snap["messages_suspended_total"] == 0  # registered at zero

    def test_a_replaced_hook_is_seen_by_the_very_next_message(self):
        # What ``check/oracle.py::_Recorder.install`` does to a live system.
        system = ActorSpaceSystem(topology=Topology.lan(2), seed=0)
        addr = system.create_actor(lambda ctx, m: None, node=1)
        system.send_to(addr, 0)
        system.run()
        tracer, seen = system.tracer, []
        on_hop, on_enqueued = tracer.on_hop, tracer.on_enqueued

        def spy_hop(kind, envelope=None, **kw):
            seen.append(("hop", kind, envelope.message.payload))
            return on_hop(kind, envelope, **kw)

        def spy_enqueued(envelope=None, **kw):
            seen.append(("enqueued", kw["receiver"], envelope.message.payload))
            return on_enqueued(envelope, **kw)

        tracer.on_hop, tracer.on_enqueued = spy_hop, spy_enqueued
        system.send_to(addr, 1)
        system.run()
        assert seen == [("hop", LinkKind.LAN, 1), ("enqueued", addr, 1)]
        assert tracer.hops[LinkKind.LAN] == 2  # the real hook still counted
