"""Unit tests: topology and latency model."""

import numpy as np
import pytest

from repro.runtime.network import LatencyModel, LinkKind, Network, Topology
from repro.runtime.rng import default_rng


class TestTopology:
    def test_single(self):
        t = Topology.single()
        assert t.node_count == 1
        assert t.link_kind(0, 0) is LinkKind.LOCAL

    def test_lan(self):
        t = Topology.lan(4)
        assert t.node_count == 4
        assert t.cluster_count == 1
        assert t.link_kind(0, 3) is LinkKind.LAN
        assert t.link_kind(2, 2) is LinkKind.LOCAL

    def test_wan(self):
        t = Topology.wan(2, 3)
        assert t.node_count == 5
        assert t.cluster_of(0) == 0
        assert t.cluster_of(1) == 0
        assert t.cluster_of(2) == 1
        assert t.link_kind(0, 1) is LinkKind.LAN
        assert t.link_kind(1, 2) is LinkKind.WAN
        assert t.cluster_nodes(1) == [2, 3, 4]

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            Topology([])
        with pytest.raises(ValueError):
            Topology([0])


class TestLatencyModel:
    def test_class_ordering(self):
        m = LatencyModel()
        assert m.local < m.lan < m.wan

    def test_sample_within_jitter_bounds(self):
        m = LatencyModel(jitter=0.25)
        rng = np.random.default_rng(0)
        for _ in range(200):
            v = m.sample(LinkKind.LAN, rng)
            assert 0.75 * m.lan <= v <= 1.25 * m.lan

    def test_zero_jitter_is_exact(self):
        m = LatencyModel(jitter=0.0)
        rng = np.random.default_rng(0)
        assert m.sample(LinkKind.WAN, rng) == m.wan


class TestNetwork:
    def test_latency_counts_hops_by_kind(self):
        net = Network(Topology.wan(2, 2), rng=np.random.default_rng(0))
        net.latency(0, 1)  # LAN
        net.latency(0, 2)  # WAN
        net.latency(3, 3)  # LOCAL
        assert net.hop_counts[LinkKind.LAN] == 1
        assert net.hop_counts[LinkKind.WAN] == 1
        assert net.hop_counts[LinkKind.LOCAL] == 1
        net.reset_counts()
        assert sum(net.hop_counts.values()) == 0

    def test_wan_latency_dominates_lan(self):
        net = Network(Topology.wan(2, 2), rng=np.random.default_rng(1))
        lan = np.mean([net.latency(0, 1) for _ in range(100)])
        wan = np.mean([net.latency(0, 2) for _ in range(100)])
        assert wan > 5 * lan


class TestLatencyStreamPinned:
    """``Network.latency`` draws one jitter uniform per hop from its
    stream; that must stay numpy's scalar stream, draw for draw."""

    HOPS = [(0, 0), (0, 1), (0, 2), (2, 3), (3, 1), (1, 1), (1, 0)]

    def test_hop_draws_equal_scalar_samples(self):
        model = LatencyModel()
        net = Network(Topology.wan(2, 2), model, default_rng(42))
        reference = np.random.default_rng(42)
        topology = net.topology
        draws = 500
        for i in range(draws):
            src, dst = self.HOPS[i % len(self.HOPS)]
            expected = model.sample(topology.link_kind(src, dst), reference)
            assert net.latency(src, dst) == expected, f"draw {i} drifted"
        assert sum(net.hop_counts.values()) == draws
        assert net.hop_counts[LinkKind.LOCAL] == sum(
            1 for i in range(draws)
            if topology.link_kind(*self.HOPS[i % len(self.HOPS)])
            is LinkKind.LOCAL)
        net.reset_counts()
        assert net.hop_counts == {kind: 0 for kind in LinkKind}

    def test_jitter_off_consumes_no_draw(self):
        jittery, flat = LatencyModel(), LatencyModel(jitter=0.0)
        net = Network(Topology.wan(2, 2), jittery, np.random.default_rng(7))
        reference = np.random.default_rng(7)
        for _ in range(5):
            assert net.latency(0, 2) == jittery.sample(LinkKind.WAN, reference)
        net.latency_model = flat
        assert [net.latency(0, 1) for _ in range(50)] == [flat.lan] * 50
        assert net.hop_counts[LinkKind.LAN] == 50
        net.latency_model = jittery
        for _ in range(5):
            assert net.latency(0, 1) == jittery.sample(LinkKind.LAN, reference)

    def test_whole_system_delivery_schedule_is_the_parents(self, monkeypatch):
        """Every delivery of a seeded 3-node run — which envelope, to
        whom, at what virtual time — hashed; the value was recorded at
        the commit before latencies were drawn in blocks, so a change
        that reorders or adds one RNG draw fails here, not in E1-E17."""
        import hashlib
        import itertools

        from repro.core import messages
        from repro.runtime.system import ActorSpaceSystem

        monkeypatch.setattr(messages, "_envelope_ids", itertools.count())
        monkeypatch.setattr(messages, "_message_ids", itertools.count())
        system = ActorSpaceSystem(topology=Topology.wan(2, 1), seed=11)
        deliveries = []
        counted = system.tracer.on_delivered

        def on_delivered(mode, receiver, sent_at, delivered_at, src_node,
                         dst_node, envelope=None):
            deliveries.append(
                (envelope.envelope_id, str(receiver), repr(delivered_at)))
            counted(mode, receiver, sent_at, delivered_at, src_node,
                    dst_node, envelope=envelope)

        system.tracer.on_delivered = on_delivered

        def worker(ctx, message):
            if message.reply_to is not None:
                ctx.send_to(message.reply_to, ("ack", message.payload))

        sink = system.create_actor(lambda ctx, message: None, node=0)
        workers = []
        for index in range(6):
            address = system.create_actor(worker, node=index % 3)
            system.make_visible(address, f"w/{index}", system.root_space)
            workers.append(address)
        system.run()
        for index in range(200):
            if index % 10 == 9:
                system.broadcast("w/*", index, reply_to=sink)
            elif index % 3 == 0:
                system.send_to(workers[index % 6], index, reply_to=sink)
            else:
                system.send("w/*", index, reply_to=sink, node=index % 3)
            if index % 25 == 24:
                system.run()
        system.run()
        assert len(deliveries) == 600
        digest = hashlib.sha256(repr(deliveries).encode()).hexdigest()
        assert digest == "56c79f34ca98770efaf9305f05d6fc444bc45f7c8311004e8d3fe6884049858f"
