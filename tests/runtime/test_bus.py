"""Unit tests: the coordinator bus (total order, per-origin FIFO)."""

import numpy as np
import pytest

from repro.runtime.bus import OpKind, SequencerBus, TokenRingBus, VisibilityOp
from repro.runtime.clock import VirtualClock
from repro.runtime.events import EventQueue
from repro.runtime.network import Network, Topology
from repro.runtime.transport import NetworkTransport


def record_deliveries(bus, nodes):
    """Stand in for the host's replicas: ``deliveries[node]`` lists
    ``(seq, op_id)`` in arrival order, and each node's applied cursor
    advances over the contiguous prefix, as a coordinator's hold-back
    queue does."""
    deliveries: dict[int, list[tuple[int, int]]] = {n: [] for n in range(nodes)}
    bus.applied = [[0] for _ in range(nodes)]
    ahead: dict[int, set[int]] = {n: set() for n in range(nodes)}

    def deliver(node, seq, op):
        deliveries[node].append((seq, op.op_id))
        cursor, held = bus.applied[node], ahead[node]
        held.add(seq)
        while cursor[0] in held:
            held.remove(cursor[0])
            cursor[0] += 1

    bus.deliver = deliver
    return deliveries


def harness(bus_cls, nodes=4, **kw):
    clock = VirtualClock()
    events = EventQueue()
    transport = NetworkTransport(
        Network(Topology.lan(nodes), rng=np.random.default_rng(0))
    )
    bus = bus_cls(list(range(nodes)), events, clock, transport, **kw)
    deliveries = record_deliveries(bus, nodes)

    def run():
        while events:
            t, action = events.pop()
            clock.advance_to(t)
            action()

    return bus, deliveries, run


def op(origin, origin_seq):
    return VisibilityOp(OpKind.MAKE_VISIBLE, {}, origin, origin_seq)


@pytest.mark.parametrize("bus_cls", [SequencerBus, TokenRingBus])
class TestTotalOrder:
    def test_every_node_sees_every_op_once(self, bus_cls):
        bus, deliveries, run = harness(bus_cls)
        ops = [op(i % 4, i // 4) for i in range(12)]
        for o in ops:
            bus.submit(o)
        run()
        for node, seen in deliveries.items():
            assert len(seen) == 12, f"node {node} saw {len(seen)}"

    def test_identical_sequence_numbers_across_nodes(self, bus_cls):
        bus, deliveries, run = harness(bus_cls)
        for i in range(10):
            bus.submit(op(i % 4, i // 4))
        run()
        reference = sorted(deliveries[0])
        for node in range(1, 4):
            assert sorted(deliveries[node]) == reference

    def test_sequence_is_gap_free(self, bus_cls):
        bus, deliveries, run = harness(bus_cls)
        for i in range(7):
            bus.submit(op(0, i))
        run()
        seqs = sorted(s for s, _ in deliveries[2])
        assert seqs == list(range(7))

    def test_per_origin_fifo(self, bus_cls):
        """Ops from one origin are sequenced in submission order."""
        bus, deliveries, run = harness(bus_cls)
        submitted = [op(1, i) for i in range(8)]
        for o in submitted:
            bus.submit(o)
        run()
        order = {op_id: seq for seq, op_id in deliveries[0]}
        seqs = [order[o.op_id] for o in submitted]
        assert seqs == sorted(seqs)

    def test_interleaved_origins_still_fifo_per_origin(self, bus_cls):
        bus, deliveries, run = harness(bus_cls)
        a_ops = [op(0, i) for i in range(5)]
        b_ops = [op(3, i) for i in range(5)]
        for pair in zip(a_ops, b_ops):
            for o in pair:
                bus.submit(o)
        run()
        order = {op_id: seq for seq, op_id in deliveries[1]}
        assert [order[o.op_id] for o in a_ops] == sorted(order[o.op_id] for o in a_ops)
        assert [order[o.op_id] for o in b_ops] == sorted(order[o.op_id] for o in b_ops)

    def test_cost_accounting(self, bus_cls):
        bus, _deliveries, run = harness(bus_cls)
        for i in range(5):
            bus.submit(op(0, i))
        run()
        assert bus.ops_sequenced == 5
        assert bus.protocol_messages > 0


class TestProtocolDifferences:
    def test_sequencer_message_cost(self):
        bus, _d, run = harness(SequencerBus)
        for i in range(10):
            bus.submit(op(1, i))
        run()
        # submit unicast + fan-out to 4 nodes = 5 messages per op
        assert bus.protocol_messages == 10 * 5

    def test_token_ring_parks_when_idle(self):
        bus, _d, run = harness(TokenRingBus)
        bus.submit(op(0, 0))
        run()
        assert not bus._token_started  # token parked after the queue drained
        bus.submit(op(0, 1))  # resubmission restarts the token
        run()
        assert bus.ops_sequenced == 2

    def test_sequencer_node_configurable(self):
        bus, _d, run = harness(SequencerBus, sequencer_node=2)
        assert bus.sequencer_node == 2
        bus.submit(op(0, 0))
        run()
        assert bus.ops_sequenced == 1
