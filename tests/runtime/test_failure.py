"""Unit tests: failure detector, quarantine, dead letters, bus failover."""

import numpy as np
import pytest

from repro.core.errors import NodeDownError
from repro.runtime.bus import OpKind, SequencerBus, TokenRingBus, VisibilityOp
from repro.runtime.clock import VirtualClock
from repro.runtime.events import EventQueue
from repro.runtime.network import Network, Topology
from repro.runtime.system import ActorSpaceSystem
from repro.runtime.transport import NetworkTransport


def lan(nodes=3, seed=0, **kw):
    return ActorSpaceSystem(topology=Topology.lan(nodes), seed=seed, **kw)


def harness(bus_cls, nodes=4, **kw):
    clock = VirtualClock()
    events = EventQueue()
    transport = NetworkTransport(
        Network(Topology.lan(nodes), rng=np.random.default_rng(0))
    )
    bus = bus_cls(list(range(nodes)), events, clock, transport, **kw)
    deliveries: dict[int, list[tuple[int, int]]] = {n: [] for n in range(nodes)}
    bus.deliver = lambda node, seq, op: deliveries[node].append((seq, op.op_id))

    def run():
        while events:
            t, action = events.pop()
            clock.advance_to(t)
            action()

    return bus, transport, deliveries, run


def op(origin, origin_seq):
    return VisibilityOp(OpKind.MAKE_VISIBLE, {}, origin, origin_seq)


class TestFailureDetector:
    def test_suspects_then_confirms_crashed_peer(self):
        system = lan(nodes=3)
        detector = system.start_failure_detector(
            10.0, interval=0.5, suspect_after=2, confirm_after=4
        )
        system.crash_node(2)
        system.run(until=0.6)  # one tick: one miss — not yet suspected
        assert 2 not in detector.suspected_by(0)
        system.run(until=1.1)  # second tick: suspected
        assert 2 in detector.suspected_by(0)
        assert 2 not in detector.confirmed_down
        system.run(until=2.1)  # fourth tick: confirmed
        assert 2 in detector.confirmed_down
        assert system.tracer.count("node_suspected_total") >= 1
        assert system.tracer.count("node_confirmed_down_total") == 1

    def test_detector_is_horizon_bounded(self):
        system = lan(nodes=2)
        detector = system.start_failure_detector(2.0, interval=0.5)
        system.run()  # must reach quiescence despite the periodic timer
        assert system.idle
        assert detector.ticks == 4

    def test_confirmation_quarantines_on_all_live_replicas(self):
        system = lan(nodes=3)
        addr = system.create_actor(lambda ctx, m: None, node=2)
        system.make_visible(addr, "svc/a")
        system.run()
        assert system.resolve("svc/*") == [addr]
        system.crash_node(2)
        system.start_failure_detector(5.0, interval=0.5, confirm_after=3)
        system.run()
        for node in (0, 1):
            assert system.resolve("svc/*", node=node) == []
            assert 2 in system.directory_of(node).quarantined_nodes
        assert system.tracer.count("quarantined_entries_total") >= 2  # one entry x 2 replicas

    def test_recovery_unmasks_and_resets_detector(self):
        system = lan(nodes=3)
        addr = system.create_actor(lambda ctx, m: None, node=2)
        system.make_visible(addr, "svc/a")
        system.run()
        system.crash_node(2)
        detector = system.start_failure_detector(5.0, interval=0.5, confirm_after=2)
        system.run()
        assert system.resolve("svc/*") == []
        system.recover_node(2)
        assert detector.confirmed_down == set()
        for node in (0, 1, 2):
            assert system.directory_of(node).quarantined_nodes == frozenset()
        assert system.resolve("svc/*") == [addr]
        assert system.tracer.count("node_recovered_total") >= 1

    def test_quarantine_invalidates_cached_resolutions(self):
        """The PR-1 cache must not serve pre-quarantine results."""
        system = lan(nodes=3)
        dead = system.create_actor(lambda ctx, m: None, node=2)
        alive = system.create_actor(lambda ctx, m: None, node=1)
        system.make_visible(dead, "svc/a")
        system.make_visible(alive, "svc/b")
        system.run()
        assert set(system.resolve("svc/*")) == {dead, alive}  # cache filled
        directory = system.directory_of(0)
        space_epoch = directory.space(system.root_space).epoch
        dir_epoch = directory.epoch
        system.crash_node(2)
        system.start_failure_detector(5.0, interval=0.5, confirm_after=2)
        system.run()
        # Both epoch tiers moved, so the cached entry cannot validate.
        assert directory.epoch > dir_epoch
        assert directory.space(system.root_space).epoch > space_epoch
        assert system.resolve("svc/*") == [alive]

    def test_detector_parameter_validation(self):
        system = lan(nodes=2)
        from repro.runtime.failure import FailureDetector

        with pytest.raises(ValueError):
            FailureDetector(system, interval=0.0)
        with pytest.raises(ValueError):
            FailureDetector(system, suspect_after=3, confirm_after=2)


class TestDeadLetterQueue:
    def test_capture_and_redeliver_on_recovery(self):
        system = lan(nodes=3)
        received = []
        addr = system.create_actor(lambda ctx, m: received.append(m.payload),
                                   node=2)
        system.run()
        system.crash_node(2)
        system.send_to(addr, "during-outage")
        system.run()
        assert received == []
        assert system.dead_letters.pending(2) == 1
        system.recover_node(2)
        system.run()
        assert received == ["during-outage"]
        assert system.dead_letters.pending() == 0
        assert system.dead_letters.redelivered_total == 1
        assert system.tracer.count("dead_letters_redelivered_total") == 1

    def test_bounded_capacity_expires_oldest(self):
        system = lan(nodes=3, dlq_capacity=2)
        addr = system.create_actor(lambda ctx, m: None, node=2)
        system.run()
        system.crash_node(2)
        for i in range(5):
            system.send_to(addr, i)
        system.run()
        assert system.dead_letters.pending(2) == 2
        assert system.dead_letters.expired_total == 3
        assert system.dead_letters.queued_total == 5

    def test_max_redeliveries_expires_letter(self):
        system = lan(nodes=3, dlq_max_redeliveries=1)
        received = []
        addr = system.create_actor(lambda ctx, m: received.append(m.payload),
                                   node=2)
        system.run()
        system.crash_node(2)
        system.send_to(addr, "doomed")
        system.run()
        # Flush schedules the (only allowed) redelivery, but the node dies
        # again before the backoff elapses — the letter must expire, not loop.
        system.recover_node(2)
        system.crash_node(2)
        system.run()
        assert system.dead_letters.expired_total == 1
        assert system.dead_letters.pending() == 0
        system.recover_node(2)
        system.run()
        assert received == []

    def test_redelivery_backoff_is_capped_exponential(self):
        system = lan(nodes=2)
        dlq = system.dead_letters
        assert dlq.base_backoff * 2 ** 0 == dlq.base_backoff
        # The schedule delay for a letter with many attempts is capped.
        from repro.runtime.failure import DeadLetter
        from repro.core.messages import Envelope, Message, Mode, Port

        letter = DeadLetter(
            Envelope(message=Message("x"), sender=None, mode=Mode.DIRECT,
                     target=None, port=Port.INVOCATION, sent_at=0.0),
            dst_node=1, reason="node_down", queued_at=0.0, attempts=20,
        )
        before = system.clock.now
        dlq._schedule(letter)
        t_next = system.events.peek_time()
        assert t_next is not None
        assert t_next - before <= dlq.max_backoff + 1e-9

    def test_dead_letter_capture_is_additive_to_drop_counters(self):
        system = lan(nodes=3)
        addr = system.create_actor(lambda ctx, m: None, node=2)
        system.run()
        system.crash_node(2)
        system.send_to(addr, "x")
        system.run()
        assert system.tracer.dropped["node_down"] == 1  # unchanged semantics
        assert system.dead_letters.queued_total == 1


class TestSequencerFailover:
    def test_submit_never_raises_when_sequencer_down(self):
        bus, transport, deliveries, run = harness(SequencerBus)
        transport.crash_node(0)  # the default sequencer
        bus.submit(op(1, 0))  # must not raise NodeDownError
        run()
        assert bus.sequencer_node != 0
        assert bus.failovers >= 1
        for node in (1, 2, 3):
            assert len(deliveries[node]) == 1

    def test_sequencer_crash_mid_run_reelects_and_redrives(self):
        bus, transport, deliveries, run = harness(SequencerBus)
        bus.submit(op(1, 0))
        run()
        transport.crash_node(0)
        bus.on_node_down(0)
        bus.submit(op(2, 0))
        bus.submit(op(1, 1))
        run()
        assert bus.sequencer_node == 1
        live_seen = {node: sorted(deliveries[node]) for node in (1, 2, 3)}
        assert all(len(seen) == 3 for seen in live_seen.values())
        assert live_seen[1] == live_seen[2] == live_seen[3]
        seqs = [s for s, _ in live_seen[1]]
        assert seqs == [0, 1, 2]  # gap-free across the failover

    def test_failover_in_system_keeps_replicas_coherent(self):
        system = lan(nodes=4)
        a = system.create_actor(lambda ctx, m: None, node=1)
        system.make_visible(a, "pre", node=1)
        system.run()
        system.crash_node(0)  # the sequencer
        b = system.create_actor(lambda ctx, m: None, node=2)
        system.make_visible(b, "post", node=2)
        system.run()
        root = system.directory_of(1).space(system.root_space)
        assert a in root and b in root
        assert system.bus.failovers >= 1
        system.recover_node(0)
        system.run()
        assert system.replicas_coherent()

    def test_total_outage_parks_then_recovers(self):
        bus, transport, deliveries, run = harness(SequencerBus, nodes=2)
        transport.crash_node(0)
        transport.crash_node(1)
        bus.submit(op(0, 0))  # origin down: lost with its node
        run()
        assert all(not seen for seen in deliveries.values())


class TestTokenRingFailover:
    def test_crashed_initial_holder_regenerates_token(self):
        bus, transport, deliveries, run = harness(TokenRingBus)
        transport.crash_node(0)  # holder index starts at node 0
        bus.submit(op(1, 0))
        run()  # must not raise out of the loop
        assert bus.failovers >= 1
        for node in (1, 2, 3):
            assert len(deliveries[node]) == 1

    def test_crashed_next_holder_does_not_kill_token_pass(self):
        """The satellite bugfix: deliver_latency(holder, next) is guarded."""
        bus, transport, deliveries, run = harness(TokenRingBus)
        bus.submit(op(0, 0))
        transport.crash_node(1)  # next holder after node 0
        bus.submit(op(2, 0))
        run()
        assert len(deliveries[0]) == 2
        assert len(deliveries[2]) == 2

    def test_pending_ops_at_crashed_node_do_not_spin_forever(self):
        bus, transport, deliveries, run = harness(TokenRingBus)
        bus.submit(op(1, 0))
        transport.crash_node(1)
        run()  # terminates: the parked op must not keep the token alive
        assert all(not seen for seen in deliveries.values())
        transport.recover_node(1)
        bus.on_node_recovered(1)
        run()
        for node in range(4):
            assert len(deliveries[node]) == 1

    def test_token_ring_crash_in_system_never_escapes(self):
        system = lan(nodes=4, bus="token-ring")
        a = system.create_actor(lambda ctx, m: None, node=1)
        system.make_visible(a, "pre", node=1)
        system.run()
        system.crash_node(0)
        b = system.create_actor(lambda ctx, m: None, node=2)
        system.make_visible(b, "post", node=2)
        system.run()  # no NodeDownError out of the event loop
        root = system.directory_of(2).space(system.root_space)
        assert a in root and b in root
        system.recover_node(0)
        system.run()
        assert system.replicas_coherent()


class TestReplayLiveSource:
    def test_replay_prefers_a_live_source(self):
        system = lan(nodes=3)
        system.run()
        system.crash_node(2)
        a = system.create_actor(lambda ctx, m: None, node=1)
        system.make_visible(a, "x", node=1)
        system.run()  # node 2 misses these ops
        system.crash_node(0)  # the historical fixed replay source
        system.recover_node(2)  # must source from node 1, not dead node 0
        system.run()
        assert a in system.directory_of(2).space(system.root_space)
        system.recover_node(0)
        system.run()
        assert system.replicas_coherent()

    def test_replay_with_no_live_source_raises(self):
        system = lan(nodes=2)
        a = system.create_actor(lambda ctx, m: None, node=0)
        system.make_visible(a, "x")
        system.run()
        system.crash_node(0)
        system.crash_node(1)
        with pytest.raises(NodeDownError):
            system.bus.replay_to(1, {0: 0})

    def test_replay_with_empty_log_is_a_noop(self):
        system = lan(nodes=2)
        system.crash_node(0)
        system.crash_node(1)
        assert system.bus.replay_to(1, {0: 0}) == 0  # nothing pending: no raise
