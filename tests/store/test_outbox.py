"""Tests: NodeStore as an outbox — staged effects, one commit point.

``append_op(..., then=effect)`` stages a record with the effect that may
only happen once it is durable; ``commit()`` makes everything staged
durable with one ``write()`` + ``fsync()`` and then releases the effects
in append order.  The simulator commits right behind every append, so
what it leaves on disk must not have changed at all.
"""

import hashlib
import itertools
import os
from unittest import mock

import pytest

from repro.core import messages as messages_mod
from repro.core.addresses import ActorAddress, SpaceAddress
from repro.runtime import bus as bus_mod
from repro.runtime.clock import VirtualClock
from repro.runtime.events import EventQueue
from repro.runtime.network import Topology
from repro.runtime.system import ActorSpaceSystem
from repro.store import NodeStore
from repro.store.node_store import load_data_dir, segment_paths

SAMPLE_OP = bus_mod.VisibilityOp(
    bus_mod.OpKind.MAKE_VISIBLE,
    {"target": ActorAddress(0, 1), "attributes": "svc/sample",
     "space": SpaceAddress(0, 0), "capability": None},
    origin_node=0, op_id=1)


@pytest.fixture
def fsyncs():
    """Every ``os.fsync`` the store issues, counted instead of performed."""
    calls = []
    with mock.patch.object(os, "fsync", calls.append):
        yield calls


class TestStagedEffects:
    def test_effects_run_after_one_fsync_in_append_order(self, tmp_path, fsyncs):
        store = NodeStore(str(tmp_path))
        del fsyncs[:]  # opening the segment synced its directory
        tape = []
        for seq in range(5):
            store.append_op(seq, SAMPLE_OP,
                            then=lambda seq=seq: tape.append((seq, len(fsyncs))))
        store.defer(lambda: tape.append(("deferred", len(fsyncs))))
        assert tape == [] and fsyncs == [] and store.dirty
        assert store.commit() == 5
        assert tape == [(0, 1), (1, 1), (2, 1), (3, 1), (4, 1), ("deferred", 1)]
        assert not store.dirty
        assert sorted(load_data_dir(str(tmp_path)).ops) == list(range(5))
        store.close()

    def test_what_an_effect_stages_waits_for_the_next_commit(self, tmp_path,
                                                             fsyncs):
        store = NodeStore(str(tmp_path))
        tape = []
        store.append_op(0, SAMPLE_OP, then=lambda: store.append_op(
            1, SAMPLE_OP, then=lambda: tape.append(len(fsyncs))))
        before = len(fsyncs)
        store.commit()
        assert tape == [] and store.dirty  # seq 1 is staged, not durable
        store.commit()
        assert tape == [before + 2]
        store.close()

    def test_a_raising_effect_leaves_the_rest_queued(self, tmp_path):
        store = NodeStore(str(tmp_path), fsync="never")
        tape = []
        store.append_op(0, SAMPLE_OP, then=lambda: 1 / 0)
        store.append_op(1, SAMPLE_OP, then=lambda: tape.append(1))
        with pytest.raises(ZeroDivisionError):
            store.commit()
        assert tape == [] and store.dirty
        store.commit()
        assert tape == [1]
        store.close()

    def test_a_failed_fsync_releases_nothing(self, tmp_path):
        store = NodeStore(str(tmp_path))
        tape = []
        store.append_op(0, SAMPLE_OP, then=lambda: tape.append(0))
        with mock.patch.object(os, "fsync", side_effect=OSError("disk gone")):
            with pytest.raises(OSError):
                store.commit()
        store.commit()  # the next turn must not act on the lost op either
        assert tape == []
        store.close()

    def test_fsync_count_survives_rotation(self, tmp_path):
        store = NodeStore(str(tmp_path), segment_bytes=1)  # rotate per commit
        for seq in range(3):
            store.append_op(seq, SAMPLE_OP)
            store.commit()
        snap = store.metrics_snapshot()
        assert snap["segments"] == 4
        assert snap["fsyncs"] >= snap["ops_appended"] == 3
        store.close()


class TestBatchPolicyTail:
    """``fsync="batch"`` used to sync only when a *later* commit found the
    interval elapsed, so the commits before a quiet spell stayed unsynced
    until ``close()`` — an arbitrarily old tail, not "the last interval".
    """

    def host(self):
        return EventQueue(), VirtualClock()

    def run_until(self, events, clock, t):
        while events and events.peek_time() <= t:
            when, action = events.pop()
            clock.advance_to(when)
            action()
        clock.advance_to(t)

    def test_quiet_tail_is_synced_within_one_interval(self, tmp_path, fsyncs):
        events, clock = self.host()
        store = NodeStore(str(tmp_path), fsync="batch", batch_interval=0.05)
        del fsyncs[:]
        for seq in range(3):  # a burst, then silence
            store.append_op(seq, SAMPLE_OP)
            store.commit()
            store.arm_sync(events, clock.now)
            clock.advance_to(clock.now + 0.001)
        assert fsyncs == [] and len(events) == 1  # one timer, not three
        self.run_until(events, clock, 0.049)
        assert fsyncs == []
        self.run_until(events, clock, 0.051)
        assert len(fsyncs) == 1
        self.run_until(events, clock, 10.0)
        assert len(fsyncs) == 1 and not events  # nothing left to sync or arm
        store.close()

    def test_steady_traffic_syncs_once_per_interval(self, tmp_path, fsyncs):
        events, clock = self.host()
        store = NodeStore(str(tmp_path), fsync="batch", batch_interval=0.05)
        del fsyncs[:]
        for seq in range(100):  # a commit every 5 ms for half a second
            store.append_op(seq, SAMPLE_OP)
            store.commit()
            store.arm_sync(events, clock.now)
            self.run_until(events, clock, clock.now + 0.005)
        assert 9 <= len(fsyncs) <= 10
        store.close()

    def test_other_policies_arm_nothing(self, tmp_path):
        events, clock = self.host()
        for policy in ("commit", "never"):
            store = NodeStore(str(tmp_path / policy), fsync=policy)
            store.append_op(0, SAMPLE_OP)
            store.commit()
            store.arm_sync(events, clock.now)
            store.close()
        assert not events

    def test_simulator_bus_arms_the_timer_on_its_event_queue(self, tmp_path,
                                                             fsyncs):
        system = ActorSpaceSystem(topology=Topology.lan(2), seed=3)
        store = NodeStore(str(tmp_path), fsync="batch")
        system.bus.shards[0].store = store
        del fsyncs[:]
        actor = system.create_actor(lambda ctx, m: None, node=1)
        system.make_visible(actor, "svc/a")
        system.run()  # quiescent: the timer has fired in virtual time
        assert store.ops_appended == 1 and len(fsyncs) == 1
        store.close()


#: What the scenario below persisted at the commit before the sequencer
#: core (e8eb014), decoded: (seq, kind, origin node, origin seq, op id).
OPS_BEFORE_SEQUENCER_CORE = [
    (0, "make_visible", 0, 0, 0), (1, "add_space", 0, 1, 1),
    (2, "make_visible", 0, 2, 2), (3, "make_visible", 0, 3, 3),
    (4, "change_attributes", 0, 4, 4)]
#: sha256 over the segment files it leaves behind now.
SEGMENT_SHA256 = \
    "da48fe65b8903a104874942befb2dbe1a39955abdfb71add1a0d345d12273138"


def test_simulator_segment_bytes_are_unchanged(tmp_path, monkeypatch):
    """The simulator commits right behind each sequenced op, so a run
    with a store attached writes the same bytes every time (ops and
    dead-letter journal).

    The digest was re-recorded once, when the sequencer became one core
    per node: the op records decode to exactly what they were (asserted
    here), and so do the three dead-letter captures; only the order of
    the three ``resolve`` records moved, because node 1's recovery now
    exchanges ``SYNC_REQ``/``SYNC_DONE`` frames whose latency draws come
    from the stream the redeliveries draw from."""
    for module, counter in ((messages_mod, "_envelope_ids"),
                            (messages_mod, "_message_ids"),
                            (bus_mod, "_op_ids")):
        monkeypatch.setattr(module, counter, itertools.count())
    system = ActorSpaceSystem(topology=Topology.lan(2), seed=2)
    store = NodeStore(str(tmp_path))
    system.bus.shards[0].store = store
    system.dead_letters.store = store
    hits = []
    victim = system.create_actor(lambda ctx, m: hits.append(m.payload), node=1)
    system.make_visible(victim, "svc/victim")
    system.run()
    system.crash_node(1)
    for i in range(3):
        system.send("svc/victim", ("probe", i))
    system.run()
    space = system.create_space(node=0, attributes="region/x")
    system.make_visible(victim, "svc/again", space)
    system.run()
    system.recover_node(1)
    system.run()
    system.change_attributes(victim, "svc/renamed")
    system.run()
    store.close()
    assert (len(hits), store.ops_appended, store.dlq_appended) == (3, 5, 6)
    recovered = load_data_dir(str(tmp_path))
    assert [(seq, op.kind.value, op.origin_node, op.origin_seq, op.op_id)
            for seq, op in recovered.ops.items()] == OPS_BEFORE_SEQUENCER_CORE
    assert [e["kind"] for e in recovered.dlq_events] \
        == ["capture"] * 3 + ["resolve"] * 3
    digest = hashlib.sha256()
    for path in segment_paths(str(tmp_path)):
        with open(path, "rb") as segment:
            digest.update(segment.read())
    assert digest.hexdigest() == SEGMENT_SHA256
