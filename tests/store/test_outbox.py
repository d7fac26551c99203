"""Tests: NodeStore as an outbox — staged effects, one commit point.

``append_op(..., then=effect)`` stages a record with the effect that may
only happen once it is durable; ``commit()`` makes everything staged
durable with one ``write()`` + ``fsync()`` and then releases the effects
in append order.  The simulator commits right behind every append, so
what it leaves on disk must not have changed at all.
"""

import hashlib
import itertools
import json
import math
import os
import shutil
from unittest import mock

import pytest

from repro.core import messages as messages_mod
from repro.core.addresses import ActorAddress, SpaceAddress
from repro.core.messages import Destination, Envelope, Message, Mode
from repro.runtime import bus as bus_mod
from repro.runtime.clock import VirtualClock
from repro.runtime.events import EventQueue
from repro.runtime.network import Topology
from repro.runtime.system import ActorSpaceSystem
from repro.store import NodeStore
from repro.store.node_store import load_data_dir, segment_paths
from repro.store.replay import replay_recovered

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

    @pytest.mark.parametrize("policy,fsyncs_per_group",
                             [("commit", 1), ("never", 0)])
    def test_group_commit_pays_per_group_not_per_op(self, tmp_path, policy,
                                                    fsyncs_per_group):
        """Commits of eight appends: ``commit`` pays one fsync a group and
        ``never`` none, and recovery and replay read every op back."""
        n = 100
        store = NodeStore(str(tmp_path), fsync=policy)
        for seq in range(n):
            store.append_op(seq, bus_mod.VisibilityOp(
                bus_mod.OpKind.MAKE_VISIBLE,
                {"target": ActorAddress(0, seq + 1),
                 "attributes": f"svc/worker{seq}",
                 "space": SpaceAddress(0, 0), "capability": None},
                origin_node=0, origin_seq=seq))
            if (seq + 1) % 8 == 0:
                store.commit()
        store.commit()
        assert store.metrics_snapshot()["fsyncs"] \
            == fsyncs_per_group * math.ceil(n / 8)
        store.close()
        recovered = load_data_dir(str(tmp_path))
        assert len(recovered.ops) == n and recovered.report.clean
        assert replay_recovered(recovered)[1]["ops_applied"] == n

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



def capture_before_packed_record(i):
    """Probe ``i`` as that scenario's dead-letter journal held it at the
    commit before the packed envelope record (11c880b), decoded."""
    return Envelope(
        Message(("probe", i), message_id=i), sender=None, mode=Mode.SEND,
        target=ActorAddress(1, 0), destination=Destination("svc/victim"),
        sent_at=0.08310243775720488, trace=[0],
        origin_space=SpaceAddress(0, 0), envelope_id=i)


#: sha256 over the segment files it leaves behind now.
SEGMENT_SHA256 = \
    "7cc7c7674bb3d8578f88e04b015cfc3d52ef894abf78e2b6543742f23c8edb18"


def test_simulator_segment_bytes_are_unchanged(tmp_path, monkeypatch):
    """The simulator commits right behind each sequenced op, so a run
    with a store attached writes the same bytes every time (ops and
    dead-letter journal).

    The digest was re-recorded twice, and both times what the records
    decode to stayed put.  When the sequencer became one core per node,
    only the order of the three ``resolve`` records moved (node 1's
    recovery exchanges ``SYNC_REQ``/``SYNC_DONE`` frames whose latency
    draws come from the stream the redeliveries draw from).  When the
    envelope became one packed record (schema 3), only the bytes of the
    three ``capture`` records moved — they hold an envelope each: the
    five op records and the captured envelopes decode equal to the
    parent's (asserted here), and the op records are byte-identical."""
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
    assert [e["envelope"] for e in recovered.dlq_events[:3]] \
        == [capture_before_packed_record(i) for i in range(3)]
    digest = hashlib.sha256()
    for path in segment_paths(str(tmp_path)):
        with open(path, "rb") as segment:
            digest.update(segment.read())
    assert digest.hexdigest() == SEGMENT_SHA256


SCHEMA2_FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "schema2")


def test_a_schema2_data_dir_still_loads(tmp_path):
    """Stores written before schema 3 hold envelopes under the old tag
    ``E`` (dead-letter captures, in the journal and in snapshots).  The
    fixture is such a store, recorded at 11c880b by ``record.py`` beside
    it; it must recover to exactly what its sidecar lists — a codec that
    no longer read ``E`` would see corruption and truncate instead."""
    data_dir = str(tmp_path / "data")
    shutil.copytree(os.path.join(SCHEMA2_FIXTURE, "data"), data_dir)
    with open(os.path.join(SCHEMA2_FIXTURE, "expected.json")) as sidecar:
        expected = json.load(sidecar)

    def letter(envelope):
        target = envelope.target
        return {"envelope_id": envelope.envelope_id,
                "payload": list(envelope.message.payload),
                "target": [target.kind, target.node, target.serial]}

    recovered = load_data_dir(data_dir)
    assert recovered.report.clean
    assert [[seq, op.kind.value, op.origin_node, op.origin_seq, op.op_id]
            for seq, op in recovered.ops.items()] == expected["ops"]
    assert recovered.snapshot_seq == expected["snapshot_seq"]
    assert [letter(parked["envelope"]) for parked in recovered.snapshot["dlq"]] \
        == expected["snapshot_dlq"]
    assert [{"n": e["n"], "kind": e["kind"],
             **(letter(e["envelope"]) if "envelope" in e else {"id": e["id"]})}
            for e in recovered.dlq_events] == expected["dlq_events"]
