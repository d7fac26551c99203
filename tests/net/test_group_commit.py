"""Tests: the outbox invariant when a turn commits once, not once per op.

The commit point is the end of a loop turn — one inbound read batch or
one burst of due events — so a batch of N frames costs each store it
touched one ``write()`` + ``fsync()``.  What must not change is the
contract: an op is on disk before any replica, local or remote, can
observe it, and each shard's ``seq`` order survives.

The rig is node 0 of a 2-node / 2-shard cluster with no sockets: it
holds shard 0's sequencer seat (``SHARD_FWD`` from node 1 is sequenced,
persisted, applied and fanned out here) and is a replica
of shard 1 (``BUS_OP`` from node 1 is persisted and applied here).  The
hub, ``os.fsync``, every store append and the coordinator's apply hook
write one shared tape, so "what happened before what" is a list lookup.
"""

import asyncio
import os
import tempfile
import time
from contextlib import contextmanager
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.addresses import ActorAddress, SpaceAddress
from repro.core.messages import Envelope, Message, Mode, Port
from repro.net.codec import FrameDecoder, FrameKind, encode_frame
from repro.net.peer import PeerLink
from repro.net.runtime import NodeRuntime
from repro.runtime.bus import OpKind, VisibilityOp
from repro.store.node_store import load_data_dir

ROOT = SpaceAddress(0, 0)


class Crash(BaseException):
    """Stands in for SIGKILL: nothing on the way out may catch it."""


class TapeHub:
    """The slice of ``PeerHub`` the frame path sends through."""

    def __init__(self, tape):
        self.tape = tape

    def send(self, node, kind, payload=None):
        self.tape.append(("send", kind, payload.get("shard"),
                          payload.get("seq")))
        return True


class Rig:
    def __init__(self, data_dir, fsync="commit"):
        self.tape: list[tuple] = []
        self.data_dir = data_dir
        self.runtime = runtime = NodeRuntime(
            0, {0: 1, 1: 2}, shards=2, data_dir=str(data_dir), trace=False,
            fsync=fsync)
        runtime.hub = TapeHub(self.tape)
        self.link = PeerLink(1, "node", None, None)
        #: store name -> NodeStore; shard logs are named by shard id.
        self.stores = {**runtime.shard_stores, "dlq": runtime.store}
        self.fds = {}
        for name, store in self.stores.items():
            self.fds[store._writer._fh.fileno()] = name
            self._tape_appends(name, store._writer)
        apply = runtime.coordinator.on_bus_delivery

        def taped_apply(seq, op):
            self.tape.append(("apply", op.shard, seq))
            apply(seq, op)

        runtime.coordinator.on_bus_delivery = taped_apply
        self.crash_at_fsync: int | None = None
        self._fsyncs = 0

    def _tape_appends(self, name, writer):
        stage = writer.append

        def taped_append(record):
            self.tape.append(("append", name, record.get("seq")))
            return stage(record)

        writer.append = taped_append

    def fsync(self, fd):
        if self._fsyncs == self.crash_at_fsync:
            raise Crash()
        self._fsyncs += 1
        self.tape.append(("fsync", self.fds[fd]))

    def feed(self, frames):
        """One inbound read batch: every frame, then the end-of-batch hook."""
        for kind, payload in frames:
            self.runtime._on_frame(1, kind, payload, self.link)
        self.runtime._commit_turn()

    def on_disk(self, shard) -> list:
        """Seqs persisted in ``shard``'s log, in file order."""
        shard_dir = os.path.join(self.data_dir, f"shard-{shard}")
        return list(load_data_dir(shard_dir).ops)


@contextmanager
def rig(**kwargs):
    with tempfile.TemporaryDirectory(prefix="group-commit-") as tmp:
        built = Rig(tmp, **kwargs)
        with mock.patch.object(os, "fsync", built.fsync):
            try:
                yield built
            finally:
                built.crash_at_fsync = None
                for store in built.stores.values():
                    store.close()


def vis_op(shard, origin_seq):
    return VisibilityOp(
        OpKind.MAKE_VISIBLE,
        {"target": ActorAddress(1, 1000 * (shard + 1) + origin_seq),
         "attributes": f"grp/s{shard}n{origin_seq}", "space": ROOT,
         "capability": None},
        origin_node=1, origin_seq=origin_seq, shard=shard,
        op_id=(1 << 44) + 1000 * shard + origin_seq)


def dead_envelope(index):
    """Addressed to an actor that never existed here: a dead letter."""
    return Envelope(message=Message(("lost", index)), sender=None,
                    mode=Mode.DIRECT, target=ActorAddress(0, 9000 + index),
                    port=Port.INVOCATION, origin_space=ROOT)


def build_frames(script):
    """Concrete frames for a list of abstract steps.

    ``fwd`` carries node 1's next shard-0 op to the seat here;
    ``op`` is the next shard-1 op already sequenced on node 1; ``env``
    is an undeliverable envelope (one dead-letter capture); ``again``
    repeats an earlier frame (a re-driven submission or a SYNC replay);
    ``swap`` exchanges the last two frames (out-of-order arrival).
    """
    frames: list[tuple] = []
    submitted = sequenced = envelopes = 0
    for step, pick in script:
        if step == "fwd":
            frames.append((FrameKind.SHARD_FWD,
                           {"op": vis_op(0, submitted), "shard": 0}))
            submitted += 1
        elif step == "op":
            frames.append((FrameKind.BUS_OP, {"seq": sequenced, "shard": 1,
                                              "op": vis_op(1, sequenced)}))
            sequenced += 1
        elif step == "env":
            frames.append((FrameKind.ENVELOPE, dead_envelope(envelopes)))
            envelopes += 1
        elif step == "again" and frames:
            kind, payload = frames[pick % len(frames)]
            if kind != FrameKind.ENVELOPE:
                frames.append((kind, dict(payload)))
        elif step == "swap" and len(frames) >= 2:
            frames[-1], frames[-2] = frames[-2], frames[-1]
    return frames


def split(frames, cuts):
    """Partition ``frames`` into read batches at the drawn cut points."""
    batches, current = [], []
    for frame, cut in zip(frames, cuts + [False] * len(frames)):
        current.append(frame)
        if cut:
            batches.append(current)
            current = []
    if current:
        batches.append(current)
    return batches


def check_tape(tape):
    """The outbox invariant, read off the tape.

    * every BUS_OP send and every apply of ``seq`` comes after an fsync
      of that shard's store that covered ``seq``;
    * effects are released in append order: per shard, ops reach the
      coordinator in the order they were staged, and the seat's fan-out
      goes out in ``seq`` order;
    * each turn costs exactly one fsync per store it appended to.
    """
    staged: dict = {}
    durable: dict = {}
    appended: dict = {}
    applied: dict = {}
    sent: dict = {}
    touched: list = []
    synced: list = []
    for event in tape:
        if event[0] == "append":
            _, name, seq = event
            staged.setdefault(name, set()).add(seq)
            appended.setdefault(name, []).append(seq)
            touched.append(name)
        elif event[0] == "fsync":
            durable.setdefault(event[1], set()).update(
                staged.pop(event[1], ()))
            synced.append(event[1])
        elif event[0] == "send":
            _, kind, shard, seq = event
            assert kind == FrameKind.BUS_OP, event
            assert seq in durable.get(shard, ()), f"sent before fsync: {event}"
            sent.setdefault(shard, []).append(seq)
        elif event[0] == "apply":
            _, shard, seq = event
            assert seq in durable.get(shard, ()), f"applied before fsync: {event}"
            if seq not in applied.setdefault(shard, []):
                applied[shard].append(seq)
        elif event[0] == "turn_done":
            assert sorted(synced, key=str) == sorted(set(touched), key=str), \
                f"stores touched {touched} but fsynced {synced}"
            touched, synced = [], []
    assert not staged, f"left staged after the last turn: {staged}"
    for shard, seqs in applied.items():
        assert seqs == appended[shard], (shard, seqs, appended[shard])
    for shard, seqs in sent.items():
        assert seqs == sorted(set(seqs)), (shard, seqs)


STEPS = st.tuples(
    st.sampled_from(["fwd", "op", "env", "again", "swap"]),
    st.integers(min_value=0, max_value=63))


class TestOutboxUnderBatching:
    @given(script=st.lists(STEPS, min_size=1, max_size=24),
           cuts=st.lists(st.booleans(), max_size=24))
    @settings(max_examples=40, deadline=None)
    def test_effects_follow_the_fsync_that_covers_them(self, script, cuts):
        frames = build_frames(script)
        with rig() as r:
            for batch in split(frames, cuts):
                r.feed(batch)
                r.tape.append(("turn_done",))
            check_tape(r.tape)
            # Nothing is left behind: every submission that reached the
            # seat was sequenced and fanned out exactly once.
            submitted = {p["op"].origin_seq for kind, p in frames
                         if kind == FrameKind.SHARD_FWD}
            assert [e[3] for e in r.tape if e[0] == "send"] \
                == list(range(len(submitted)))

    @given(script=st.lists(STEPS, min_size=1, max_size=16),
           cuts=st.lists(st.booleans(), max_size=16), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_crash_anywhere_in_a_turn_recovers_a_prefix(self, script, cuts,
                                                         data):
        """SIGKILL between the first append of a turn and the end of its
        commit: each recovered log is a prefix of what the store staged,
        and no op beyond it was applied here or sent anywhere."""
        frames = build_frames(script)
        fed = data.draw(st.integers(0, len(frames)), label="frames fed")
        *committed, last = split(frames[:fed], cuts) or [[]]
        with rig() as r:
            for batch in committed:
                r.feed(batch)
            # Die before the commit (None) or inside it, in its n-th fsync.
            r.crash_at_fsync = data.draw(
                st.one_of(st.none(), st.integers(0, 2)), label="dies in fsync")
            if r.crash_at_fsync is not None:
                r.crash_at_fsync += r._fsyncs
            try:
                for kind, payload in last:
                    r.runtime._on_frame(1, kind, payload, r.link)
                if r.crash_at_fsync is not None:
                    r.runtime._commit_turn()
            except Crash:
                pass
            # The process is gone: read the disk without closing anything.
            for shard in (0, 1):
                appended = [e[2] for e in r.tape
                            if e[0] == "append" and e[1] == shard]
                recovered = r.on_disk(shard)
                assert recovered == appended[:len(recovered)]
                seen = {e[-1] for e in r.tape
                        if e[0] in ("send", "apply") and e[-2] == shard}
                assert seen <= set(recovered), (seen, recovered)


class TestOneFrameTurn:
    def test_single_frame_reaches_fsync_without_await_or_timer(self):
        """Window-1 latency: a one-frame batch commits in the turn it
        arrived in — no other task runs and no timer is armed between the
        append and its fsync."""

        class OneChunk:
            def __init__(self, chunk):
                self.chunks = [chunk, b""]

            async def read(self, _n):
                await asyncio.sleep(0)  # a real read yields to the loop
                return self.chunks.pop(0)

        class NullWriter:
            transport = None

            def write(self, data):
                pass

            async def drain(self):
                pass

            def close(self):
                pass

            def is_closing(self):
                return False

        with tempfile.TemporaryDirectory(prefix="group-commit-") as tmp:
            runtime = NodeRuntime(0, {0: 1, 1: 2}, shards=2, data_dir=tmp,
                                  trace=False)
            tape: list = []
            store = runtime.shard_stores[0]
            stage = store.append_op

            def append_op(seq, op, then=None):
                tape.append(("append", len(runtime.events)))
                stage(seq, op, then=then)

            store.append_op = append_op

            async def spy():
                while True:
                    tape.append(("other-task",))
                    await asyncio.sleep(0)

            async def scenario():
                chunk = encode_frame(FrameKind.SHARD_FWD,
                                     {"op": vis_op(0, 0), "shard": 0})
                link = PeerLink(1, "node", OneChunk(chunk), NullWriter())
                other = asyncio.ensure_future(spy())
                await asyncio.sleep(0)
                del tape[:]
                await runtime.hub._serve_link(link, FrameDecoder())
                other.cancel()

            def fsync(fd):
                tape.append(("fsync", len(runtime.events)))

            with mock.patch.object(os, "fsync", fsync):
                asyncio.run(scenario())
            for s in runtime._stores:
                s.close()
            start = tape.index(next(e for e in tape if e[0] == "append"))
            stop = tape.index(next(e for e in tape if e[0] == "fsync"))
            assert start < stop and ("other-task",) in tape  # the spy ran
            assert all(e[0] != "other-task" for e in tape[start:stop])
            assert tape[start][1] == tape[stop][1], "a timer was armed"
            assert load_data_dir(os.path.join(tmp, "shard-0")).ops.keys() == {0}


class TestDeadLetterJournalRidesTheTurn:
    def test_capture_is_on_disk_when_the_turn_ends(self):
        with rig() as r:
            r.runtime._on_frame(1, FrameKind.ENVELOPE, dead_envelope(0),
                                r.link)
            assert r.runtime.dead_letters.pending(0) == 1
            assert load_data_dir(r.data_dir).dlq_events == []  # only staged
            r.runtime._commit_turn()
            events = load_data_dir(r.data_dir).dlq_events
            assert [e["kind"] for e in events] == ["capture"]
            assert [e for e in r.tape if e[0] == "fsync"] == [("fsync", "dlq")]

    def test_capture_made_by_a_due_event_is_on_disk_after_the_pump_burst(self):
        """The other kind of turn: a burst of due events in ``_pump``."""
        with rig() as r:
            runtime = r.runtime
            runtime.events.schedule(
                runtime.clock.now,
                lambda: runtime.coordinator._deliver(dead_envelope(1)))
            runtime.events.schedule(runtime.clock.now + 0.01,
                                    runtime.request_shutdown)

            async def pump():
                runtime._wake = asyncio.Event()
                await runtime._pump()

            asyncio.run(pump())
            assert [e["kind"] for e in load_data_dir(r.data_dir).dlq_events] \
                == ["capture"]


class TestBatchPolicyOnTheNode:
    def test_turn_end_arms_one_sync_timer_on_the_event_heap(self):
        with rig(fsync="batch") as r:
            events = r.runtime.events
            for seq in range(3):
                r.feed([(FrameKind.BUS_OP, {"seq": seq, "shard": 1,
                                            "op": vis_op(1, seq)})])
            assert len(events) == 1 and not [e for e in r.tape
                                             if e[0] == "fsync"]
            _when, sync = events.pop()
            sync()  # the timer fires: traffic stopped, the tail still syncs
            assert [e for e in r.tape if e[0] == "fsync"] == [("fsync", 1)]


class TestSyncReplay:
    def test_replay_walks_the_dense_log_and_skips_holes(self):
        with rig() as r:
            for seq in (0, 1, 3, 4):  # seq 2 went missing on the wire
                r.feed([(FrameKind.BUS_OP, {"seq": seq, "shard": 1,
                                            "op": vis_op(1, seq)})])
            del r.tape[:]
            r.feed([(FrameKind.SYNC_REQ, {"node": 1, "from_seq": 1, "round": 0,
                                          "shard": 1})])
            *ops, done = [e for e in r.tape if e[0] == "send"]
            assert [(e[1], e[3]) for e in ops] \
                == [(FrameKind.BUS_OP, seq) for seq in (1, 3, 4)]
            assert done[1] == FrameKind.SYNC_DONE  # the replay's end marker

    def test_replay_in_the_same_batch_waits_for_the_commit(self):
        """A SYNC_REQ behind a submission in one batch must not leak the
        op that is staged but not yet fsynced."""
        with rig() as r:
            r.feed([(FrameKind.SHARD_FWD, {"op": vis_op(0, 0), "shard": 0}),
                    (FrameKind.SYNC_REQ, {"node": 1, "from_seq": 0, "round": 0,
                                          "shard": 0})])
            sends = [i for i, e in enumerate(r.tape)
                     if e[:2] == ("send", FrameKind.BUS_OP)]
            assert [r.tape[i][3] for i in sends] == [0, 0]  # fan-out + replay
            assert r.tape.index(("fsync", 0)) < sends[0]


class TestThePumpKeepsItsOwnWakeUps:
    def test_a_send_released_by_the_pumps_commit_is_not_held_a_beat(self):
        """On a node whose seat is local, a visibility op is applied by
        the pump's own commit; the pattern send it releases schedules
        its delivery then.  The pump must see that work at once, not
        after a heartbeat interval (0.2 s) of sleep."""
        with tempfile.TemporaryDirectory(prefix="pump-wake-") as tmp:
            runtime = NodeRuntime(0, {0: 1}, data_dir=tmp, trace=False)
            arrived: list[float] = []

            async def scenario():
                runtime._wake = asyncio.Event()
                pump = asyncio.ensure_future(runtime._pump())
                await asyncio.sleep(0.01)  # the pump is asleep: nothing due
                actor = runtime.create_actor(
                    lambda ctx, m: arrived.append(time.monotonic()))
                start = time.monotonic()
                runtime.events.schedule(runtime.clock.now, lambda: (
                    runtime.make_visible(actor, "late"),
                    runtime.send("late", "hello")))
                while not arrived and time.monotonic() - start < 1.0:
                    await asyncio.sleep(0.001)
                runtime.request_shutdown()
                await pump
                return start

            try:
                start = asyncio.run(scenario())
            finally:
                for store in runtime._stores:
                    store.close()
            assert arrived and arrived[0] - start < 0.05
