"""Tests: the sequencer protocol core, with no event queue and no sockets.

``SequencerCore`` is a state machine behind a host port, so a recording
port is all the harness these cases need; the property at the end runs
N cores over a driver that delays and reorders frames, drops what is
addressed to a down node, and crashes and recovers nodes.
"""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.runtime.bus import OpKind, VisibilityOp
from repro.runtime.sequencer import (
    OP,
    SUBMIT,
    SYNC_DONE,
    SYNC_REQ,
    SequencerCore,
)

NODES = [0, 1, 2]


def op(origin, origin_seq):
    return VisibilityOp(OpKind.MAKE_VISIBLE, {}, origin, origin_seq)


class RecordingPort:
    """A host port that writes everything down and applies in seq order."""

    def __init__(self, down=()):
        self.down = set(down)
        self.sent: list[tuple] = []
        self.timers: list = []
        self.applied: list[tuple] = []
        self.next = 0  # the replica's cursor
        self._ahead: dict = {}
        self.stamped: list[int] = []
        self.leaders: list[int] = []

    def send(self, to, msg, a, b):
        self.sent.append((to, msg, a, b))

    def is_down(self, node):
        return node in self.down

    def cursor(self):
        return self.next

    def deliver(self, seq, sequenced):
        self._ahead[seq] = sequenced
        while self.next in self._ahead:
            self.applied.append((self.next, self._ahead.pop(self.next)))
            self.next += 1

    def timer(self, delay, fn):
        self.timers.append(fn)

    def sequenced(self, seq, sequenced):
        self.stamped.append(seq)

    def failover(self, leader, reason):
        self.leaders.append(leader)

    def take(self, msg):
        """Drain and return the ``(to, a, b)`` of every sent ``msg``."""
        found = [(to, a, b) for to, kind, a, b in self.sent if kind is msg]
        self.sent = [s for s in self.sent if s[1] is not msg]
        return found

    def fire(self):
        """Run every timer armed so far (those they arm wait for the next)."""
        due, self.timers = self.timers, []
        for fn in due:
            fn()


def core(me=0, home=0, down=()):
    port = RecordingPort(down)
    return SequencerCore(me, NODES, home, port), port


def fanned(port):
    """(seq, op) pairs the core fanned out, one per stamped op."""
    return [(a, b) for to, a, b in port.take(OP) if to == NODES[0]]


class TestOrdering:
    @pytest.mark.parametrize("arrival", [
        [0, 1, 2], [2, 1, 0], [1, 0, 2], [2, 0, 1], [1, 2, 0]])
    def test_per_origin_fifo_is_restored_at_the_seat(self, arrival):
        seat, port = core()
        ops = [op(1, n) for n in range(3)]
        for n in arrival:
            seat.on_submit(1, ops[n])
        assert fanned(port) == [(0, ops[0]), (1, ops[1]), (2, ops[2])]
        assert port.stamped == [0, 1, 2]

    def test_fan_out_reaches_every_node_including_the_seat(self):
        seat, port = core()
        seat.on_submit(2, op(2, 0))
        assert [to for to, _a, _b in port.take(OP)] == NODES

    @pytest.mark.parametrize("role", ["seat", "replica-turned-seat"])
    def test_a_redriven_op_is_dropped_by_the_watermark(self, role):
        first = op(1, 0)
        if role == "seat":
            seat, port = core()
            seat.on_submit(1, first)
            assert len(fanned(port)) == 1
        else:  # saw it sequenced as a replica, holds the seat since
            seat, port = core(me=0, home=0)
            seat.on_op(0, first)
        seat.on_submit(1, first)
        assert fanned(port) == [] and seat.ops_sequenced <= 1

    def test_a_non_seat_ignores_submissions(self):
        replica, port = core(me=1)
        replica.on_submit(2, op(2, 0))
        assert port.sent == []

    def test_own_op_comes_back_as_the_object_that_was_submitted(self):
        origin, port = core(me=1)
        mine = op(1, 0)
        origin.submit(mine)
        assert port.take(SUBMIT) == [(0, mine, None)]
        wire_copy = op(1, 0)
        wire_copy.op_id = mine.op_id
        origin.on_op(0, wire_copy)
        assert port.applied == [(0, mine)] and not origin.unacked
        assert (mine.origin_seq, origin.next_origin) == (0, 1)


class TestFirstWriteWins:
    def test_a_logged_seq_is_never_overwritten(self):
        """Two seats minted seq 0: whichever copy a replica logged first
        stays; the other is counted, not applied, not logged."""
        replica, port = core(me=2)
        ours, theirs = op(0, 0), op(1, 0)
        replica.on_op(0, ours)
        replica.on_op(0, theirs)
        assert replica.log == {0: ours}
        assert port.applied == [(0, ours)]
        assert replica.conflicts == 1 == replica.status()["conflicts"]

    def test_a_replayed_copy_of_the_same_op_is_no_conflict(self):
        replica, port = core(me=2)
        replica.on_op(0, op(0, 0))
        replica.on_op(0, replica.log[0])
        assert replica.conflicts == 0 and len(port.applied) == 1


class TestAdoption:
    def gain(self):
        """Node 1 takes the seat from dead node 0; node 2 is live."""
        seat, port = core(me=1, home=0)
        port.down.add(0)
        seat.on_node_down(0)
        assert seat.seat == 1 and port.leaders == [1]
        assert port.take(SYNC_REQ) == [(2, 0, 1)]  # from our cursor, round 1
        return seat, port

    def test_submissions_and_sync_reqs_wait_for_every_live_peer(self):
        seat, port = self.gain()
        seat.on_submit(2, op(2, 0))
        seat.on_sync_req(2, 0, 5)
        assert port.sent == []
        seat.on_sync_done(2, -1, 1)
        assert fanned(port) == [(0, seat.log[0])]
        assert port.take(SYNC_DONE) == [(2, 0, 5)]  # echoes the asker's round

    def test_an_answer_to_an_earlier_round_does_not_end_this_one(self):
        seat, port = self.gain()
        seat.on_submit(2, op(2, 0))
        seat.on_sync_done(2, 3, 0)  # late, but what it says is still true
        assert seat.known_high == 3 and seat._adopting == {2}
        assert fanned(port) == []

    def test_a_peer_reported_down_counts_as_answered(self):
        seat, port = self.gain()
        seat.on_submit(1, op(1, 0))
        port.down.add(2)
        seat.on_node_down(2)
        assert len(fanned(port)) == 1

    def test_no_live_peer_serves_at_once(self):
        seat, port = core(me=1, home=0, down={0, 2})
        seat.on_node_down(0)
        seat.on_submit(1, op(1, 0))
        assert len(fanned(port)) == 1

    def test_mints_above_the_highest_upto_it_heard(self):
        seat, port = self.gain()
        seat.on_submit(2, op(2, 1))
        seat.on_sync_done(2, 3, 1)  # the order reaches seq 3; we have none yet
        assert fanned(port) == []  # answered, but the ops are not here
        for seq in range(4):
            seat.on_op(seq, op(0, seq) if seq else op(2, 0))
        assert fanned(port) == [(4, seat.log[4])]

    def test_reelection_away_abandons_the_round(self):
        seat, port = self.gain()
        seat.on_submit(2, op(2, 0))
        seat.on_sync_req(2, 0, 0)
        port.down.discard(0)
        seat.on_node_recovered(0)  # the home seat is back: hand over
        assert seat.seat == 0 and seat._adopting is None
        assert fanned(port) == []  # the origin re-drives to node 0 itself
        assert port.take(SYNC_DONE) == [(2, -1, 0)]  # but sync is owed
        seat.on_sync_done(2, -1, 1)  # the abandoned round's answer: ignored
        assert port.sent == []

    def test_the_returning_node_asks_for_what_it_missed(self):
        back, port = core(me=2)
        port.next = 4
        back.on_node_recovered(2)
        assert port.take(SYNC_REQ) == [(0, 4, 0)]

    def test_rebalance_moves_the_seat_and_redrives(self):
        origin, port = core(me=2)
        origin.submit(op(2, 0))
        port.sent.clear()
        origin.rebalance(1)
        assert origin.seat == 1
        port.fire()
        assert [to for to, _a, _b in port.take(SUBMIT)] == [1]


class TestGapTimer:
    def test_a_stale_source_keeps_the_timer_alive(self):
        """The source of a sync was itself behind: nothing arrived, but
        its ``upto`` says ops exist, so the replica keeps asking."""
        replica, port = core(me=2)
        replica.on_sync_done(0, 5, 0)
        assert replica.known_high == 5 and len(port.timers) == 1
        port.fire()
        assert port.take(SYNC_REQ) == [(0, 0, 0)]
        assert len(port.timers) == 1  # re-armed: the reply can be lost too

    def test_it_asks_only_after_an_interval_without_progress(self):
        replica, port = core(me=2)
        replica.on_op(2, op(0, 2))  # beyond the cursor: 0 and 1 missing
        assert len(port.timers) == 1
        replica.on_op(0, op(0, 0))  # jitter, not loss: the cursor moves
        port.fire()
        assert port.take(SYNC_REQ) == [] and len(port.timers) == 1
        port.fire()  # a whole interval and the cursor stood still
        assert port.take(SYNC_REQ) == [(0, 1, 0)]

    def test_it_stops_once_the_cursor_passed_everything_known(self):
        replica, port = core(me=2)
        replica.on_op(1, op(0, 1))
        replica.on_op(0, op(0, 0))
        port.fire()
        assert port.sent == [] and port.timers == []

    def test_replay_skips_holes_and_ends_with_how_far_the_order_goes(self):
        source, port = core(me=0)
        for seq in (0, 1, 3):
            source.on_op(seq, op(1, seq))
        port.sent.clear()
        source.on_sync_req(2, 1, 0)
        assert [(a, msg) for _to, msg, a, _b in port.sent] \
            == [(1, OP), (3, OP), (3, SYNC_DONE)]


def test_restore_log_rebuilds_watermarks_without_delivering():
    seat, port = core()
    seat.restore_log({4: op(1, 2), 5: op(2, 0)}, {1: 9})
    assert (seat.log_high, seat.next_seq) == (5, 6)
    assert seat.expected == {1: 9, 2: 1} and port.applied == []
    seat.on_submit(1, op(1, 8))  # below the snapshot's watermark: a dup
    assert fanned(port) == []


class TestOriginNumbering:
    """The core numbers its node's submissions, and a restarted core
    never re-mints a number an earlier incarnation used."""

    def submitted_seq(self, origin):
        mine = op(origin.me, 0)
        origin.submit(mine)
        return mine.origin_seq

    def test_submissions_are_numbered_in_order(self):
        origin, port = core(me=1)
        assert [self.submitted_seq(origin) for _ in range(3)] == [0, 1, 2]
        assert [a.origin_seq for _to, a, _b in port.take(SUBMIT)] == [0, 1, 2]

    def test_past_its_own_ops_in_the_log(self):
        origin, _port = core(me=1)
        origin.restore_log({0: op(1, 0), 1: op(2, 0), 2: op(1, 1)}, {})
        assert self.submitted_seq(origin) == 2

    def test_past_its_watermark_when_the_log_was_truncated(self):
        origin, _port = core(me=1)
        origin.restore_log({}, {1: 6, 2: 9})
        assert self.submitted_seq(origin) == 6

    def test_past_ops_unacked_when_the_snapshot_was_taken(self):
        """Three submitted, one sequenced: the snapshot's counter, not
        the watermark, says where numbering stood."""
        before, _port = core(me=1)
        mine = [op(1, 0) for _ in range(3)]
        for each in mine:
            before.submit(each)
        before.on_op(0, mine[0])
        assert before.expected[1] == 1 and len(before.unacked) == 2
        after, _port = core(me=1)
        after.restore_log({}, dict(before.expected), before.next_origin)
        assert self.submitted_seq(after) == 3

    def test_past_an_own_op_first_seen_in_sync_replay(self):
        origin, _port = core(me=1)
        origin.on_op(0, op(1, 4))  # minted by an earlier incarnation
        assert self.submitted_seq(origin) == 5
        origin.on_op(1, op(1, 2))  # an older one changes nothing
        assert self.submitted_seq(origin) == 6


# -- N cores over a driver that delays, reorders, drops and crashes --------------

class Wire:
    """Frames in flight between ``SequencerCore``s, plus their timers.

    Crash-stop with an accurate detector: a frame to or from a down node
    is lost, every core hears of a crash or recovery at once, and — the
    synchrony the protocol assumes — a crashed node's last frames land
    before anyone reacts to the crash.
    """

    def __init__(self, n):
        self.nodes = list(range(n))
        self.down: set[int] = set()
        self.flight: list[tuple] = []
        self.timers: list[tuple] = []
        self.ports = {node: self.port(node) for node in self.nodes}
        self.cores = {node: SequencerCore(node, self.nodes, 0, self.ports[node])
                      for node in self.nodes}
        self.submitted: list = []

    def port(self, node):
        wire = self
        port = RecordingPort()
        port.down = self.down
        port.send = lambda to, msg, a, b: (
            node in wire.down or to in wire.down
            or wire.flight.append((node, to, msg, a, b)))
        port.timer = lambda delay, fn: wire.timers.append((node, fn))
        return port

    def land(self, index):
        src, to, msg, a, b = self.flight.pop(index)
        if to in self.down:
            return
        target = self.cores[to]
        if msg is OP:
            target.on_op(a, b)
        elif msg is SUBMIT:
            target.on_submit(src, a)
        elif msg is SYNC_REQ:
            target.on_sync_req(src, a, b)
        else:
            target.on_sync_done(src, a, b)

    def fire(self, index):
        node, fn = self.timers.pop(index)
        if node in self.down:
            self.timers.append((node, fn))  # waits for the node
        else:
            fn()

    def submit(self, node):
        sequenced = op(node, 0)  # the core numbers it
        self.submitted.append(sequenced)
        self.cores[node].submit(sequenced)

    def crash(self, node):
        while any(f[0] == node for f in self.flight):
            self.land(next(i for i, f in enumerate(self.flight)
                           if f[0] == node))
        self.down.add(node)
        self.flight = [f for f in self.flight if f[1] != node]
        for each in self.cores.values():
            each.on_node_down(node)

    def recover(self, node):
        self.down.discard(node)
        for each in self.cores.values():
            each.on_node_recovered(node)

    def settle(self, limit=20_000):
        """FIFO until nothing is in flight and no timer re-arms."""
        for _ in range(limit):
            if self.flight:
                self.land(0)
            elif self.timers:
                self.fire(0)
            else:
                return
        raise AssertionError("the protocol did not quiesce")


PICK = st.integers(0, 63)
#: One episode: maybe a fault, then a burst of submissions, then some
#: frames and timers in an arbitrary order.
EPISODES = st.lists(st.tuples(
    st.sampled_from(["none", "crash", "recover", "rebalance"]), PICK,
    st.lists(PICK, max_size=3),
    st.lists(st.tuples(st.sampled_from(["land", "land", "fire"]), PICK),
             max_size=8)), max_size=8)


#: Back-to-back rebalances with frames reordered: node 1's answers to
#: its first adoption round are still in flight when it adopts again.
#: Unnumbered, they ended the later round early and node 1 minted seq 0
#: while the interim seat's seq 0 was on its way (logs differed; with a
#: crash at the end, the protocol never quiesced).
_LATE_ANSWERS = [
    ("rebalance", 1, [],
     [("land", 0), ("land", 0), ("land", 0), ("fire", 0), ("land", 1)]),
    ("none", 0, [0, 1, 26], [("land", 0), ("fire", 0)]),
    ("rebalance", 0, [],
     [("land", 16), ("land", 28), ("fire", 1), ("land", 18), ("land", 46),
      ("land", 0), ("land", 1), ("land", 2)]),
    ("none", 0, [], [("land", 2)]),
]


@given(n=st.integers(2, 4), episodes=EPISODES)
@example(n=3, episodes=[*_LATE_ANSWERS, ("rebalance", 1, [], [])])
@example(n=3, episodes=[*_LATE_ANSWERS, ("rebalance", 1, [0], []),
                        ("crash", 0, [], [])])
@settings(max_examples=300, deadline=None)
def test_cores_converge_on_one_gap_free_fifo_order(n, episodes):
    wire = Wire(n)
    for fault, pick, submits, steps in episodes:
        live = [node for node in wire.nodes if node not in wire.down]
        # Failures are spaced: the cluster settles before each, as the
        # simulator's round trips are short against its crashes.
        if fault == "crash" and len(live) > 1:
            wire.settle()
            wire.crash(live[pick % len(live)])
        elif fault == "recover" and wire.down:
            wire.settle()
            wire.recover(sorted(wire.down)[pick % len(wire.down)])
        elif fault == "rebalance":
            for each in wire.cores.values():
                each.rebalance(pick % n)
        for origin in submits:
            if origin % n not in wire.down:
                wire.submit(origin % n)
        for step, index in steps:
            if step == "land" and wire.flight:
                wire.land(index % len(wire.flight))
            elif step == "fire" and wire.timers:
                wire.fire(index % len(wire.timers))
    for node in sorted(wire.down):
        wire.settle()
        wire.recover(node)
    wire.settle()

    logs = [wire.cores[node].log for node in wire.nodes]
    assert all(log == logs[0] for log in logs[1:]), "logs differ"
    order = [logs[0][seq] for seq in sorted(logs[0])]
    assert sorted(logs[0]) == list(range(len(order))), "gap in the order"
    for origin, ops in itertools.groupby(
            sorted(order, key=lambda o: o.origin_node),
            key=lambda o: o.origin_node):
        seqs = [o.origin_seq for o in ops]
        assert seqs == list(range(len(seqs))), f"origin {origin}: {seqs}"
    # Every origin survives (all were recovered): every op exactly once.
    assert sorted(o.op_id for o in order) \
        == sorted(o.op_id for o in wire.submitted)
    for node in wire.nodes:
        each, port = wire.cores[node], wire.ports[node]
        assert [seq for seq, _ in port.applied] == list(range(len(order)))
        assert not each.unacked and each.conflicts == 0
        assert each._adopting is None
