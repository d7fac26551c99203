"""The sequencer total-order protocol, once, with no I/O in it.

Section 7.3 asks the coordinator bus for one total order on visibility
changes.  :class:`SequencerCore` is one node's share of the centralized
broadcaster-and-sequencer (Chang & Maxemchuk [9]) that provides it, as a
state machine: inputs are method calls (a local ``submit``, the four
messages arriving, liveness changes, two timers), outputs go through a
host *port* of seven methods.  It owns no clock, queue or socket, so
the simulator runs one core per node over its event queue
(:class:`repro.runtime.bus.SequencerBus`) and a node process runs one
over its sockets (:class:`repro.net.remote.RemoteSequencerBus`): the
code the schedule explorer drives is the code that runs on the wire.

* **Order.**  An origin numbers its op from ``next_origin`` and sends it
  to the *seat* (``SUBMIT``).  The seat restores per-origin FIFO through
  a hold-back queue, stamps the next sequence number, logs the op and
  fans it out (``OP``) to every node, itself included.
  ``expected[origin]`` — the next origin seq not yet sequenced — is the
  FIFO cursor and the dedup watermark at once.  ``next_origin`` stays
  above every own op this core has logged or sees sequenced (an earlier
  incarnation's too), so no origin seq is minted twice.
* **Election** is a function of the liveness view alone: the home seat
  if it is live, else the lowest live node.  Replicas agree without
  talking, and a returning home seat takes the role back.
* **Adopt before serving.**  A core that *gains* the seat asks every
  live peer for what it has not applied (``SYNC_REQ``) and holds
  submissions and inbound ``SYNC_REQ``s until each has answered
  (``SYNC_DONE``) or been reported down and the answers are applied;
  then it mints above the highest sequence number it heard of.  Rounds
  are numbered and an answer echoes the number it was asked with, so an
  answer to an earlier round never ends a later one.  Losing the seat
  mid-round abandons the round.
* **Catch-up.**  Every replay ends with ``SYNC_DONE{upto}``; the highest
  ``upto`` heard is ``known_high``.  An op landing beyond the applied
  cursor arms the gap timer, which asks again after an interval without
  progress and stays armed until the cursor has passed everything
  logged or heard of.
* **First write wins.**  A logged ``(seq, op)`` is never overwritten.

Fault model: crash-stop with an accurate detector.  Terms/fencing under
partitions and false suspicion are not here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Protocol

if TYPE_CHECKING:  # pragma: no cover
    from .bus import VisibilityOp

#: The four messages.  ``send(to, msg, a, b)`` carries ``(op, None)``,
#: ``(seq, op)``, ``(from_seq, round)`` and ``(upto, round)`` respectively.
SUBMIT, OP, SYNC_REQ, SYNC_DONE = "submit", "op", "sync_req", "sync_done"

#: A dict does not shrink as it is popped: a drain that empties a hold-back
#: of more than this many ops clears it (which frees the table).
HOLDBACK_SHRINK = 64


class Port(Protocol):
    """What a core may ask of its host."""

    def send(self, to: int, msg: str, a: Any, b: Any) -> None:
        """Carry ``msg`` to ``to``'s core (maybe this node's), or drop it."""

    def is_down(self, node: int) -> bool: ...

    def cursor(self) -> int:
        """First sequence number this replica has not applied."""

    def deliver(self, seq: int, op: "VisibilityOp") -> None:
        """Hand a sequenced op to the replica (it applies in order)."""

    def timer(self, delay: float, fn: Callable[[], None]) -> None: ...

    def sequenced(self, seq: int, op: "VisibilityOp") -> None:
        """This core, as seat, just stamped ``op`` with ``seq``."""

    def failover(self, leader: int, reason: str) -> None:
        """This core's view of the seat moved to ``leader``."""


class SequencerCore:
    """One node's share of one stream's sequencer protocol."""

    #: Delay before unacked submissions are re-driven after an election,
    #: and the gap timer's interval.
    FAILOVER_DELAY = 0.05

    def __init__(self, me: int, nodes: list[int], home: int, port: Port):
        self.me = me
        self.nodes = nodes
        #: Preferred seat (the shard map's assignment) and the seat in
        #: this core's current view.
        self.home = home
        self.seat = home
        self.port = port
        self._send = port.send
        self._cursor = port.cursor
        self._is_down = port.is_down
        #: Optional :class:`repro.store.NodeStore`.  When set, a
        #: sequenced op is staged with its delivery or fan-out as the
        #: effect the host's commit releases (transactional outbox), on
        #: the seat and replica paths alike.
        self.store = None
        #: The sequenced log: seq -> op (``SYNC_REQ`` replay source).
        self.log: dict[int, "VisibilityOp"] = {}
        self.log_high = -1
        #: Highest sequence number any ``SYNC_DONE`` told us exists.
        self.known_high = -1
        self.next_seq = 0
        self.expected: dict[int, int] = {}
        self._holdback: dict[tuple[int, int], "VisibilityOp"] = {}
        #: The origin seq this node's next submission gets, and the local
        #: submissions not yet seen sequenced: op_id -> our own op object
        #: (it carries the origin-side callbacks).
        self.next_origin = 0
        self.unacked: dict[int, "VisibilityOp"] = {}
        #: Peers whose ``SYNC_DONE`` an adoption round still awaits
        #: (``None``: not adopting), the round's number (in memory only:
        #: it tells this incarnation's rounds apart, it is not a term),
        #: and what the round holds back.
        self._adopting: set[int] | None = None
        self._round = 0
        self._held: list[tuple[str, int, Any]] = []
        self._redrive_armed = False
        self._gap_armed = False
        self._gap_cursor = 0
        self.ops_sequenced = 0
        self.failovers = 0
        self.conflicts = 0

    # -- origin side -------------------------------------------------------------

    def submit(self, op: "VisibilityOp") -> None:
        """Number a local op and accept it for global ordering.  Never
        raises: with the seat unreachable the op stays unacked and is
        re-driven."""
        op.origin_seq = self.next_origin
        self.next_origin += 1
        self.unacked[op.op_id] = op
        if self._is_down(self.seat):
            self._elect("sequencer_down")
        self._send(self.seat, SUBMIT, op, None)

    def _redrive(self) -> None:
        self._redrive_armed = False
        for op in sorted(self.unacked.values(), key=lambda o: o.origin_seq):
            self._send(self.seat, SUBMIT, op, None)

    # -- seat side ---------------------------------------------------------------

    def on_submit(self, src: int, op: "VisibilityOp") -> None:
        """A submission arrived; only meaningful while we hold the seat
        (the origin of a stale one re-elects and re-drives on its own)."""
        if self.seat != self.me:
            return
        if self._adopting is not None:
            self._held.append((SUBMIT, src, op))
        else:
            self._sequence(op)

    def _sequence(self, op: "VisibilityOp") -> None:
        origin = op.origin_node
        expected, holdback = self.expected, self._holdback
        want = expected.get(origin, 0)
        if op.origin_seq != want:
            if op.origin_seq > want:  # else: re-driven copy, already ordered
                holdback[(origin, op.origin_seq)] = op
            return
        # Never at or below a seq we have seen, heard of or applied (a
        # snapshot may have truncated the log under the cursor).
        self.next_seq = max(self.next_seq, self.log_high + 1,
                            self.known_high + 1, self._cursor())
        grown = len(holdback) > HOLDBACK_SHRINK
        while op is not None:
            expected[origin] = op.origin_seq + 1
            seq = self.next_seq
            self.next_seq = seq + 1
            self.ops_sequenced += 1
            self.log[seq] = op
            self.log_high = seq
            self.port.sequenced(seq, op)
            if self.store is None:
                self._fan_out(seq, op)
            else:
                self.store.append_op(
                    seq, op, then=lambda s=seq, o=op: self._fan_out(s, o))
            # The run this op unblocked, if any arrived ahead of it.
            op = holdback.pop((origin, expected[origin]), None) \
                if holdback else None
        if grown and not holdback:
            holdback.clear()

    def _fan_out(self, seq: int, op: "VisibilityOp") -> None:
        send = self._send
        for node in self.nodes:
            send(node, OP, seq, op)

    # -- replica side ------------------------------------------------------------

    def on_op(self, seq: int, op: "VisibilityOp") -> None:
        """A sequenced op arrived (fan-out or sync replay)."""
        known = self.log.get(seq)
        if known is None:
            self.log[seq] = op
            if seq > self.log_high:
                self.log_high = seq
            if op.origin_seq >= self.expected.get(op.origin_node, 0):
                self.expected[op.origin_node] = op.origin_seq + 1
        elif (known.origin_node, known.origin_seq) != (op.origin_node,
                                                       op.origin_seq):
            self.conflicts += 1  # first write wins
            return
        if op.origin_node == self.me and op.origin_seq >= self.next_origin:
            self.next_origin = op.origin_seq + 1  # an earlier incarnation's
        # Durable here before the replica applies it, so this node's
        # recovery never depends on the seat's disk.  A copy of a logged
        # op is not persisted twice but still queues behind the first.
        if self.store is None:
            self._deliver(seq, op)
        elif known is None:
            self.store.append_op(seq, op, then=lambda: self._deliver(seq, op))
        else:
            self.store.defer(lambda: self._deliver(seq, op))

    def _deliver(self, seq: int, op: "VisibilityOp") -> None:
        if op.origin_node == self.me:
            # Callbacks cannot cross a wire: apply the object we submitted.
            op = self.unacked.pop(op.op_id, op)
        cursor = self._cursor()
        if seq >= cursor:  # else: replay overlap, applied already
            self.port.deliver(seq, op)
            if seq > cursor:
                self._arm_gap()  # landed beyond the cursor: a seq is missing
        if self._adopting is not None:
            self._maybe_serve()

    # -- catch-up ----------------------------------------------------------------

    def request_sync(self) -> None:
        """Ask for every op we have not applied: the seat, or — holding
        the seat ourselves — every live peer."""
        cursor = self._cursor()
        for node in (self.seat,) if self.seat != self.me else self._live():
            if node != self.me:
                self._send(node, SYNC_REQ, cursor, self._round)

    def on_sync_req(self, node: int, from_seq: int, round: int) -> None:
        """Replay every logged op >= ``from_seq`` to ``node``, then say
        how far the order goes, echoing the asker's ``round``.  Queued
        behind this turn's commit: the log may hold ops that are staged
        but not yet durable."""
        if self._adopting is not None:
            self._held.append((SYNC_REQ, node, (from_seq, round)))
        else:
            self._after_commit(lambda: self._replay(node, from_seq, round))

    def _replay(self, node: int, from_seq: int, round: int) -> None:
        send, log = self._send, self.log
        for seq in range(max(from_seq, 0), self.log_high + 1):
            op = log.get(seq)  # dense bar lost frames: skip the holes
            if op is not None:
                send(node, OP, seq, op)
        send(node, SYNC_DONE, max(self.log_high, self.next_seq - 1), round)

    def on_sync_done(self, node: int, upto: int, round: int) -> None:
        """``node`` finished the replay round ``round`` of ours asked
        for; its order reaches ``upto``."""
        self._after_commit(lambda: self._sync_done(node, upto, round))

    def _sync_done(self, node: int, upto: int, round: int) -> None:
        if upto > self.known_high:  # true whichever round asked
            self.known_high = upto
        if self._cursor() <= self.known_high:
            self._arm_gap()  # the source itself was behind, or frames fell
        if self._adopting is not None and round == self._round:
            self._adopting.discard(node)
            self._maybe_serve()

    def _after_commit(self, effect: Callable[[], None]) -> None:
        if self.store is None:
            effect()
        else:
            self.store.defer(effect)

    def _arm_gap(self) -> None:
        if not self._gap_armed:
            self._gap_armed = True
            self._gap_cursor = self._cursor()
            self.port.timer(self.FAILOVER_DELAY, self._gap_tick)

    def _gap_tick(self) -> None:
        self._gap_armed = False
        cursor = self._cursor()
        if not self._adopting and cursor > max(self.log_high, self.known_high):
            return  # closed
        if cursor == self._gap_cursor:
            self.request_sync()  # no progress for a whole interval: ask
        self._arm_gap()  # the replay rides the wire and can be lost too

    # -- election ----------------------------------------------------------------

    def _live(self) -> list[int]:
        return [n for n in self.nodes if not self._is_down(n)]

    def on_node_down(self, node: int) -> None:
        self._elect("sequencer_down")
        if self._adopting is not None:
            self._adopting.discard(node)
            self._maybe_serve()

    def on_node_recovered(self, node: int) -> None:
        self._elect("sequencer_recovered")
        if node == self.me and self._adopting is None:
            self.request_sync()  # we are the one who was away

    def rebalance(self, node: int) -> None:
        """Move this stream's home seat to ``node`` and re-elect, live."""
        self.home = node
        self._elect("rebalance")

    def _elect(self, reason: str) -> None:
        live = self._live()
        if not live:
            return  # total outage: the first recovery re-elects
        new = self.home if self.home in live else min(live)
        old = self.seat
        if new != old:
            self.seat = new
            self.failovers += 1
            self.port.failover(new, reason)
            if old == self.me:
                # Lost the seat: origins re-drive to the new one themselves.
                self._holdback.clear()
                self._end_round(serving=False)
            elif new == self.me:
                self._adopt(live)
        if self.unacked and not self._redrive_armed:
            self._redrive_armed = True
            self.port.timer(self.FAILOVER_DELAY, self._redrive)

    def _adopt(self, live: list[int]) -> None:
        """Gained the seat: learn the order so far before extending it."""
        self._adopting = {n for n in live if n != self.me}
        self._round += 1
        self.request_sync()
        self._arm_gap()  # a lost answer is asked for again
        self._maybe_serve()

    def _maybe_serve(self) -> None:
        # Answers, or ops they promised, may still be outstanding.
        if not self._adopting and self._cursor() > self.known_high:
            self._end_round(serving=True)

    def _end_round(self, serving: bool) -> None:
        self._adopting = None
        held, self._held = self._held, []
        for kind, src, arg in held:
            if kind is SYNC_REQ:
                self.on_sync_req(src, *arg)
            elif serving:
                self._sequence(arg)

    # -- recovery and introspection ----------------------------------------------

    def restore_log(self, ops: dict[int, "VisibilityOp"],
                    expected: dict[int, int], next_origin: int = 0) -> None:
        """Rebuild from persisted ops and watermarks, delivering nothing
        (the host replays ops into its replica separately).  ``expected``
        keeps dedup exact for origins whose every op a snapshot
        truncated out of the log; ``next_origin`` is the counter the
        snapshot saw, which also counts submissions still unacked then."""
        floors = [(op.origin_node, op.origin_seq + 1) for op in ops.values()]
        for origin, floor in [*floors, *expected.items()]:
            if floor > self.expected.get(origin, 0):
                self.expected[origin] = floor
        self.next_origin = max(self.next_origin, next_origin,
                               self.expected.get(self.me, 0))
        for seq, op in ops.items():
            self.log.setdefault(seq, op)
        self.log_high = max([self.log_high, *ops])
        self.next_seq = max(self.next_seq, self.log_high + 1)

    def status(self) -> dict:
        return {"sequencer": self.seat, "home": self.home,
                "ops_sequenced": self.ops_sequenced,
                "failovers": self.failovers, "conflicts": self.conflicts,
                "log": len(self.log), "unacked": len(self.unacked)}
