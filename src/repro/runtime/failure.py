"""Self-healing delivery: failure detection and dead-letter redelivery.

The paper's open-system stance (section 2: "components can be designed
independently and may enter or leave the system") implies nodes that
*leave involuntarily*.  The seed runtime already modelled the crash
itself (the transport drops traffic to crashed nodes, experiment E11
measures the blast radius); this module adds the two mechanisms a
deployment needs to *react*:

* :class:`FailureDetector` — each coordinator observes its peers through
  periodic heartbeats riding the ordinary (lossy) transport.  Missed
  heartbeats first make a peer *suspected*, then *confirmed down*; the
  first confirmation quarantines the dead node's directory entries on
  every live replica and notifies the bus so the total-order protocol
  can fail over.  A heartbeat heard again clears suspicion (false
  positives under loss are expected and harmless).
* :class:`DeadLetterQueue` — a bounded per-destination queue capturing
  envelopes the router had to drop because the destination was down (or
  its target already dead).  When the destination recovers, queued
  letters are redelivered with capped exponential backoff, up to
  ``max_redeliveries`` attempts per envelope; letters that exhaust their
  attempts (or overflow the bounded queue) are *expired* — visible in
  the ``dead_letters_expired_total`` counter, never silently lost twice.

Both components are opt-in and deterministic: the detector is driven by
virtual-clock events bounded by an explicit horizon (so ``run()`` still
quiesces), and redelivery is scheduled through the ordinary event queue.
The historical drop counters keep their meaning — capture is additive
accounting on top of the drop, not a replacement for it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.messages import Envelope

from .coordinator import ACTOR_PRIORITY
from .bus import BUS_PRIORITY

if TYPE_CHECKING:  # pragma: no cover
    from .host import Host


class FailureDetector:
    """Heartbeat-based peer monitoring over the simulated transport.

    Every ``interval`` of virtual time, each live node sends one
    heartbeat to every peer through :meth:`Transport.try_deliver` — so
    heartbeats are subject to the same loss model as application
    traffic, and a lossy link can produce (transient) false suspicion.
    Per observer, a peer missing ``suspect_after`` consecutive
    heartbeats becomes *suspected*; at ``confirm_after`` misses it is
    *confirmed down*.  The first observer to confirm triggers the
    system-wide reaction (directory quarantine + bus failover); later
    confirmations are deduplicated.

    The detector runs only up to the horizon given to :meth:`start` —
    periodic timers with no horizon would keep the event queue non-empty
    forever and ``run()`` would never reach quiescence.
    """

    def __init__(
        self,
        system: "Host",
        interval: float = 0.5,
        suspect_after: int = 2,
        confirm_after: int = 4,
    ):
        if interval <= 0:
            raise ValueError(f"heartbeat interval must be positive, got {interval}")
        if suspect_after < 1 or confirm_after < suspect_after:
            raise ValueError(
                "need 1 <= suspect_after <= confirm_after, "
                f"got suspect_after={suspect_after} confirm_after={confirm_after}"
            )
        self.system = system
        self.interval = interval
        self.suspect_after = suspect_after
        self.confirm_after = confirm_after
        nodes = self.nodes = system.nodes
        #: The nodes this detector observes *as*: the host's local ones.
        #: The simulator plays every node from one process, so all of
        #: them; a node process runs its own detector and only its own
        #: vantage point is real.
        self.observers = system.local_nodes
        #: Consecutive missed heartbeats, per (observer, peer).
        self._misses: dict[int, dict[int, int]] = {
            o: {p: 0 for p in nodes if p != o} for o in nodes
        }
        self._suspected: dict[int, set[int]] = {o: set() for o in nodes}
        #: Peers confirmed down system-wide (first confirmation wins).
        self.confirmed_down: set[int] = set()
        self._deadline = 0.0
        self._running = False
        self.ticks = 0

    # -- lifecycle --------------------------------------------------------------

    def start(self, duration: float) -> "FailureDetector":
        """Run (or extend) heartbeat ticks until ``now + duration``."""
        self._deadline = max(self._deadline, self.system.clock.now + duration)
        if not self._running:
            self._running = True
            self.system.events.schedule(
                self.system.clock.now + self.interval, self._tick,
                priority=BUS_PRIORITY, tag=("detector",),
            )
        return self

    def stop(self) -> None:
        """Let the pending tick be the last one."""
        self._deadline = self.system.clock.now

    def suspected_by(self, observer: int) -> frozenset[int]:
        """The peers ``observer`` currently suspects."""
        return frozenset(self._suspected[observer])

    # -- the heartbeat round ----------------------------------------------------

    def _tick(self) -> None:
        system = self.system
        now = system.clock.now
        self.ticks += 1
        transport = system.transport
        tracer = system.tracer
        for observer in self.observers:
            if transport.node_is_down(observer):
                continue  # a dead node observes nothing
            misses = self._misses[observer]
            suspected = self._suspected[observer]
            for peer in self.nodes:
                if peer == observer:
                    continue
                heard = (
                    not transport.node_is_down(peer)
                    and transport.try_deliver(peer, observer) is not None
                )
                if heard:
                    misses[peer] = 0
                    if peer in suspected:
                        # False suspicion under loss: quietly rescind.
                        suspected.discard(peer)
                        tracer.on_node_health("node_recovered", observer, peer, now)
                    continue
                misses[peer] += 1
                if misses[peer] == self.suspect_after and peer not in suspected:
                    suspected.add(peer)
                    tracer.on_node_health("node_suspected", observer, peer, now)
                if (
                    misses[peer] >= self.confirm_after
                    and peer not in self.confirmed_down
                ):
                    self.confirmed_down.add(peer)
                    tracer.on_node_health("node_confirmed_down", observer, peer, now)
                    system._on_node_confirmed_down(peer)
        if now + self.interval <= self._deadline:
            system.events.schedule(
                now + self.interval, self._tick, priority=BUS_PRIORITY,
                tag=("detector",),
            )
        else:
            self._running = False

    def on_node_recovered(self, node: int) -> None:
        """External recovery notice: clear all verdicts about ``node``."""
        was_known_bad = node in self.confirmed_down
        self.confirmed_down.discard(node)
        for observer in self.nodes:
            if node in self._misses[observer]:
                self._misses[observer][node] = 0
            if node in self._suspected[observer]:
                self._suspected[observer].discard(node)
                was_known_bad = True
        if was_known_bad:
            self.system.tracer.on_node_health(
                "node_recovered", node, node, self.system.clock.now
            )

    def __repr__(self):
        return (
            f"<FailureDetector interval={self.interval} ticks={self.ticks} "
            f"confirmed={sorted(self.confirmed_down)}>"
        )


@dataclass
class DeadLetter:
    """One captured envelope awaiting redelivery."""

    envelope: Envelope
    dst_node: int
    reason: str
    queued_at: float
    attempts: int = 0

    def __repr__(self):
        return (
            f"<DeadLetter env#{self.envelope.envelope_id} -> n{self.dst_node} "
            f"{self.reason} attempts={self.attempts}>"
        )


class DeadLetterQueue:
    """Bounded per-destination capture of undeliverable envelopes.

    ``capture`` is called by the coordinator wherever it previously
    dropped an envelope on the floor (destination node down, target
    actor dead).  ``flush`` — invoked by ``recover_node`` — schedules
    redelivery of everything parked for the recovered node with capped
    exponential backoff (``base_backoff * 2**attempts``, at most
    ``max_backoff``).  Attempts are tracked per envelope id, so an
    envelope that keeps failing across crash cycles is expired after
    ``max_redeliveries`` instead of looping forever; a full queue evicts
    its oldest letter (also counted as expired, reason ``overflow``).
    """

    def __init__(
        self,
        system: "Host",
        capacity: int = 256,
        max_redeliveries: int = 4,
        base_backoff: float = 0.05,
        max_backoff: float = 1.0,
    ):
        if capacity <= 0:
            raise ValueError(f"dead-letter capacity must be positive, got {capacity}")
        if max_redeliveries < 1:
            raise ValueError("max_redeliveries must be at least 1")
        self.system = system
        self.capacity = capacity
        self.max_redeliveries = max_redeliveries
        self.base_backoff = base_backoff
        self.max_backoff = max_backoff
        self._queues: dict[int, deque[DeadLetter]] = {}
        #: Redelivery attempts per envelope id (survives re-capture).
        self._attempts: dict[int, int] = {}
        self.queued_total = 0
        self.redelivered_total = 0
        self.expired_total = 0
        #: Optional :class:`repro.store.NodeStore` — when attached, the
        #: letter lifecycle (capture / resolve / expire) is journaled so
        #: a restart re-adopts exactly the still-pending letters.  The
        #: queue only stages records; they become durable at the host's
        #: next commit point (the end of the turn that made them).
        self.store = None
        #: Letters re-adopted from disk by the last recovery.
        self.recovered_total = 0

    # -- capture ----------------------------------------------------------------

    def capture(self, envelope: Envelope, dst_node: int, reason: str) -> bool:
        """Park an undeliverable envelope; returns ``False`` if expired.

        Called *after* the drop was counted — capture is an additive
        safety net, it never rewrites the drop accounting.
        """
        attempts = self._attempts.get(envelope.envelope_id, 0)
        if attempts >= self.max_redeliveries:
            self._expire(envelope, dst_node, "max_redeliveries", attempts)
            return False
        queue = self._queues.setdefault(dst_node, deque())
        if len(queue) >= self.capacity:
            victim = queue.popleft()
            self._expire(victim.envelope, dst_node, "overflow", victim.attempts)
        letter = DeadLetter(
            envelope, dst_node, reason, self.system.clock.now, attempts
        )
        queue.append(letter)
        self.queued_total += 1
        if self.store is not None:
            self.store.append_dlq_capture(
                envelope, dst_node, reason, attempts, letter.queued_at)
        self.system.tracer.on_dead_letter(
            "queued", envelope, node=dst_node, t=self.system.clock.now,
            reason=reason, attempts=attempts,
        )
        return True

    def capture_retry(self, envelope: Envelope, dst_node: int,
                      reason: str) -> bool:
        """Park an envelope whose *destination is alive* and retry it.

        Overload sheds (full mailbox, admission rejection) differ from
        node-down captures: there is no future recovery edge to flush
        the queue, so redelivery is scheduled immediately with the same
        capped backoff.  This is queue-based load leveling — parked
        traffic re-offers itself as the destination drains, and an
        envelope that keeps being shed expires after
        ``max_redeliveries`` attempts instead of looping forever.

        Returns ``False`` if the envelope expired instead of parking.
        """
        if not self.capture(envelope, dst_node, reason):
            return False
        queue = self._queues[dst_node]
        self._schedule(queue.pop())
        return True

    def note_delivered(self, envelope_id: int) -> None:
        """Forget redelivery attempts for an envelope that got through.

        Called by the coordinator when an envelope lands in a mailbox
        (and by the TCP runtime when it hands an envelope to the wire).
        Without this, ``_attempts`` kept one entry per *successfully*
        redelivered envelope forever — entries were added in
        ``_schedule`` but only removed in ``_expire``, so the dict grew
        without bound under crash/recover churn.
        """
        if self._attempts:
            self._attempts.pop(envelope_id, None)
        if self.store is not None:
            # The store only journals ids it has persisted as captured
            # (this method fires on *every* mailbox landing, captured or
            # not — the store-side guard stops the write amplification).
            self.store.append_dlq_resolve(envelope_id)

    def _expire(self, envelope: Envelope, dst_node: int, reason: str,
                attempts: int) -> None:
        self.expired_total += 1
        self._attempts.pop(envelope.envelope_id, None)
        if self.store is not None:
            self.store.append_dlq_expire(envelope.envelope_id, reason, attempts)
        self.system.tracer.on_dead_letter(
            "expired", envelope, node=dst_node, t=self.system.clock.now,
            reason=reason, attempts=attempts,
        )

    # -- redelivery -------------------------------------------------------------

    def flush(self, node: int) -> int:
        """Schedule redelivery of everything parked for ``node``."""
        queue = self._queues.get(node)
        if not queue:
            return 0
        count = 0
        while queue:
            self._schedule(queue.popleft())
            count += 1
        return count

    def _schedule(self, letter: DeadLetter) -> None:
        delay = min(self.base_backoff * (2 ** letter.attempts), self.max_backoff)
        letter.attempts += 1
        self._attempts[letter.envelope.envelope_id] = letter.attempts
        self.system.events.schedule(
            self.system.clock.now + delay,
            lambda: self._redeliver(letter),
            priority=ACTOR_PRIORITY,
            tag=("dlq", letter.dst_node),
        )

    def _redeliver(self, letter: DeadLetter) -> None:
        system = self.system
        dst = letter.dst_node
        if system.transport.node_is_down(dst) or system.coordinators[dst].crashed:
            # The destination died again before the backoff elapsed: park
            # the letter for the next recovery (or expire it).
            if letter.attempts >= self.max_redeliveries:
                self._expire(letter.envelope, dst, "max_redeliveries",
                             letter.attempts)
            else:
                self._queues.setdefault(dst, deque()).append(letter)
            return
        self.redelivered_total += 1
        system.tracer.on_dead_letter(
            "redelivered", letter.envelope, node=dst, t=system.clock.now,
            reason=letter.reason, attempts=letter.attempts,
        )
        # Route from the (now live) destination's own coordinator; a
        # failed redelivery re-enters capture with its attempt count.
        target = letter.envelope.target
        assert target is not None
        system.coordinators[dst]._route(letter.envelope, target)

    # -- recovery ---------------------------------------------------------------

    def adopt(self, envelope: Envelope, dst_node: int, reason: str,
              queued_at: float = 0.0, attempts: int = 0) -> DeadLetter:
        """Re-insert a letter recovered from disk, bypassing capture.

        Capture would re-journal the letter (and re-count it in
        ``queued_total``); adoption restores the in-memory shape exactly
        as the snapshot/journal recorded it.  Redelivery happens through
        the ordinary ``flush``/recovery edges afterwards.
        """
        letter = DeadLetter(envelope, dst_node, reason, queued_at, attempts)
        self._queues.setdefault(dst_node, deque()).append(letter)
        if attempts:
            self._attempts[envelope.envelope_id] = attempts
        self.recovered_total += 1
        return letter

    def queues(self) -> dict[int, deque]:
        """The live per-destination queues (read-only use: snapshots)."""
        return self._queues

    # -- introspection ----------------------------------------------------------

    def pending(self, node: int | None = None) -> int:
        """Letters currently parked (for one node, or in total)."""
        if node is not None:
            return len(self._queues.get(node, ()))
        return sum(len(q) for q in self._queues.values())

    def letters(self):
        """Iterate every parked :class:`DeadLetter` (all destinations).

        Parked letters pin their envelope's addresses against garbage
        collection (§5.5: a letter still awaiting redelivery is a pending
        message), so the GC scan walks this.
        """
        for queue in self._queues.values():
            yield from queue

    def export_pending(self) -> dict[int, list[DeadLetter]]:
        """Parked letters per destination node (shallow copies) for
        conformance checking."""
        return {node: list(queue) for node, queue in self._queues.items() if queue}

    def __len__(self) -> int:
        return self.pending()

    def __repr__(self):
        return (
            f"<DeadLetterQueue pending={self.pending()} "
            f"queued={self.queued_total} redelivered={self.redelivered_total} "
            f"expired={self.expired_total}>"
        )
