"""Overload protection in the simulator: bounded mailboxes feeding the
DLQ, admission control at the door, and the circuit breaker.

The common shape: a slow actor (``processing_delay``) is offered more
traffic than it can drain.  The assertions are about *accounting*, not
throughput — at quiescence every offered envelope must be delivered or
visibly expired, with the shed path leaving typed events and counters
behind.  Nothing silently vanishes.
"""

import pytest

from repro.runtime.admission import AdmissionControl, CircuitBreaker, TokenBucket
from repro.runtime.network import Topology
from repro.runtime.system import ActorSpaceSystem


def lan(nodes=3, seed=0, **kw):
    return ActorSpaceSystem(topology=Topology.lan(nodes), seed=seed, **kw)


class TestBoundedMailboxesInSystem:
    def test_overflow_sheds_into_dlq_and_load_levels(self):
        """Drop-oldest overflow is not loss: victims park in the DLQ and
        re-offer themselves as the actor drains (queue-based load
        leveling).  Conservation: received + expired == sent."""
        system = lan(mailbox_capacity=4, processing_delay=0.05)
        received = []
        addr = system.create_actor(lambda ctx, m: received.append(m.payload),
                                   node=1)
        sent = 24
        for i in range(sent):
            system.send_to(addr, i)
        system.run()
        record = system.actor_record(addr)
        assert record.mailbox.capacity == 4
        assert record.mailbox.shed_count > 0  # the bound actually bit
        assert system.tracer.dropped["mailbox_overflow"] > 0
        assert len(received) + system.dead_letters.expired_total == sent
        assert len(set(received)) == len(received)  # nothing doubled
        assert system.dead_letters.pending() == 0

    def test_suspend_sender_absorbs_burst_without_loss(self):
        """SUSPEND_SENDER defers instead of dropping: a burst within the
        stash budget is fully delivered, just later."""
        system = lan(mailbox_capacity=8, mailbox_policy="suspend-sender",
                     processing_delay=0.02)
        received = []
        addr = system.create_actor(lambda ctx, m: received.append(m.payload),
                                   node=1)
        for i in range(16):  # capacity + stash exactly absorb this
            system.send_to(addr, i)
        system.run()
        assert sorted(received) == list(range(16))
        assert system.actor_record(addr).mailbox.shed_count == 0
        assert system.dead_letters.queued_total == 0

    def test_default_capacity_is_invisible_at_normal_load(self):
        """Bounded-but-roomy: at sane traffic the bound changes nothing."""
        unbounded = lan(seed=7)
        bounded = lan(seed=7, mailbox_capacity=1024)
        results = []
        for system in (unbounded, bounded):
            received = []
            addr = system.create_actor(
                lambda ctx, m: received.append(m.payload), node=1)
            for i in range(64):
                system.send_to(addr, i)
            system.run()
            results.append(received)
        assert results[0] == results[1]
        assert bounded.dead_letters.queued_total == 0


class TestAdmissionControl:
    def test_token_bucket_refills_over_time(self):
        bucket = TokenBucket(rate=10.0, burst=2.0, now=0.0)
        assert bucket.try_take(0.0) and bucket.try_take(0.0)
        assert not bucket.try_take(0.0)  # burst exhausted
        assert bucket.try_take(0.1)      # one token back after 100ms
        assert not bucket.try_take(0.1)

    def test_rate_limit_sheds_at_the_door_with_full_accounting(self):
        system = lan(admission_rate=10.0, admission_burst=4.0,
                     processing_delay=0.001)
        received = []
        addr = system.create_actor(lambda ctx, m: received.append(m.payload),
                                   node=1)
        sent = 30
        for i in range(sent):
            system.send_to(addr, i)
        system.run()
        admission = system.admission
        assert admission is not None and admission.rejected_rate > 0
        assert system.tracer.count(
            "overload_admission_rate_total") == admission.rejected_rate
        assert system.metrics.snapshot()["admission"] == admission.metrics()
        # Rejected traffic was parked and re-offered, not lost: every
        # envelope is either delivered or visibly expired.
        assert len(received) + system.dead_letters.expired_total == sent
        assert len(set(received)) == len(received)
        assert system.dead_letters.pending() == 0

    def test_behavior_port_bypasses_admission(self):
        """Admission must never wedge an actor by refusing its next
        behavior: ``become`` traffic is exempt by port."""
        system = lan(admission_rate=0.000001, admission_burst=1.0)

        def flip(ctx, message):
            ctx.become(lambda c, m: received.append(m.payload))

        received = []
        addr = system.create_actor(flip, node=1)
        system.send_to(addr, "first")   # consumes the (0,1) route burst
        system.run()
        system.send_to(addr, "second")  # rejected at the door...
        system.run()
        assert system.admission.rejected_rate >= 1
        assert system.dead_letters.redelivered_total >= 1
        # ...then parked and re-offered via the destination's own route.
        # Had the BEHAVIOR-port become() envelope consumed that route's
        # only token, the redelivery would have expired instead — so
        # "second" arriving at the *flipped* behavior proves both the
        # exemption and the load-leveling path.
        assert received == ["second"]


class TestCircuitBreaker:
    def test_trips_on_sheds_and_recloses_after_cooldown(self):
        breaker = CircuitBreaker(threshold=3, window=1.0, cooldown=0.5)
        for t in (0.0, 0.1, 0.2):
            breaker.record_shed(t)
        assert not breaker.allow(0.2, saturated=False)
        assert breaker.open and breaker.trips == 1
        # Sheds still inside the 1s window keep re-arming the cooldown.
        assert not breaker.allow(1.0, saturated=False)
        # Sheds aged out, but only 0.3s quiet since the last re-arm.
        assert not breaker.allow(1.3, saturated=False)
        # Quiet past the cooldown: closes and admits.
        assert breaker.allow(1.6, saturated=False)
        assert not breaker.open

    def test_saturation_rearms_the_cooldown(self):
        breaker = CircuitBreaker(threshold=100, window=1.0, cooldown=0.5)
        assert not breaker.allow(0.0, saturated=True)
        assert not breaker.allow(0.4, saturated=True)  # re-armed at 0.4
        assert not breaker.allow(0.8, saturated=False)  # 0.4s quiet < cooldown
        assert breaker.allow(1.0, saturated=False)
        assert breaker.trips == 1  # one episode, not three

    def test_dlq_saturation_opens_the_breaker(self):
        system = lan(dlq_capacity=10, breaker_threshold=10 ** 6)
        addr = system.create_actor(lambda ctx, m: None, node=2)
        system.run()
        system.crash_node(2)
        for i in range(9):  # 9 >= 0.9 * capacity(10)
            system.send_to(addr, i)
        system.run()
        assert system.dead_letters.pending(2) == 9
        verdict = system.admission.check(0, 2, system.clock.now)
        assert verdict == "circuit_open"
        assert system.admission.metrics()["breakers_open"] == 1
        # Other destinations are unaffected.
        assert system.admission.check(0, 1, system.clock.now) is None

    def test_breaker_trip_emits_typed_events(self):
        system = lan(breaker_threshold=2, breaker_window=1.0,
                     breaker_cooldown=0.1, mailbox_capacity=2,
                     processing_delay=0.2)
        received = []
        addr = system.create_actor(lambda ctx, m: received.append(m.payload),
                                   node=1)
        sent = 40
        for i in range(sent):
            system.send_to(addr, i)
        system.run()
        admission = system.admission
        assert admission.rejected_breaker > 0
        assert admission.metrics()["breaker_trips"] >= 1
        assert system.tracer.count("overload_circuit_open_total") \
            == admission.rejected_breaker
        assert system.tracer.count("overload_breaker_open_total") >= 1
        # Conservation still holds through breaker sheds.
        assert len(received) + system.dead_letters.expired_total == sent
        assert system.dead_letters.pending() == 0


class TestDlqAttemptAccounting:
    def test_successful_redelivery_clears_attempt_records(self):
        """Regression: ``_attempts`` leaked one entry per *successfully*
        redelivered envelope (entries were added in ``_schedule`` but
        only removed on expiry), growing without bound under
        crash/recover churn."""
        system = lan()
        received = []
        addr = system.create_actor(lambda ctx, m: received.append(m.payload),
                                   node=2)
        system.run()
        for round_no in range(3):
            system.crash_node(2)
            system.send_to(addr, round_no)
            system.run()
            assert system.dead_letters.pending(2) == 1
            system.recover_node(2)
            system.run()
            assert received[-1] == round_no
        assert system.dead_letters.redelivered_total == 3
        assert system.dead_letters.pending() == 0
        assert system.dead_letters._attempts == {}

    def test_attempts_survive_overload_recapture_cycles(self):
        """The fix must not reset attempts for envelopes that keep being
        shed: a permanently-refused envelope still expires instead of
        looping forever."""
        system = lan(mailbox_capacity=1, mailbox_policy="drop-newest",
                     processing_delay=100.0)  # effectively never drains
        addr = system.create_actor(lambda ctx, m: None, node=1)
        for i in range(8):
            system.send_to(addr, i)
        system.run(until=50.0)
        # Everything beyond the single mailbox slot cycled shed->DLQ->
        # shed until max_redeliveries, then expired.  Bounded, done.
        assert system.dead_letters.expired_total == 7
        assert system.dead_letters.pending() == 0
        assert system.dead_letters._attempts == {}


class TestTerminationLeftovers:
    def test_closed_mailbox_leftovers_are_dead_lettered(self):
        """Regression: ``Mailbox.close()`` returns the still-queued mail,
        but ``terminate_actor`` discarded it after logging — terminated-
        actor mail now lands in the DLQ like every other undeliverable."""
        system = lan(processing_delay=0.5)

        def quit_on_first(ctx, message):
            ctx.terminate()

        addr = system.create_actor(quit_on_first, node=1)
        for i in range(5):
            system.send_to(addr, i)
        system.run()
        # First message terminates the actor; the other four were queued
        # behind it (processing_delay kept them waiting) and must be
        # captured, not vanished.
        letters = list(system.dead_letters.letters())
        assert len(letters) == 4
        assert all(l.reason == "mailbox_closed" for l in letters)
        assert system.dead_letters.queued_total == 4
