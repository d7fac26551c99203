"""Tests: a terminated actor is forgotten.

Absent and terminated are one state.  Termination frees the actor's
record (mailbox, behaviour) and its acquaintance set, and drops it from
the driver's held roots: a terminated actor can neither create actors
nor send, so it pins nothing in garbage collection (§5.5).  What it
leaves behind is its ``PURGE`` op in every replica's log.
"""

import gc
import tracemalloc

from repro.core.actor import Behavior
from repro.runtime.network import Topology
from repro.runtime.system import ActorSpaceSystem


def lan(nodes=3, seed=0):
    return ActorSpaceSystem(topology=Topology.lan(nodes), seed=seed)


class Holds(Behavior):
    """Knows one address through its state; ``quit`` terminates it."""

    def __init__(self, other=None):
        self.other = other

    def receive(self, ctx, message):
        if message.payload == "quit":
            ctx.terminate()


def sizes(system):
    return [(len(c.actors), len(c.acquaintances)) for c in system.coordinators]


def test_a_terminated_actor_leaves_only_its_purge_op_behind():
    """Each replica keeps the actor's ``PURGE`` op (≈ 470 B with its
    args, address and journal entry); everything else is freed."""
    system = lan()

    def churn(n):
        for i in range(n):
            address = system.create_actor(Holds(), node=i % 3)
            system.coordinators[address.node].terminate_actor(address)
            if i % 50 == 49:
                system.run()
        system.run()

    churn(200)  # warm the logs, journals and address tables
    before = sizes(system)
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        churn(2000)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        if started:
            tracemalloc.stop()
    assert sizes(system) == before
    assert retained / 2000 <= 800


def test_a_dead_actor_pins_nothing_in_gc():
    """Held root R knows D, D knows X.  Once D terminates, nothing live
    knows X: the collector takes it."""
    system = lan()
    x = system.create_actor(Holds())
    d = system.create_actor(Holds(x), node=1)
    r = system.create_actor(Holds(d), node=2)
    system.release(x)
    system.release(d)
    system.run()
    assert system.collect_garbage(delete=False).collected_actors == set()
    system.send_to(d, "quit")
    system.run()
    report = system.collect_garbage()
    assert x in report.collected_actors
    assert r in report.live_actors
    assert system.actor_record(x) is None


def test_claiming_and_terminating_in_one_invocation_leaves_no_acquaintances():
    def spawn_and_quit(ctx, message):
        ctx.create(Holds())
        ctx.terminate()

    system = lan()
    actor = system.create_actor(spawn_and_quit, node=1)
    system.send_to(actor, "go")
    system.run()
    assert system.actor_record(actor) is None
    assert actor not in system.coordinators[1].acquaintances


def test_a_terminated_driver_actor_is_no_longer_held():
    system = lan()
    actor = system.create_actor(Holds())
    assert actor in system._held_roots
    system.send_to(actor, "quit")
    system.run()
    assert actor not in system._held_roots
    assert system.queue_depth(0) == 0

