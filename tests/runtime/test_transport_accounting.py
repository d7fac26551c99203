"""Per-instance transport accounting and its metrics surface.

``attempts``/``drops`` were once class attributes — a subclass that
forgot its own assignments silently accumulated counts on the class,
shared across every system in the process.  These tests pin the fixed
contract: counters live on the instance, start at zero, and show up in
the system's ``metrics.snapshot()`` as its ``transport`` source.
"""

import numpy as np

from repro.runtime.network import Network, Topology
from repro.runtime.system import ActorSpaceSystem
from repro.runtime.transport import (
    InstantTransport,
    LossyTransport,
    NetworkTransport,
    Transport,
)


def _network(nodes=2, seed=0):
    return Network(Topology.lan(nodes), rng=np.random.default_rng(seed))


def test_counters_start_at_zero_per_instance():
    first, second = InstantTransport(), InstantTransport()
    first.try_deliver(0, 1)
    first.try_deliver(0, 1)
    assert (first.attempts, first.drops) == (2, 0)
    assert (second.attempts, second.drops) == (0, 0)
    assert "attempts" not in vars(Transport)  # never shared class state


def test_lossy_transport_counts_both_layers():
    lossy = LossyTransport(
        NetworkTransport(_network()), loss=0.99,
        rng=np.random.default_rng(1))
    drops = sum(lossy.try_deliver(0, 1) is None for _ in range(50))
    assert drops >= 1  # at 99% loss, 50 attempts cannot all succeed
    assert lossy.attempts == 50 and lossy.drops == drops
    snapshot = lossy.metrics_snapshot()
    assert snapshot["attempts"] == 50 and snapshot["drops"] == drops
    # The wrapped layer only sees attempts the lossy layer let through.
    assert snapshot["inner"]["attempts"] == 50 - drops


def test_system_metrics_surface_transport_counters():
    system = ActorSpaceSystem(topology=Topology.lan(2), seed=0)
    system.create_actor(lambda ctx, message: None, node=0)
    b = system.create_actor(lambda ctx, message: None, node=1)
    system.send_to(b, "hello")
    system.run()
    transport = system.metrics.snapshot()["transport"]
    assert transport["attempts"] >= 1
    assert transport["drops"] == 0
    assert transport["attempts"] == system.transport.attempts

    # A second system's transport starts from zero: no class-level bleed.
    fresh = ActorSpaceSystem(topology=Topology.lan(2), seed=1)
    assert fresh.transport.attempts == 0
