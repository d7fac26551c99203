"""Integration: self-healing delivery under randomized crash/recover churn.

The acceptance property of the fault-tolerance subsystem: crashing any
single node — including the sequencer and the current token holder —
never raises out of the event loop, and once every crashed node has
recovered, all replicas converge to identical directory snapshots.
"""

import random

import pytest

from repro.runtime.network import Topology
from repro.runtime.system import ActorSpaceSystem

NODES = 5


def _churn_run(seed: int, bus: str) -> ActorSpaceSystem:
    """Random visibility churn interleaved with crash/recover events."""
    rng = random.Random(seed)
    system = ActorSpaceSystem(topology=Topology.lan(NODES), seed=seed, bus=bus)
    crashed: set[int] = set()
    serial = 0
    for _round in range(12):
        action = rng.random()
        if action < 0.25 and len(crashed) < NODES - 1:
            victim = rng.choice([n for n in range(NODES) if n not in crashed])
            system.crash_node(victim)  # may be the sequencer / token holder
            crashed.add(victim)
        elif action < 0.45 and crashed:
            back = rng.choice(sorted(crashed))
            system.recover_node(back)
            crashed.discard(back)
        # Visibility churn from a random *live* origin.
        live = [n for n in range(NODES) if n not in crashed]
        origin = rng.choice(live)
        addr = system.create_actor(lambda ctx, m: None, node=origin)
        system.make_visible(addr, f"churn/a{serial}", node=origin)
        serial += 1
        system.run(until=system.clock.now + rng.uniform(0.1, 1.5))
    for back in sorted(crashed):
        system.recover_node(back)
    system.run()  # quiescence: every replica caught up
    return system


@pytest.mark.parametrize("bus", ["sequencer", "token-ring"])
@pytest.mark.parametrize("seed", range(24))
def test_randomized_crash_recover_convergence(seed, bus):
    system = _churn_run(seed, bus)
    assert system.idle
    snapshots = [c.directory.snapshot() for c in system.coordinators]
    for node in range(1, NODES):
        assert snapshots[node] == snapshots[0], (
            f"replica {node} diverged after churn (seed={seed}, bus={bus})"
        )
    # No replica is left quarantining a live node.
    for coordinator in system.coordinators:
        assert coordinator.directory.quarantined_nodes == frozenset()
    # Nothing is left waiting for an order it will never get, and no two
    # seats ever minted the same sequence number.
    for core in getattr(system.bus.shards[0], "cores", {}).values():
        assert not core.unacked and core.conflicts == 0, (seed, core.me)


@pytest.mark.parametrize("bus", ["sequencer", "token-ring"])
def test_crashing_every_single_node_is_survivable(bus):
    """Crash each node in turn (fresh system each time): nothing escapes."""
    for victim in range(4):
        system = ActorSpaceSystem(topology=Topology.lan(4), seed=victim, bus=bus)
        a = system.create_actor(lambda ctx, m: None, node=(victim + 1) % 4)
        system.make_visible(a, "svc/a", node=(victim + 1) % 4)
        system.run()
        system.crash_node(victim)
        b = system.create_actor(lambda ctx, m: None, node=(victim + 2) % 4)
        system.make_visible(b, "svc/b", node=(victim + 2) % 4)
        system.send("svc/*", "hello", node=(victim + 1) % 4)
        system.run()  # no NodeDownError may escape
        system.recover_node(victim)
        system.run()
        assert system.replicas_coherent(), f"bus={bus} victim={victim}"


def test_detector_dlq_end_to_end_selfhealing():
    """Detector confirms → quarantine reroutes; recovery redelivers."""
    system = ActorSpaceSystem(topology=Topology.lan(4), seed=7)
    received: dict[int, list] = {1: [], 2: []}

    def server(node):
        return lambda ctx, m: received[node].append(m.payload)

    for node in (1, 2):
        addr = system.create_actor(server(node), node=node)
        system.make_visible(addr, f"svc/r{node}")
    system.run()
    system.crash_node(2)
    system.start_failure_detector(6.0, interval=0.25, confirm_after=3)
    system.run(until=system.clock.now + 2.0)  # detector confirms node 2
    assert 2 in system.failure_detector.confirmed_down
    # Quarantine: pattern sends now resolve only to the live replica.
    for i in range(10):
        system.send("svc/*", ("job", i))
    system.run(until=system.clock.now + 1.0)
    assert len(received[1]) == 10
    assert received[2] == []
    # Direct sends to the dead node were captured, and redeliver on recovery.
    dead_addr = system.resolve("svc/r2", node=0)  # masked: resolves empty
    assert dead_addr == []
    system.recover_node(2)
    system.run()
    assert system.resolve("svc/*") != []
    assert 2 not in system.directory_of(0).quarantined_nodes


def test_quarantine_preserves_snapshot_coherence():
    """Masks are an overlay: snapshots (and coherence) ignore them."""
    system = ActorSpaceSystem(topology=Topology.lan(3), seed=0)
    addr = system.create_actor(lambda ctx, m: None, node=2)
    system.make_visible(addr, "svc/a")
    system.run()
    system.crash_node(2)
    system.start_failure_detector(3.0, interval=0.5, confirm_after=2)
    system.run()
    # Replicas 0 and 1 mask node 2's entries but their snapshots still
    # carry them — recovery only has to lift the mask, not re-replicate.
    assert system.replicas_coherent()
    assert system.resolve("svc/*", node=0) == []
    snapshots = [c.directory.snapshot() for c in system.coordinators[:2]]
    assert all(
        any(addr in entries for entries in snap.values()) for snap in snapshots
    )
