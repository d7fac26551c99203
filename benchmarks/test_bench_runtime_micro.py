"""Runtime microbenchmarks: host-time cost of the core primitives.

Not a paper experiment — engineering telemetry for the simulator itself,
so regressions in the hot paths (routing, resolution, bus application)
show up in CI.  Complements E10 (which measures *algorithmic* scaling).
"""

import pytest

from repro.core.manager import SpaceManager
from repro.runtime.network import Topology
from repro.runtime.system import ActorSpaceSystem


def _system(nodes=4, seed=0, **kw):
    return ActorSpaceSystem(topology=Topology.lan(nodes), seed=seed, **kw)


def test_bench_direct_send_throughput(benchmark):
    """1000 point-to-point messages across a 4-node LAN."""

    def run():
        system = _system()
        sink = system.create_actor(lambda ctx, m: None, node=3)
        for i in range(1000):
            system.send_to(sink, i)
        system.run()
        return system.tracer.count("behavior_invocations_total")

    assert benchmark(run) == 1000


def test_bench_pattern_send_throughput(benchmark):
    """1000 pattern sends resolved against a 100-actor registry."""

    def run():
        system = _system()
        for i in range(100):
            addr = system.create_actor(lambda ctx, m: None, node=i % 4)
            system.make_visible(addr, f"svc/kind{i % 10}/i{i}")
        system.run()
        for i in range(1000):
            system.send(f"svc/kind{i % 10}/*", i)
        system.run()
        return sum(system.tracer.delivered.values())

    assert benchmark(run) == 1000


def test_bench_broadcast_fanout(benchmark):
    """100 broadcasts, each fanning out to 100 receivers."""

    def run():
        system = _system()
        for i in range(100):
            addr = system.create_actor(lambda ctx, m: None, node=i % 4)
            system.make_visible(addr, f"grp/m{i}")
        system.run()
        for i in range(100):
            system.broadcast("grp/*", i)
        system.run()
        return sum(system.tracer.delivered.values())

    assert benchmark(run) == 10_000


def test_bench_visibility_op_throughput(benchmark):
    """500 visibility changes sequenced, fanned out, and applied on 4 replicas."""

    def run():
        system = _system()
        addrs = [
            system.create_actor(lambda ctx, m: None, node=i % 4)
            for i in range(50)
        ]
        for round_no in range(10):
            for addr in addrs:
                system.make_visible(addr, f"r{round_no}/a{addr.serial}",
                                    node=addr.node)
        system.run()
        return system.bus.ops_sequenced

    assert benchmark(run) == 500


def _e10_style_workload(trace: bool) -> tuple[float, int]:
    """The E10 pattern-matching load; returns (host seconds, events emitted)."""
    import time

    start = time.perf_counter()
    system = _system(trace=trace)
    for i in range(100):
        addr = system.create_actor(lambda ctx, m: None, node=i % 4)
        system.make_visible(addr, f"svc/kind{i % 10}/i{i}")
    system.run()
    for i in range(1000):
        system.send(f"svc/kind{i % 10}/*", i)
    system.run()
    assert sum(system.tracer.delivered.values()) == 1000
    return time.perf_counter() - start, system.event_log.emitted_count


def test_tracing_disabled_overhead_guard():
    """The flight-recorder guard: tracing off must cost (nearly) nothing.

    With ``trace=False`` every hook pays one attribute check and emits no
    events; the median run time of the E10-style workload must stay
    within 5% of... nothing to compare against at runtime, so the guard
    asserts the two properties that bound the overhead: (1) the disabled
    path emits zero events, and (2) it is no slower than the fully
    instrumented path plus 5% slack — if disabled ever approaches or
    exceeds enabled cost, the cheap path has silently grown work.
    """
    import statistics

    # Warm-up (imports, caches), then interleave to decorrelate drift.
    _e10_style_workload(trace=False)
    disabled, enabled = [], []
    for _ in range(3):
        t_off, events_off = _e10_style_workload(trace=False)
        t_on, events_on = _e10_style_workload(trace=True)
        assert events_off == 0, "disabled tracing must emit no events"
        assert events_on > 1000, "enabled tracing should record the run"
        disabled.append(t_off)
        enabled.append(t_on)
    t_disabled = statistics.median(disabled)
    t_enabled = statistics.median(enabled)
    assert t_disabled <= t_enabled * 1.05, (
        f"tracing-off path too slow: {t_disabled:.4f}s vs "
        f"{t_enabled:.4f}s instrumented (limit: +5%)"
    )


def test_bench_token_ring_burst_drain(benchmark):
    """500 visibility ops drained through the token ring's deque queues.

    Guards the list→deque change in ``TokenRingBus``: the holder drains
    its whole pending queue per token visit, so ``pop(0)`` made a burst
    quadratic in its size.
    """

    def run():
        system = _system(bus="token-ring")
        addrs = [
            system.create_actor(lambda ctx, m: None, node=i % 4)
            for i in range(50)
        ]
        for round_no in range(10):
            for addr in addrs:
                system.make_visible(addr, f"r{round_no}/a{addr.serial}",
                                    node=addr.node)
        system.run()
        return system.bus.ops_sequenced

    assert benchmark(run) == 500


def test_bench_actor_creation(benchmark):
    """2000 actor creations with acquaintance scanning."""

    def run():
        system = _system()
        for i in range(2000):
            system.create_actor(lambda ctx, m: None, node=i % 4)
        return sum(len(c.actors) for c in system.coordinators)

    assert benchmark(run) == 2000


def test_atoms_are_interned_identities():
    """The interning guard behind the shard map's memo dict.

    ``check_atom`` routes every atom through ``sys.intern``, so atoms
    parsed from equal text at different times are the *same* object —
    the property ``ShardMap.owner_of``'s memo, the first-atom index, and
    every attribute dict rely on to hit the pointer-equality fast path.
    """
    from repro.core.atoms import as_paths, check_atom

    a = check_atom("tenant-" + "x" * 30)
    b = check_atom("tenant-" + "x" * 30)
    assert a is b, "check_atom must return the interned atom"
    p = sorted(as_paths("svc/db/primary"), key=str)[0]
    q = sorted(as_paths("svc" + "/db/primary"), key=str)[0]
    assert all(x is y for x, y in zip(p.atoms, q.atoms)), (
        "atoms parsed from equal text must be pointer-identical"
    )


def test_bench_shard_owner_lookup(benchmark):
    """100k shard-owner lookups over a 64-atom working set.

    The routing hot path: every visibility op resolves its space's home
    shard.  The memoized map must answer at dict-hit speed — this guard
    exists so a regression to re-hashing (or to un-interned atoms
    falling off the pointer-equality fast path) shows up in CI.
    """
    from repro.core.atoms import check_atom
    from repro.shard.map import ShardMap

    shard_map = ShardMap(8, nodes=[0, 1, 2, 3])
    atoms = [check_atom(f"tenant{i}") for i in range(64)]

    def run():
        owner_of = shard_map.owner_of
        total = 0
        for _ in range(100_000 // len(atoms)):
            for atom in atoms:
                total += owner_of(atom)
        return total

    first = run()
    assert benchmark(run) == first
