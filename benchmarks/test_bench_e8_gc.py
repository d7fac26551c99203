"""E8 — section 5.5: garbage collection of actors and actorSpaces.

Claims regenerated:
* visible actors are pinned by their container space; invisible,
  unreferenced, idle actors are collected;
* spaces need no inverse reachability — unreachable spaces simply go;
* collection scales to tens of thousands of actors (cost table).
"""

import time

from repro.core.actorspace import SpaceRecord
from repro.core.addresses import ActorAddress, SpaceAddress
from repro.core.gc import GarbageCollector
from repro.core.visibility import Directory
from repro.runtime.network import Topology
from repro.runtime.system import ActorSpaceSystem
from repro.util import TextTable

from .common import emit


def _churn_world(n_actors, visible_fraction, acquaintance_degree, seed=0):
    import numpy as np

    rng = np.random.default_rng(seed)
    d = Directory()
    root = SpaceAddress(0, 0)
    d.add_space(SpaceRecord(root))
    actors = [ActorAddress(0, i + 1) for i in range(n_actors)]
    n_visible = int(n_actors * visible_fraction)
    for a in actors[:n_visible]:
        d.make_visible(a, f"a/{a.serial}", root)
    acquaintances = {}
    for a in actors:
        friends = rng.choice(n_actors, size=acquaintance_degree, replace=False)
        acquaintances[a] = {actors[int(f)] for f in friends}
    return d, root, actors, acquaintances


def _collect(n_actors, visible_fraction=0.2, degree=2, seed=0):
    d, root, actors, acq = _churn_world(n_actors, visible_fraction, degree,
                                        seed)
    gc = GarbageCollector(d, acq)
    t0 = time.perf_counter()
    report = gc.collect(roots=[root], all_actors=actors)
    elapsed = time.perf_counter() - t0
    return report, elapsed


def test_bench_e8_gc(benchmark):
    scale = TextTable(
        ["actors", "visible", "collected", "kept (reachable)", "ms"],
        title="E8a: collection over synthetic populations (20% visible)",
    )
    for n in (1_000, 5_000, 20_000, 50_000):
        report, elapsed = _collect(n)
        scale.add_row([
            n, int(n * 0.2), len(report.collected_actors),
            len(report.live_actors), elapsed * 1e3,
        ])

    # Live-system churn: spawn short-lived children, verify periodic GC
    # reclaims them while the visible service population survives.
    system = ActorSpaceSystem(topology=Topology.lan(2), seed=1)
    servers = []
    for i in range(10):
        addr = system.create_actor(lambda ctx, m: None)
        system.make_visible(addr, f"svc/s{i}")
        servers.append(addr)
    system.run()

    rounds = TextTable(
        ["round", "live actors before", "collected", "live after",
         "servers intact"],
        title="E8b: periodic GC on a running system (create-and-forget churn)",
    )

    def live_count():
        return sum(len(c.actors) for c in system.coordinators)

    for round_no in range(4):
        # A burst of short-lived actors the driver immediately forgets.
        transients = [
            system.create_actor(lambda ctx, m: None, node=i % 2)
            for i in range(10)
        ]
        system.run()
        before = live_count()
        for t in transients:
            system.release(t)
        report = system.collect_garbage()
        after = live_count()
        d0 = system.directory_of(0)
        intact = all(s in d0.space(system.root_space) for s in servers)
        rounds.add_row([round_no, before, report.collected_count, after,
                        intact])
    emit("e8_gc", scale, rounds)
    benchmark(lambda: _collect(5_000))
