"""Shared driver: a seeded simulator workload persisted through a NodeStore.

Every durability test needs the same thing — a bus log on disk whose
in-memory twin is known — so the generator lives here once.  The
workload mixes all visibility op kinds (including submissions that the
apply path rejects, which must round-trip through the log as rejected
ops, not disappear).
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import ActorSpaceError
from repro.runtime.network import Topology
from repro.runtime.system import ActorSpaceSystem
from repro.shard.merge import shard_dir
from repro.store import NodeStore


def noop(ctx, message):
    pass


def each_plane(test):
    """Run one restart case on a one-shard and on a two-shard plane.

    ``test(self, tmp_path, shards)`` gets a fresh directory per plane.
    One test id covers both (the ids are pinned by the suite's floor
    list); the failing plane is in the directory name of the traceback.
    """
    def run(self, tmp_path):
        for shards in (1, 2):
            test(self, tmp_path / f"shards{shards}", shards)

    run.__name__, run.__doc__ = test.__name__, test.__doc__
    return run


def attach_stores(system, store, **kwargs):
    """Give every shard's bus its store, laid out like a node's data
    directory: ``store`` (the top-level one) holds the only log of a
    one-shard plane, else shard K's log lives at ``shard-K`` below it.
    Returns shard -> store."""
    def store_for(shard):
        path = shard_dir(store.data_dir, system.shards, shard)
        return store if path == store.data_dir else NodeStore(path, **kwargs)

    system.bus.attach_store(store_for)
    return {k: bus.store for k, bus in system.bus.shards.items()}


def load_shard_ops(data_dir, shards):
    """shard -> persisted ``{seq: op}``, read the way a node recovers."""
    from repro.store.node_store import load_data_dir

    return {k: load_data_dir(shard_dir(data_dir, shards, k)).ops
            for k in range(shards)}


def close_stores(system, store):
    for each in {store, *(bus.store for bus in system.bus.shards.values())}:
        each.close()


def run_persisted_workload(data_dir, seed=0, n_ops=30, nodes=2,
                           fsync="commit", segment_bytes=None, shards=1):
    """Drive a seeded mixed workload with stores attached to the bus.

    Returns ``(system, store)`` — ``store`` is the top-level one; the
    caller closes the stores (or crashes them deliberately by not doing
    so).
    """
    system = ActorSpaceSystem(topology=Topology.lan(nodes), seed=seed,
                              shards=shards)
    kwargs = {"fsync": fsync}
    if segment_bytes is not None:
        kwargs["segment_bytes"] = segment_bytes
    store = NodeStore(data_dir, **kwargs)
    attach_stores(system, store, **kwargs)
    rng = np.random.default_rng(seed)
    spaces = [system.root_space]
    actors = []
    for i in range(n_ops):
        kind = int(rng.integers(0, 6))
        node = int(rng.integers(0, nodes))
        space = spaces[int(rng.integers(0, len(spaces)))]
        try:
            if kind == 0 or not actors:
                actor = system.create_actor(noop, node=node)
                actors.append(actor)
                system.make_visible(actor, f"pool/a{i}", space, node=node)
            elif kind == 1 and len(spaces) < 6:
                spaces.append(system.create_space(node=node,
                                                  attributes=f"region/{i}"))
            elif kind == 2:
                target = actors[int(rng.integers(0, len(actors)))]
                system.make_visible(target, f"extra/{i}", space, node=node)
            elif kind == 3:
                target = actors[int(rng.integers(0, len(actors)))]
                system.change_attributes(target, f"renamed/{i}", space,
                                         node=node)
            else:
                # Often targets an entry not visible in `space`: the apply
                # path rejects it, which the persisted log must reflect.
                target = actors[int(rng.integers(0, len(actors)))]
                system.make_invisible(target, space, node=node)
        except ActorSpaceError:
            pass
        if rng.random() < 0.3:
            system.run()
    system.run()
    return system, store


def log_signature(log):
    """A comparable shape for a seq->op map: what ordering + identity
    the durable log must preserve."""
    return [
        (seq, log[seq].kind.value, log[seq].origin_node, log[seq].origin_seq)
        for seq in sorted(log)
    ]
