"""Drivers and drills: scenarios written against a cluster's verbs.

Everything here reaches a cluster through ``call(node, verb, **args)``,
``wait_until`` / ``wait_linked``, the fault verbs (``stall``, ``resume``,
``kill``, ``kill_all``, ``respawn_all``) and ``.n`` / ``.shards``, and
reads every verdict back through ``call`` — a drill does not know that
its nodes are processes (§5.3: a sender need not know where its
receivers are).  :class:`~repro.net.cluster.LocalCluster` is one such
cluster.  The ``cluster``, ``durability`` and ``shard`` commands share
one scaffold (:func:`_parser`, :func:`_run`).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable

from repro.apps.process_pool import Job, expected_result
from repro.check.logcheck import check_recovered
from repro.check.scenario import (
    VISIBILITY_OPS,
    generate_scenario,
    repair_commands,
    run_visibility,
)
from repro.core.errors import ActorSpaceError
from repro.core.messages import Destination
from repro.runtime.eventlog import validate_chrome_trace
from repro.runtime.network import Topology
from repro.runtime.system import ActorSpaceSystem
from repro.shard.map import ShardMap
from repro.store.node_store import load_node_dir
from repro.store.replay import replay_recovered

from .cluster import (
    WIRE_KEYS,
    ControlError,
    LocalCluster,
    TelemetryCollector,
    _jsonable,
    loopback_available,
)
from .peer import MAX_PENDING_BYTES

Log = Callable[[str], None]


# -- waiting on the cluster ----------------------------------------------------


def _await_replies(cluster, verb: str, test: Callable[[Any], bool], *,
                   nodes=None, what: str, **args) -> list:
    """Block until every listed node's (default: every node's) reply to
    ``verb`` passes ``test``; return those replies, in node order."""
    members = range(cluster.n) if nodes is None else nodes
    replies: list = []

    def passed() -> bool:
        replies[:] = [cluster.call(node, verb, **args) for node in members]
        return all(map(test, replies))

    cluster.wait_until(passed, timeout=30.0, what=what)
    return replies


def _await_actor(cluster, address, n, *, attr: str = "count", what: str):
    """Block until actor ``attr`` at ``address`` is set and reaches ``n``;
    return the value it was read at."""
    [state] = _await_replies(
        cluster, "actor_state", lambda s: s[attr] is not None and s[attr] >= n,
        nodes=[address.node], what=what, address=address, attrs=[attr])
    return state[attr]


def _replication_barrier(cluster, *, nodes: list[int] | None = None,
                         what: str = "visibility ops replicated") -> None:
    """Block until every (listed) node has applied every op submitted.

    Nothing unacked anywhere means every op has been sequenced and has
    come back to its origin; equal cursors then mean everyone has applied
    all of them.  A summed ``applied_seq`` is meaningless across nodes
    mid-flight (two nodes can hold the same total while trailing on
    *different* shards), so each shard's cursor is compared separately.
    """
    members = list(nodes) if nodes is not None else list(range(cluster.n))

    def caught_up() -> bool:
        rows = [cluster.call(node, "status")["shards"] for node in members]
        return all(info["unacked"] == 0
                   and info["applied"] == rows[0][k]["applied"]
                   for shards in rows for k, info in shards.items())

    cluster.wait_until(caught_up, what=what)


# -- the fault drill and the example drivers ----------------------------------


def _fault_drill(cluster, victim: int, mode: str, log: Log) -> dict:
    """Confirm-down → DLQ capture → recovery → redelivery.

    ``stall`` freezes the victim (sockets and actor state survive), so
    redelivered probes demonstrably *arrive*: the probe counter on the
    victim ends at the full count.  ``kill`` loses the victim's actors;
    the drill then verifies quarantine, dead-letter drain on reconnect,
    directory re-sync, and that a freshly created actor on the respawned
    node is reachable.
    """
    observer = 0 if victim != 0 else 1
    report: dict[str, Any] = {"mode": mode, "victim": victim,
                              "observer": observer}
    probe = cluster.call(victim, "create_actor", behavior="counter")["address"]

    t0 = time.monotonic()
    if mode == "stall":
        cluster.stall(victim)
        # The victim is frozen but not yet confirmed down: the observer
        # keeps routing to it, so hammer sends at the dead link and
        # check the write path's memory stays bounded — drain()
        # backpressure fills the per-link queue, which sheds past its
        # cap instead of growing.
        for index in range(300):
            cluster.call(observer, "send_to", target=probe,
                         payload=("flood", index, "x" * 2048))
        hub = cluster.call(observer, "snapshot", events=False)["hub"]
        report["stall_send_buffer_bytes"] = hub["send_buffer_bytes"]
        report["stall_frames_shed"] = hub["frames_shed"]
        assert hub["send_buffer_bytes"] <= MAX_PENDING_BYTES, \
            f"send queue exceeded its bound: {hub['send_buffer_bytes']}"
        log(f"flooded stalled node {victim}: observer send buffer "
            f"{hub['send_buffer_bytes']}B (bound {MAX_PENDING_BYTES}B), "
            f"{hub['frames_shed']} frames shed")
    else:
        cluster.kill(victim)

    [status] = _await_replies(
        cluster, "status", lambda s: victim in s["confirmed_down"],
        nodes=[observer], what=f"node {victim} confirmed down")
    report["confirm_seconds"] = round(time.monotonic() - t0, 3)
    report["quarantined_on_observer"] = status["quarantined"]
    assert victim in status["quarantined"], \
        "confirmed-down node was not quarantined"
    log(f"node {victim} confirmed down + quarantined on node {observer} "
        f"after {report['confirm_seconds']}s")

    probes = 5
    for i in range(probes):
        cluster.call(observer, "send_to", target=probe, payload=("probe", i))
    dlq = cluster.call(observer, "dlq")
    report["dlq_captured"] = dlq["pending"]
    assert dlq["pending"] >= probes, \
        f"expected >= {probes} dead letters, saw {dlq['pending']}"
    log(f"{dlq['pending']} probe messages captured in node {observer}'s "
        f"dead-letter queue")

    t1 = time.monotonic()
    if mode == "stall":
        cluster.resume(victim)
    else:
        cluster.respawn_all([victim])
        cluster.wait_linked(timeout=30.0)
    _await_replies(cluster, "status",
                   lambda s: victim not in s["confirmed_down"],
                   nodes=[observer], what=f"node {victim} recovery")
    # flush() only *schedules* redeliveries (with backoff), so wait for
    # the redelivered counter, not just an empty queue.
    [dlq] = _await_replies(
        cluster, "dlq", lambda d: d["pending"] == 0
        and d["redelivered"] >= probes,
        nodes=[observer], what="dead-letter redelivery")
    report["recover_seconds"] = round(time.monotonic() - t1, 3)
    report["dlq_redelivered"] = dlq["redelivered"]
    log(f"node {victim} recovered after {report['recover_seconds']}s; "
        f"{dlq['redelivered']} dead letters redelivered")

    if mode == "stall":
        # Actor state survived the stall: every redelivered probe landed.
        report["probe_count"] = _await_actor(cluster, probe, probes,
                                             what="all probes redelivered")
        log(f"probe actor on node {victim} received all "
            f"{report['probe_count']} redelivered messages")
    else:
        # State was lost with the process; prove the respawned node works.
        fresh = cluster.call(victim, "create_actor",
                             behavior="counter")["address"]
        cluster.call(observer, "send_to", target=fresh, payload=("alive",))
        _await_actor(cluster, fresh, 1, what="respawned node reachable")
        report["respawn_reachable"] = True
        log(f"respawned node {victim} reachable (fresh actor answered)")
    return report


def drive_process_pool(cluster, *, job_size: int = 4096, grain: int = 64,
                       fanout: int = 4, cost_per_item: float = 0.0005,
                       workers_per_node: int = 2,
                       drill: tuple[str, int] | None = None,
                       log: Log = print) -> dict:
    """Figure-1 process pool across the cluster's nodes (+ optional drill)."""
    n = cluster.n
    report: dict[str, Any] = {"example": "process_pool", "nodes": n}

    pool = cluster.call(0, "create_space", attributes="procpool")["address"]
    _await_replies(cluster, "has_space", bool, address=pool,
                   what="pool space replicated")

    def add_worker(node: int, index: int):
        return cluster.call(
            node, "create_actor", behavior="pool_worker",
            params={"pool": pool, "grain": grain, "fanout": fanout,
                    "cost_per_item": cost_per_item},
            space=pool,
            visible={"attributes": f"proc/p{index}", "space": pool},
        )["address"]

    workers = {index: (index % n, add_worker(index % n, index))
               for index in range(n * workers_per_node)}
    _await_replies(cluster, "resolve", lambda found: len(found) == len(workers),
                   pattern="**", space=pool,
                   what="worker visibility replicated")
    report["workers"] = len(workers)
    log(f"pool ready: {len(workers)} workers visible on all {n} nodes")

    def run_job(tag: str) -> dict:
        job = Job(0, job_size)
        t0 = time.monotonic()
        client = cluster.call(
            0, "create_actor", behavior="pool_client",
            params={"pool": pool, "lo": job.lo, "hi": job.hi})["address"]
        # A pool result is a sum of non-negative terms: set means >= 0.
        result = _await_actor(cluster, client, 0, attr="result",
                              what=f"{tag} pool result")
        elapsed = time.monotonic() - t0
        expected = expected_result(job)
        assert result == expected, \
            f"{tag}: pool computed {result}, expected {expected}"
        log(f"{tag}: job(0,{job_size}) -> {result} (correct) "
            f"in {elapsed:.2f}s wall")
        return {"result": result, "expected": expected, "correct": True,
                "wall_seconds": round(elapsed, 3)}

    def live_actors() -> list[int]:
        return [cluster.call(node, "status")["actors"] for node in range(n)]

    before = live_actors()
    report["first_run"] = run_job("first run")
    # Every collector terminated once it merged: only the client stays.
    gained = [now - was for now, was in zip(live_actors(), before)]
    assert gained == [1] + [0] * (n - 1), \
        f"first run left actors behind (gained per node: {gained})"
    if drill is not None:
        mode, victim = drill
        report["drill"] = _fault_drill(cluster, victim, mode, log)
        if mode == "kill":
            # The kill lost the victim's workers, but the replicated
            # directory (rebuilt on respawn via bus re-sync) still
            # advertises them — pattern sends would route to ghosts.
            # Operationally: retire the dead registrations, provision
            # fresh processors.  The paper's open-system story — the
            # pool membership changes, clients never notice.
            observer = 0 if victim != 0 else 1
            next_index = max(workers) + 1
            dead = [(index, address)
                    for index, (node, address) in sorted(workers.items())
                    if node == victim]
            # Retire EVERY ghost before provisioning any replacement:
            # the respawned node restarts actor serials at zero, so a
            # replacement can be allocated the very address a dead
            # worker's registration still holds — retiring that ghost
            # after the fact would wipe the replacement's entry too.
            for index, address in dead:
                cluster.call(observer, "make_invisible",
                             target=address, space=pool)
                workers.pop(index)
            for _ in dead:
                workers[next_index] = (victim, add_worker(victim, next_index))
                next_index += 1
            members = sorted(address for _, address in workers.values())
            _await_replies(cluster, "resolve",
                           lambda found: sorted(found) == members,
                           pattern="**", space=pool,
                           what="pool membership after re-provisioning")
            log(f"retired node {victim}'s dead workers, provisioned "
                f"{workers_per_node} replacements")
        report["post_drill_run"] = run_job("post-drill run")
    return report


def drive_replicated(cluster, *, requests: int = 8,
                     drill: tuple[str, int] | None = None,
                     log: Log = print) -> dict:
    """A replica-per-node service; broadcasts must reach every replica."""
    n = cluster.n
    report: dict[str, Any] = {"example": "replicated", "nodes": n}

    service = cluster.call(0, "create_space", attributes="service")["address"]
    _await_replies(cluster, "has_space", bool, address=service,
                   what="service space replicated")
    replicas = [cluster.call(
        node, "create_actor", behavior="replica",
        params={"name": f"r{node}"}, space=service,
        visible={"attributes": f"replica/r{node}", "space": service},
    )["address"] for node in range(n)]
    _await_replies(cluster, "resolve", lambda found: len(found) == n,
                   pattern="**", space=service,
                   what="replica visibility replicated")
    collector = cluster.call(0, "create_actor", behavior="counter",
                             params={"keep": 64})["address"]
    log(f"service ready: {n} replicas")

    for i in range(requests):
        cluster.call(0, "broadcast", destination=Destination("**", service),
                     payload=("request", i), reply_to=collector)
    expected_acks = requests * n
    _await_actor(cluster, collector, expected_acks, what="broadcast acks")
    per_replica = [_await_actor(cluster, replica, requests,
                                what="requests at every replica")
                   for replica in replicas]
    assert per_replica == [requests] * n, per_replica
    report.update({"requests": requests, "acks": expected_acks,
                   "per_replica": per_replica, "correct": True})
    log(f"{requests} broadcasts -> {expected_acks} acks "
        f"({requests} per replica on every node)")
    if drill is not None:
        mode, victim = drill
        report["drill"] = _fault_drill(cluster, victim, mode, log)
    return report


# -- sim-as-oracle conformance over TCP ---------------------------------------


def _drive_visibility(commands: list, nodes: int, names: dict, call, barrier,
                      behavior, refusal) -> list[dict]:
    """Run a visibility script through one host; what each probe resolved.

    ``barrier()`` returns once every replica has applied everything
    submitted so far.  It runs between consecutive commands issued at
    different nodes — one origin's ops are FIFO on their own, so the
    order of the script is the order of the bus and the end state does
    not depend on how the host interleaves origins — and before every
    probe, which then asks every replica.
    """
    probes: list[dict] = []
    at = None
    for cmd in commands:
        if cmd["op"] == "probe" or (at is not None and cmd["node"] != at):
            barrier()
        if cmd["op"] == "probe":
            probes.append({
                node: sorted(run_visibility({**cmd, "node": node}, names,
                                            call, behavior))
                for node in range(nodes)})
            continue
        at = cmd["node"]
        try:
            run_visibility(cmd, names, call, behavior)
        except refusal:
            # The synchronous precheck saw a cycle.  Whether it fires
            # depends on what the origin had applied by then; when it does
            # not, every replica refuses the op at apply time instead —
            # the vocabulary never removes a space-in-space edge (invis
            # and chattr name actors), so the end state is the same.
            if cmd["op"] in ("actor", "space"):
                raise
    barrier()
    return probes


def run_tcp_conformance(seeds: list[int], *, nodes: int = 3, shards: int = 1,
                        out_dir: str | Path | None = None,
                        log: Log = print) -> dict:
    """Diff real TCP clusters against the single-process simulator.

    Returns ``{"seeds": ..., "divergences": [...]}`` — empty divergences
    means every node's directory replica and every probe's resolution
    on every node matched the simulator exactly.

    The script is the visibility vocabulary of a generated conformance
    scenario (:data:`repro.check.scenario.VISIBILITY_OPS`), its commands
    issued at the nodes the scenario names, through the same driver
    verbs on both sides: method calls on an ``ActorSpaceSystem`` of
    ``nodes`` nodes, control requests to ``nodes`` processes.

    Both sides run the visibility plane on ``shards`` streams.  The
    cluster keeps the default spread seat assignment (shard k's
    sequencer on node k mod n), so cross-shard submissions genuinely
    traverse the SHARD_FWD wire path; the quiescent end state is
    interleaving-independent, so it still has to equal the simulator's.
    """
    divergences: list[dict] = []
    for seed in seeds:
        scenario = generate_scenario(seed, nodes=nodes, bus="sequencer",
                                     faults=False)
        script = repair_commands(nodes, [
            cmd for cmd in scenario.commands if cmd["op"] in VISIBILITY_OPS])
        origins = sorted({cmd["node"] for cmd in script if "node" in cmd})

        oracle = ActorSpaceSystem(topology=Topology.lan(nodes), seed=seed,
                                  shards=shards)
        oracle_probes = _drive_visibility(
            script, nodes, {"ROOT": oracle.root_space},
            lambda node, verb, **args: getattr(oracle, verb)(node=node, **args),
            oracle.run, lambda ctx, message: None, ActorSpaceError)
        oracle_snapshots = [oracle.directory_of(node).snapshot()
                            for node in range(nodes)]

        cluster = LocalCluster(nodes, seed=seed, out_dir=out_dir,
                               shards=shards)

        def call(node: int, verb: str, **args):
            value = cluster.call(node, verb, **args)
            return value["address"] if verb.startswith("create_") else value

        try:
            cluster.start()
            probes = _drive_visibility(
                script, nodes, {"ROOT": oracle.root_space}, call,
                lambda: _replication_barrier(cluster), "counter",
                ControlError)
            snapshots = {i: cluster.call(i, "directory")["snapshot"]
                         for i in range(cluster.n)}
        finally:
            cluster.shutdown()

        for node in range(nodes):
            if snapshots[node] != oracle_snapshots[node]:
                divergences.append({
                    "seed": seed, "node": node, "kind": "directory",
                    "cluster": _jsonable(snapshots[node]),
                    "oracle": _jsonable(oracle_snapshots[node]),
                })
            for index, expected in enumerate(oracle_probes):
                if probes[index][node] != expected[node]:
                    divergences.append({
                        "seed": seed, "node": node, "kind": "resolve",
                        "probe": index,
                        "cluster": _jsonable(probes[index][node]),
                        "oracle": _jsonable(expected[node]),
                    })
        verdict = "MATCH" if not divergences else "DIVERGED"
        log(f"seed {seed}: tcp cluster vs simulator -> {verdict} "
            f"({len(script)} commands issued at nodes {origins}, "
            f"shards={shards})")
        if divergences:
            divergences[0]["script"] = script  # replayable as it stands
            break  # first divergence is the story; don't pile on
    return {"seeds": list(seeds), "nodes": nodes, "shards": shards,
            "divergences": divergences}


def run_durability_drill(cluster, data_dir: str | Path, *, wave: int = 25,
                         probes: int = 5, log: Log = print) -> dict:
    """SIGKILL the whole cluster mid-traffic; prove recovery from disk.

    The script: deliver a verified message wave, park ``probes`` dead
    letters for a downed victim, then kill every node (no orderly
    shutdown, no final snapshot — disk is all the next incarnation
    gets; node N's is ``<data_dir>/node<N>``).  Recovery is held to
    three independent referees:

    1. **offline** — the persisted log passes the conformance oracle and
       replays to a byte-identical digest twice; the replayed directory
       equals the pre-crash directory;
    2. **online** — every restarted node's directory equals the
       pre-crash directory, the dead letters are re-adopted exactly, and
       conservation closes: delivered + pending + expired == offered;
    3. **forward** — fresh ops sequence cleanly after recovery (origin
       seq resync: ghost re-registration would dedup them into the
       void), and a second crash of node 0 exercises snapshot + suffix
       replay rather than full-log replay.
    """
    n = cluster.n
    victim = n - 1
    report: dict[str, Any] = {"drill": "durability", "nodes": n,
                              "wave": wave, "probes": probes,
                              "data_dir": str(data_dir)}

    # Traffic substrate: one counter per node, visible in the root space.
    counters = {node: cluster.call(node, "create_actor", behavior="counter",
                                   visible={"attributes": f"dur/c{node}"}
                                   )["address"] for node in range(n)}
    for index in range(wave):
        for node in range(n):
            cluster.call(0, "send_to", target=counters[node],
                         payload=("wave", index))
    for node in range(n):
        _await_actor(cluster, counters[node], wave, what="wave delivery")
    delivered = wave * n
    log(f"wave delivered: {delivered} messages ({wave} per node)")

    # Group commit, as a count: a burst submitted to the seat in one
    # control call is one turn there, so one fsync, not one per op.
    cluster.call(0, "vis_burst", target=counters[0], count=8)
    applied = cluster.call(0, "status")["applied_seq"]
    store = _await_replies(
        cluster, "status", lambda s: s["applied_seq"] >= applied,
        what="visibility convergence before the crash")[0]["store"]
    assert store["fsyncs"] < store["ops_appended"], store
    log(f"seat node 0 persisted {store['ops_appended']} ops in "
        f"{store['fsyncs']} fsyncs ({store['ops_per_fsync']} ops/fsync)")
    pre_dir = cluster.call(0, "directory")["snapshot"]
    report["pre_kill_applied_seq"] = applied

    # Park letters: confirm the victim down, then aim probes at it.
    cluster.kill(victim)
    _await_replies(cluster, "status", lambda s: victim in s["confirmed_down"],
                   nodes=[0], what=f"node {victim} confirmed down")
    for i in range(probes):
        cluster.call(0, "send_to", target=counters[victim],
                     payload=("probe", i))
    [dlq] = _await_replies(cluster, "dlq", lambda d: d["pending"] >= probes,
                           nodes=[0], what="probe letters captured")
    assert dlq["pending"] == probes, dlq
    log(f"{probes} letters parked in node 0's dead-letter queue")

    cluster.kill_all()
    log("all nodes SIGKILLed")

    # Referee 1 (offline): oracle over the persisted log + determinism.
    node0_dir = str(Path(data_dir) / "node0")
    recovered, shard_ops = load_node_dir(node0_dir)
    assert recovered.report.clean, recovered.report.to_dict()
    problems = check_recovered(recovered, shard_ops)
    assert not problems, problems[:5]
    _, first = replay_recovered(recovered, shard_ops)
    replayed, second = replay_recovered(*load_node_dir(node0_dir))
    assert first["digest"] == second["digest"], (first, second)
    assert replayed.directory.snapshot() == pre_dir, \
        "offline replay directory differs from the pre-crash directory"
    report["offline"] = {"digest": first["digest"],
                         "ops_applied": first["ops_applied"]}
    log(f"offline: log passes the oracle, replay digest stable over "
        f"{first['ops_applied']} ops ({first['digest'][:12]}...)")

    # Referee 2 (online): restart the survivors only — recovery must
    # come from disk, not from any live peer.
    survivors = list(range(n - 1))
    cluster.respawn_all(survivors)
    _await_replies(cluster, "status", lambda s: s["recovery"] is not None
                   and s["applied_seq"] >= applied,
                   nodes=survivors, what="survivor recovery from disk")
    for node in survivors:
        assert cluster.call(node, "directory")["snapshot"] == pre_dir, \
            f"node {node} directory diverged after recovery"
    dlq = cluster.call(0, "dlq")
    assert dlq["recovered"] == probes and dlq["pending"] == probes, dlq
    offered = delivered + probes
    assert delivered + dlq["pending"] + dlq["expired"] == offered, dlq
    report["recovered_dlq"] = dict(dlq)
    log(f"survivors recovered: directories match pre-crash state; "
        f"conservation closes (delivered {delivered} + pending "
        f"{dlq['pending']} + expired {dlq['expired']} == offered {offered})")

    # The victim returns on its own data dir; parked letters drain to it.
    cluster.respawn_all([victim])
    cluster.wait_linked(timeout=30.0)
    [dlq] = _await_replies(cluster, "dlq", lambda d: d["pending"] == 0
                           and d["redelivered"] >= probes, nodes=[0],
                           what="dead-letter drain to the recovered victim")
    report["final_dlq"] = dict(dlq)
    log(f"victim recovered; {dlq['redelivered']} letters redelivered, "
        f"0 pending")

    # Referee 3 (forward): fresh ops after recovery.
    fresh_space = cluster.call(0, "create_space",
                               attributes="post-crash")["address"]
    _await_replies(cluster, "has_space", bool, address=fresh_space,
                   what="post-recovery space replication")
    fresh = cluster.call(victim, "create_actor", behavior="counter",
                         visible={"attributes": "post-crash/alive",
                                  "space": fresh_space})["address"]
    cluster.call(0, "send_to", target=fresh, payload=("alive",))
    _await_actor(cluster, fresh, 1, what="post-recovery liveness")
    log("post-recovery traffic flows (fresh space + actor on the victim)")

    # Second cycle for node 0: its first recovery wrote a fresh
    # snapshot, so this crash exercises snapshot + suffix replay.
    applied2 = cluster.call(0, "status")["applied_seq"]
    cluster.kill(0)
    cluster.respawn_all([0])
    [status] = _await_replies(
        cluster, "status", lambda s: s["applied_seq"] >= applied2,
        nodes=[0], what="second recovery of node 0")
    assert status["recovery"]["snapshot_seq"] >= 0, status["recovery"]
    assert (cluster.call(0, "directory")["snapshot"]
            == cluster.call(1, "directory")["snapshot"])
    report["second_recovery"] = status["recovery"]
    log(f"node 0 recovered again from snapshot "
        f"{status['recovery']['snapshot_seq']} + "
        f"{status['recovery']['ops_replayed']} replayed ops")
    return report


def run_shard_drill(cluster, *, wave: int = 25, burst: int = 16,
                    rebalance: bool = True, kill_sequencers: bool = False,
                    log: Log = print) -> dict:
    """Drive the partitioned visibility plane through its failure modes.

    The script: one space per shard (root atoms probed so every shard
    owns one), a counter actor per space on node 0, then interleaved
    message waves and per-shard visibility bursts from every node.
    Mid-drill the launcher optionally (a) moves a seat from node 0 to
    node 1 *live* (``rebalance``) and (b) kills the node other than 0
    holding the most seats, waits for per-shard failover, and proves the
    seats return home on respawn (``kill_sequencers``).  The exit
    criteria are absolute: every node's directory replica is identical,
    per-shard resolutions agree everywhere, and message conservation
    closes with zero silent loss — delivered + pending + expired ==
    offered.
    """
    n, shards = cluster.n, cluster.shards
    report: dict[str, Any] = {"drill": "shard", "nodes": n, "shards": shards,
                              "wave": wave, "burst": burst}
    # One root attribute atom per shard, probed against the stable hash.
    smap, atoms, index = ShardMap(shards), {}, 0
    while len(atoms) < shards:
        atoms.setdefault(smap.owner_of(f"sh{index}"), f"sh{index}")
        index += 1
    spaces = {k: cluster.call(0, "create_space", attributes=atoms[k])["address"]
              for k in sorted(atoms)}
    for k in sorted(spaces):
        _await_replies(cluster, "has_space", bool, address=spaces[k],
                       what="shard spaces replicated")
    counters = {k: cluster.call(
        0, "create_actor", behavior="counter",
        visible={"attributes": f"{atoms[k]}/c", "space": spaces[k]},
    )["address"] for k in sorted(atoms)}
    log(f"{shards} spaces up, one per shard "
        f"(root atoms {[atoms[k] for k in sorted(atoms)]})")

    sent: dict[int, int] = {k: 0 for k in spaces}

    def traffic(tag: str, senders=range(n)) -> None:
        """One wave of messages plus a visibility burst on every shard."""
        for index in range(wave):
            for k in sorted(spaces):
                cluster.call(0, "send_to", target=counters[k],
                             payload=(tag, index))
                sent[k] += 1
        for node in senders:
            for k in sorted(spaces):
                cluster.call(node, "vis_burst", target=counters[k],
                             space=spaces[k], count=burst,
                             prefix=f"{tag}-n{node}")

    traffic("pre")
    _replication_barrier(cluster, what="pre-drill convergence")
    seats = cluster.call(0, "status")["shards"]
    report["initial_seats"] = {
        k: info["sequencer"] for k, info in sorted(seats.items())}
    log(f"phase 1 traffic converged; seats {report['initial_seats']}")

    if rebalance:
        # Onto node 1, never off it: moving node 1's only seat away would
        # leave every seat on node 0 (two nodes, two or three shards),
        # and the kill phase may not kill node 0, which holds the counters.
        moved = max(k for k, info in seats.items() if info["sequencer"] == 0)
        # Every node adopts the same assignment (bumping its local map
        # to the same version) — the launcher plays gossip here, exactly
        # as an operator pushing a new map through the control plane.
        versions = [
            cluster.call(node, "rebalance", shard=moved, seat=1)["version"]
            for node in range(n)]
        assert len(set(versions)) == 1, versions
        traffic("post-rebalance")
        _replication_barrier(cluster, what="post-rebalance convergence")
        _await_replies(cluster, "status", lambda s: s["shard_map_version"]
                       == versions[0] and s["shards"][moved]["sequencer"] == 1,
                       what=f"every node on shard {moved}'s new seat")
        report["rebalance"] = {"shard": moved, "from": 0, "to": 1,
                               "map_version": versions[0]}
        log(f"shard {moved} seat moved live: node 0 -> node 1 "
            f"(map v{versions[0]}); traffic kept flowing")

    if kill_sequencers:
        seats = {k: info["sequencer"]
                 for k, info in cluster.call(0, "status")["shards"].items()}
        holders = [node for node in seats.values() if node != 0]
        assert holders, "no non-zero seat holder to kill"
        victim = max(holders, key=lambda node: (holders.count(node), node))
        victim_shards = sorted(k for k, node in seats.items() if node == victim)
        survivors = [node for node in range(n) if node != victim]
        cluster.kill(victim)
        _await_replies(cluster, "status", lambda s: all(
            s["shards"][k]["sequencer"] != victim for k in victim_shards),
            nodes=survivors, what=f"failover of node {victim}'s shard seats")
        interim = {k: cluster.call(0, "status")["shards"][k]["sequencer"]
                   for k in victim_shards}
        log(f"node {victim} killed; shards {victim_shards} failed over "
            f"to {interim}")
        traffic("failover", senders=survivors)
        _replication_barrier(cluster, nodes=survivors,
                             what="convergence under failover")

        cluster.respawn_all([victim])
        cluster.wait_linked(timeout=30.0)
        # The respawned node rejoined with the *spawn-time* shard map;
        # gossip it the current assignment so any rebalanced seat stays
        # where the operator put it.
        manifest = cluster.call(0, "shard_map")["map"]
        cluster.call(victim, "shard_map", manifest=manifest)
        _await_replies(cluster, "status", lambda s: all(
            info["sequencer"] == info["home"]
            for info in s["shards"].values()),
            what="seats returning home after respawn")
        traffic("post-respawn")
        report["kill"] = {"victim": victim, "shards": victim_shards,
                          "interim": interim}
        log(f"node {victim} respawned; every shard seat back home")

    # Conservation: every offered message is delivered (the counters all
    # live on node 0, which never dies) and none arrives twice.
    offered = sum(sent.values())
    delivered = sum(_await_actor(cluster, counters[k], sent[k],
                                 what="message conservation")
                    for k in sorted(counters))
    dlq = cluster.call(0, "dlq")
    assert delivered + dlq["pending"] + dlq["expired"] == offered, \
        (delivered, dict(dlq), offered)
    assert delivered == offered, \
        f"duplicate or lost deliveries: {delivered} != {offered}"
    report["conservation"] = {"offered": offered, "delivered": delivered,
                              "pending": dlq["pending"],
                              "expired": dlq["expired"]}
    log(f"conservation closes: delivered {delivered} + pending "
        f"{dlq['pending']} + expired {dlq['expired']} == offered {offered}")

    # Coherence: identical directory replicas and per-shard resolutions.
    _replication_barrier(cluster, what="final convergence")
    snapshots = {node: cluster.call(node, "directory")["snapshot"]
                 for node in range(n)}
    for node in range(1, n):
        assert snapshots[node] == snapshots[0], \
            f"node {node} directory diverged from node 0"
    for k in sorted(spaces):
        resolutions = {
            node: sorted(cluster.call(node, "resolve", pattern="**",
                                      space=spaces[k]))
            for node in range(n)}
        assert all(r == resolutions[0] for r in resolutions.values()), \
            f"shard {k} resolutions diverged: {resolutions}"
        assert counters[k] in resolutions[0], \
            f"shard {k} counter missing from its space"
    report["final_seats"] = {
        k: info["sequencer"]
        for k, info in sorted(cluster.call(0, "status")["shards"].items())}
    report["coherent"] = True
    log(f"all {n} directory replicas identical; per-shard resolutions "
        f"agree on every node")
    return report


# -- command lines -------------------------------------------------------------


def _two_or_more(text: str) -> int:
    """``--nodes`` / ``--shards``: one node never forms a mesh, and one
    shard has no seat to move."""
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"must be >= 2, got {value}")
    return value


def _parser(name: str, description: str, *,
            trace: bool = False) -> argparse.ArgumentParser:
    """A drill command's parser, holding the flags every drill shares."""
    parser = argparse.ArgumentParser(prog=f"python -m repro {name}",
                                     description=description)
    parser.add_argument("--nodes", type=_two_or_more, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--heartbeat", type=float, default=0.2)
    parser.add_argument("--out", default=None,
                        help="directory for logs, snapshots and the report")
    if trace:
        parser.add_argument("--trace-out", default=None, metavar="PATH",
                            help="export the merged, clock-aligned cluster "
                                 "Chrome trace to PATH")
    parser.add_argument("--verbose", action="store_true")
    return parser


def _run(name: str, args, drive: Callable[[LocalCluster, Log], dict], *,
         report: str | None = None, telemetry: bool = False,
         **cluster_args: Any) -> int:
    """Start a cluster, ``drive`` it, shut it down; write ``<out>/<report>.json``.

    ``telemetry`` scrapes every node while the drill runs — a restarted
    node is a new incarnation to the collector, so the events of every
    process the drill started are kept; the summary joins the report and
    ``--trace-out`` exports and validates the merged trace.
    """
    if not loopback_available():
        print(f"{name}: loopback sockets unavailable on this platform; "
              f"skipping", file=sys.stderr)
        return 0

    def log(text: str) -> None:
        print(f"[{name}] {text}", flush=True)

    cluster = LocalCluster(args.nodes, seed=args.seed,
                           heartbeat=args.heartbeat, out_dir=args.out,
                           verbose=args.verbose, log=log, **cluster_args)
    collector: TelemetryCollector | None = None
    try:
        cluster.start()
        if telemetry:
            collector = TelemetryCollector.for_cluster(cluster).start()
        result = drive(cluster, log)
        if collector is not None:
            collector.drain()
            result["telemetry"] = collector.summary()
            for node, counters in result["telemetry"].items():
                log(f"node {node} wire: " + " ".join(
                    f"{key}={counters[key]}"
                    for key in (*WIRE_KEYS, "heartbeats_suppressed")))
            if args.trace_out is not None:
                trace = collector.export_chrome(args.trace_out)
                problems = validate_chrome_trace(trace)
                if problems:
                    log(f"merged trace INVALID: {problems[:5]}")
                    return 1
                phases = [r["ph"] for r in trace["traceEvents"]]
                log(f"merged trace: {phases.count('i')} events, "
                    f"{phases.count('f')} flow bindings -> {args.trace_out}")
        if args.out is not None:
            cluster.collect()
    finally:
        if collector is not None:
            collector.close()
        cluster.shutdown()
    if args.out is not None:
        path = Path(args.out) / f"{report or name}.json"
        path.write_text(json.dumps(_jsonable(result), indent=2))
        log(f"report written to {path}")
    log(f"{name}: OK")
    return 0


def cluster_main(argv: list[str]) -> int:
    """``python -m repro cluster`` — spawn N nodes, drive an example."""
    parser = _parser("cluster", "Spawn N localhost node processes and run a "
                     "shipped example across them over real TCP sockets.",
                     trace=True)
    drivers = {"process_pool": drive_process_pool,
               "replicated": drive_replicated}
    parser.add_argument("example", choices=sorted(drivers),
                        help="which example to drive")
    fault = parser.add_mutually_exclusive_group()
    fault.add_argument("--stall", type=int, metavar="NODE",
                       help="mid-run SIGSTOP/SIGCONT drill on NODE")
    fault.add_argument("--kill", type=int, metavar="NODE",
                       help="mid-run SIGKILL + respawn drill on NODE")
    args = parser.parse_args(argv)
    mode = "stall" if args.stall is not None else "kill"
    node = args.stall if args.stall is not None else args.kill
    if node is not None and not 0 <= node < args.nodes:
        parser.error(f"drill node {node} out of range")
    drill = None if node is None else (mode, node)
    return _run("cluster", args, lambda cluster, log: drivers[args.example](
        cluster, drill=drill, log=log), report="report", telemetry=True)


def durability_main(argv: list[str]) -> int:
    """``python -m repro durability`` — total-crash recovery drill."""
    args = _parser("durability", "SIGKILL a whole TCP cluster mid-traffic "
                   "and prove it recovers from its data directories with "
                   "zero loss.", trace=True).parse_args(argv)
    data_dir = (Path(args.out) / "data" if args.out is not None
                else Path(tempfile.mkdtemp(prefix="repro-durability-")))
    return _run("durability", args, lambda cluster, log: run_durability_drill(
        cluster, data_dir, log=log), telemetry=True, data_dir=data_dir,
        # Periodic snapshots stay out of the way so the drill's offline
        # oracle sees the full from-genesis log; snapshotting itself is
        # exercised by the recovery-time and orderly-shutdown snapshots.
        node_args=["--snapshot-interval", "600"])


def shard_main(argv: list[str]) -> int:
    """``python -m repro shard`` — partitioned visibility-plane drill."""
    parser = _parser("shard", "Drive a sharded TCP cluster: per-shard "
                     "sequencing load, an optional live seat rebalance and "
                     "per-shard sequencer-kill failover, holding directory "
                     "coherence and zero silent message loss throughout.")
    parser.add_argument("--shards", type=_two_or_more, default=4)
    parser.add_argument("--rebalance", action="store_true",
                        help="move one shard's sequencer seat live mid-drill")
    parser.add_argument("--kill-sequencers", action="store_true",
                        help="SIGKILL a seat-holding node; verify per-shard "
                             "failover and the seats returning home")
    args = parser.parse_args(argv)
    return _run("shard", args, lambda cluster, log: run_shard_drill(
        cluster, rebalance=args.rebalance,
        kill_sequencers=args.kill_sequencers, log=log), shards=args.shards)
