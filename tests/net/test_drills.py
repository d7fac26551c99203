"""Tests: each drill once, at its smallest size, on real node processes.

The drills are scenarios over ``call`` and the fault verbs; CI runs them
at full size through ``python -m repro``.  A fast heartbeat keeps the
confirm-down waits short.
"""

import time

import pytest

from repro.__main__ import main
from repro.net.cluster import LocalCluster, loopback_available
from repro.net.drills import (
    drive_process_pool,
    drive_replicated,
    run_durability_drill,
    run_shard_drill,
)

needs_loopback = pytest.mark.skipif(
    not loopback_available(), reason="loopback TCP unavailable")


def quiet(text: str) -> None:
    pass


@pytest.fixture
def started():
    """``started(nodes, **kwargs)``: a started ``LocalCluster`` with a
    0.05 s heartbeat, shut down after the test."""
    clusters = []

    def start(nodes: int, **kwargs) -> LocalCluster:
        cluster = LocalCluster(nodes, heartbeat=0.05, **kwargs)
        clusters.append(cluster)
        return cluster.start()

    yield start
    for cluster in clusters:
        cluster.shutdown()


@needs_loopback
def test_replicated_service_survives_a_stall(started):
    report = drive_replicated(started(2), requests=2, drill=("stall", 1),
                              log=quiet)
    assert report["per_replica"] == [2, 2]
    drill = report["drill"]
    assert drill["dlq_captured"] >= 5 and drill["dlq_redelivered"] >= 5
    assert drill["probe_count"] >= 5


@needs_loopback
def test_process_pool_recomputes_after_a_kill(started):
    report = drive_process_pool(started(2), job_size=256, workers_per_node=1,
                                drill=("kill", 1), log=quiet)
    assert report["first_run"]["correct"]
    assert report["drill"]["respawn_reachable"]
    assert report["post_drill_run"]["correct"]


@needs_loopback
def test_durability_drill_recovers_from_disk(started, tmp_path):
    cluster = started(2, data_dir=tmp_path,
                      node_args=["--snapshot-interval", "600"])
    report = run_durability_drill(cluster, tmp_path, wave=3, probes=2,
                                  log=quiet)
    assert report["recovered_dlq"]["recovered"] == 2
    assert report["final_dlq"]["pending"] == 0
    assert report["second_recovery"]["snapshot_seq"] >= 0


@needs_loopback
def test_shard_drill_on_two_nodes_rebalances_and_kills(started):
    """With two nodes and two shards the rebalance used to move node 1's
    only seat to node 0, leaving the kill phase no seat holder it may
    kill (node 0 holds the counters)."""
    report = run_shard_drill(started(2, shards=2), wave=3, burst=2,
                             rebalance=True, kill_sequencers=True, log=quiet)
    assert report["rebalance"]["to"] == 1
    assert report["kill"]["victim"] == 1
    assert report["conservation"]["delivered"] \
        == report["conservation"]["offered"]
    assert report["coherent"]


@pytest.mark.parametrize("command", [["cluster", "replicated"],
                                     ["durability"], ["shard"]])
def test_one_node_is_refused_before_anything_spawns(command, monkeypatch):
    def spawn(self, node):
        raise AssertionError("a node process was spawned")

    monkeypatch.setattr(LocalCluster, "_spawn", spawn)
    t0 = time.monotonic()
    with pytest.raises(SystemExit) as exit_info:
        main([*command, "--nodes", "1"])
    assert exit_info.value.code == 2
    assert time.monotonic() - t0 < 1.0
