"""End-to-end tests: real node subprocesses over loopback TCP.

Slowest tests in the tree (each spawns OS processes), so they stay
small: a 2-node pool run proving cross-process routing computes the
right answer, one conformance seed proving the TCP cluster's replicated
directory matches the single-process oracle, and one open-loop flood
point proving overload loses nothing silently over real sockets (the
simulator sweep is experiment E18).  The drills run at their smallest
size in ``test_drills.py``, at full size in CI.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.net.cluster import LocalCluster, loopback_available
from repro.net.drills import drive_process_pool, run_tcp_conformance

pytestmark = pytest.mark.skipif(
    not loopback_available(), reason="loopback TCP unavailable")


def test_process_pool_computes_across_two_processes(tmp_path):
    cluster = LocalCluster(2, seed=3, out_dir=tmp_path)
    try:
        cluster.start()
        report = drive_process_pool(
            cluster, job_size=512, grain=64, workers_per_node=1,
            cost_per_item=0.0, drill=None, log=lambda text: None)
        assert report["first_run"]["correct"]
        assert report["workers"] == 2
        # The work genuinely crossed processes: every node hosts actors.
        for node in range(2):
            status = cluster.call(node, "status")
            assert status["actors"] >= 1
            assert status["links"] == [1 - node]
    finally:
        cluster.shutdown()


def test_tcp_cluster_matches_single_process_oracle(tmp_path):
    """The scenario vocabulary, with commands issued at both nodes."""
    lines = []
    report = run_tcp_conformance(
        [0], nodes=2, out_dir=tmp_path, log=lines.append)
    assert report["divergences"] == []
    assert "issued at nodes [0, 1]" in lines[0]


def test_closed_loop_pump_completes_and_batches(tmp_path):
    """The load generator's closed loop drains across two real processes
    and the hot path actually coalesces frames while doing it."""
    cluster = LocalCluster(2, seed=0, out_dir=tmp_path, trace=False)
    try:
        cluster.start()
        sink = cluster.call(
            1, "create_actor", behavior="load_sink", params={})["address"]
        pump = cluster.call(
            0, "create_actor", behavior="load_pump",
            params={"target": sink, "total": 300, "window": 32})["address"]
        cluster.call(0, "send_to", target=pump, payload=("go",))
        cluster.wait_until(
            lambda: cluster.call(0, "actor_state", address=pump,
                                 attrs=["done"])["done"],
            timeout=60, interval=0.05, what="closed loop drained")
        stats = cluster.call(0, "actor_state", address=pump,
                             attrs=["sent", "received", "throughput",
                                    "p50_ms", "p99_ms"])
        assert stats["sent"] == stats["received"] == 300
        assert stats["throughput"] > 0
        assert 0 < stats["p50_ms"] <= stats["p99_ms"]
        hub = cluster.call(0, "snapshot", events=False)["hub"]
        # Windowed load must have coalesced at least some writes, and
        # nothing was shed: the queue never hit its memory bound.
        assert hub["batches_out"] >= 1
        assert hub["frames_shed"] == 0
        assert hub["writes"] < hub["frames_out"]
    finally:
        cluster.shutdown()


def test_an_open_loop_flood_loses_nothing_silently():
    """Twice a busy sink's capacity, offered open loop from another
    process: full mailboxes shed, the breaker refuses, the dead-letter
    queues re-level or expire what they hold — and once every queue has
    drained, each offered envelope was delivered or visibly expired."""
    nodes, capacity, busy_ms = 3, 64, 2.0
    total = 500  # half a second at 2x a sink that serves 1000/busy_ms
    cluster = LocalCluster(
        nodes, seed=0, trace=False,
        node_args=["--mailbox-capacity", str(capacity),
                   "--mailbox-policy", "drop-oldest",
                   "--breaker-threshold", str(capacity)])
    try:
        cluster.start()
        sink = cluster.call(1, "create_actor", behavior="overload_sink",
                            params={"busy_ms": busy_ms})["address"]
        pump = cluster.call(
            0, "create_actor", behavior="overload_pump",
            params={"target": sink, "total": total, "burst": 10,
                    "tick": 0.01})["address"]
        cluster.call(0, "send_to", target=pump, payload=("go",))

        def books():
            delivered = cluster.call(1, "actor_state", address=sink,
                                     attrs=["count"])["count"]
            expired = sum(cluster.call(n, "dlq")["expired"]
                          for n in range(nodes))
            pending = [cluster.call(n, "status")["dlq_pending"]
                       for n in range(nodes)]
            return delivered, expired, pending

        def closed():
            delivered, expired, pending = books()
            return not any(pending) and delivered + expired >= total

        cluster.wait_until(closed, timeout=60, interval=0.1,
                           what="overload accounting closed")
        delivered, expired, pending = books()
        assert delivered + expired == total
        assert pending == [0] * nodes
        assert cluster.call(0, "actor_state", address=pump,
                            attrs=["sent"])["sent"] == total
    finally:
        cluster.shutdown()


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the mmap threshold is glibc's")
def test_a_node_reads_its_sockets_without_mapping_a_buffer_per_read():
    """asyncio reads each readable event into a fresh 256 KiB ``bytes``;
    past glibc's initial mmap threshold that is a mapping and a page
    fault per read, until ``raise_mmap_threshold`` (which ``serve_main``
    calls) has raised the threshold.  A fresh interpreter, reading before
    and after the call."""
    probe = (
        "import resource, socket\n"
        "a, b = socket.socketpair()\n"
        "def faults():\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    for _ in range(2000):\n"
        "        a.send(b'x' * 100)\n"
        "        b.recv(256 * 1024)\n"
        "    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before\n"
        "default = faults()\n"
        "from repro.net.cluster import raise_mmap_threshold\n"
        "raise_mmap_threshold()\n"
        "print(default, faults())\n")
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    default, raised = map(int, subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True,
        text=True, check=True).stdout.split())
    if default < 2000:
        pytest.skip(f"this process maps no read buffer ({default} faults)")
    assert raised < 100, (default, raised)
