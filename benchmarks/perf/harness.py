"""What every workload shares: drivers, slice statistics, process accounting.

A *driver* hides whether the system under test is the in-process
simulator or a cluster of node processes, so a workload that exists on
both (``rpc-sim``/``rpc-tcp``) is one piece of code and provably the
same actors and traffic.  Drivers only call public API — the system
facade in the simulator, the control plane over TCP — and both build
actors through the same name→factory registry.
"""

from __future__ import annotations

import functools
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from repro.net.cluster import LocalCluster
from repro.net.registry import build_behavior, register_behavior
from repro.runtime.network import Topology
from repro.runtime.system import ActorSpaceSystem

import layers
import spans
from behaviors import (
    PumpBehavior,
    SinkBehavior,
    SpanControlBehavior,
    VisChurnBehavior,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
#: Scratch space for node data dirs and logs; removed after every run.
RUN_ROOT = HERE / ".run"

#: Timed slices per phase.  Every end-to-end number is that of the *best*
#: slice (see ``Result.fastest``); the median and the spread of all seven
#: travel with it in the report.
SLICES = 7
#: The traced pass repeats a workload at this fraction of its length.
TRACED_FRACTION = 0.25
#: Untraced slices the traced pass times first, for the overhead ratio.
BASELINE_SLICES = 2

LOAD_ATTRS = ["runs", "started_at", "finished_at", "p50_ms", "sent",
              "completed", "bad_acks", "unacked"]

_CLK_TCK = os.sysconf("SC_CLK_TCK")


class CheckFailed(Exception):
    """A correctness check failed in a way that cannot be scored."""


def register_behaviors(recorder: spans.Recorder) -> None:
    """Name the benchmark's actors in the cluster behaviour registry."""
    register_behavior("perf_sink", lambda params: SinkBehavior())
    register_behavior("perf_pump", lambda params: PumpBehavior(
        params["destinations"], mode=params.get("mode", "send"),
        fanout=int(params.get("fanout", 1))))
    register_behavior("perf_vis_churn", lambda params: VisChurnBehavior(
        params["space"], params["prefix"]))
    register_behavior("perf_span_control",
                      lambda params: SpanControlBehavior(recorder))


def install_spans(recorder: spans.Recorder) -> None:
    """Wrap every layer in *this* process (recording stays off)."""
    spans.install(recorder)
    spans.wrap_receive(recorder, PumpBehavior, SinkBehavior, VisChurnBehavior)


def scaled(count: int, scale: float) -> int:
    """A slice's op count at ``scale`` (never below one)."""
    return max(1, int(round(count * scale)))


# -- process accounting -------------------------------------------------------------

def _schedstat_seconds(pid: int) -> float | None:
    """On-CPU seconds of all of ``pid``'s threads, to the nanosecond.

    ``/proc/<pid>/stat`` counts in 10 ms clock ticks — a 0.25 s slice
    would read as one of a handful of values, and the best of many such
    slices as the *same* value run after run.  The scheduler's own
    accounting has no such grid.  None where the kernel keeps no
    schedstats (the field then reads 0 for a process that has run).
    """
    total_ns = 0
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/schedstat",
                      encoding="ascii") as fh:
                total_ns += int(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return None
    return total_ns / 1e9 if total_ns else None


def cpu_seconds(pids: list[int]) -> float:
    """CPU seconds (user + system) consumed so far by ``pids``."""
    total = 0.0
    for pid in pids:
        if pid == os.getpid():
            total += time.process_time()  # finer than /proc's clock ticks
            continue
        fine = _schedstat_seconds(pid)
        if fine is not None:
            total += fine
            continue
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / _CLK_TCK  # utime, stime
    return total


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of the processes' resident-set high-water marks."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0


# -- the simulator driver -----------------------------------------------------------

class SimDriver:
    """An :class:`ActorSpaceSystem` driven through its facade."""

    def __init__(self, nodes: int, seed: int, recorder: spans.Recorder,
                 **system_kwargs: Any):
        self.system = ActorSpaceSystem(topology=Topology.lan(nodes), seed=seed,
                                       trace=False, **system_kwargs)
        self.recorder = recorder
        self.nodes = nodes
        self.pids = [os.getpid()]

    def create_space(self, attributes: str, node: int = 0):
        address = self.system.create_space(attributes=attributes, node=node)
        self.system.run()
        return address

    def create_actor(self, behavior: str, params: dict, node: int,
                     visible: dict | None = None):
        address = self.system.create_actor(
            build_behavior(behavior, params), node=node)
        if visible is not None:
            self.system.make_visible(address, visible["attributes"],
                                     visible.get("space"), node=node)
        return address

    def settle(self) -> None:
        self.system.run()

    def go(self, loaders: list, payload: tuple) -> list[dict]:
        """Start ``loaders`` and run until all have finished."""
        for address in loaders:
            self.system.send_to(address, payload, node=address.node)
        self.system.run()
        return [self.state(address, LOAD_ATTRS) for address in loaders]

    def state(self, address, attrs: list[str]) -> dict:
        behavior = self.system.actor_record(address).behavior
        return {name: getattr(behavior, name) for name in attrs}

    def failure_counts(self) -> dict[str, int]:
        shed = sum(record.mailbox.shed_count
                   for coordinator in self.system.coordinators
                   for record in coordinator.actors.values())
        admission = self.system.admission
        rejected = 0 if admission is None else sum(
            v for k, v in admission.metrics().items() if "rejected" in k)
        return {"dead_letters": self.system.dead_letters.queued_total,
                "shed": shed, "rejected": rejected}

    def resolution_counts(self) -> tuple[int, int]:
        stats = self.system.resolution_cache_stats()
        return stats["hits"], stats["misses"]

    def coherent(self) -> bool:
        return self.system.replicas_coherent()

    # span control
    def trace(self, on: bool) -> None:
        self.recorder.enabled = on

    def trace_reset(self) -> None:
        self.recorder.reset()

    def trace_report(self) -> dict:
        return self.recorder.summary()

    def trace_dump(self, directory: Path) -> None:
        self.recorder.dump(str(directory / "spans-sim.jsonl"))

    def close(self) -> None:
        self.recorder.enabled = False


# -- the TCP driver -----------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def split_cpus() -> tuple[frozenset[int], frozenset[int]]:
    """(CPUs for the harness, the one CPU all node processes share).

    Two node processes left to the scheduler are a ping-pong pair whose
    round trip depends on whether they happen to share a core: window-1
    latency came out anywhere from 0.45 to 0.70 ms between runs of the
    same code.  Pinned to one core — away from the harness and its
    polling — it held within 2 %.  So a TCP workload measures what the
    code costs on one core, not what the host's scheduler did that day.

    Decided once per process, from the affinity it started with: a pass
    builds several clusters in turn, and each pins the harness — asked
    again after the first, this process would own a single CPU and the
    nodes would be put on it, beside the harness and its polling (which
    is what happened until the driver's first check: the measured
    cluster of ``vis-durable-tcp`` ran a third slower and twice as
    unsteadily as the first one built).
    """
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) < 2:
        return frozenset(allowed), frozenset(allowed)
    return frozenset(allowed[:-1]), frozenset(allowed[-1:])


class PerfCluster(LocalCluster):
    """A :class:`LocalCluster` whose nodes start through ``node_main.py``.

    The entry script registers the benchmark's behaviours (and, with
    ``perf_trace``, installs the span wrappers) and then hands over to
    the stock ``serve_main`` with the stock argument list.  Node
    processes are pinned to one CPU, the harness to the others (see
    :func:`split_cpus`); while the cluster is up an idle-priority
    spinner keeps the nodes' CPU awake (see ``keep_awake.py``).
    """

    def __init__(self, nodes: int, *, perf_trace: bool = False,
                 log_dir: Path, **kwargs: Any):
        super().__init__(nodes, **kwargs)
        self.perf_trace = perf_trace
        self.log_dir = log_dir
        harness_cpus, self.node_cpus = split_cpus()
        os.sched_setaffinity(0, harness_cpus)
        self._keeper: subprocess.Popen | None = None

    def start(self, timeout: float = 20.0) -> "PerfCluster":
        self._keeper = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "keep_awake.py"),
             str(os.getpid()), ",".join(map(str, sorted(self.node_cpus)))])
        return super().start(timeout)

    def shutdown(self, timeout: float = 5.0) -> None:
        try:
            super().shutdown(timeout)
        finally:
            if self._keeper is not None:
                self._keeper.kill()
                self._keeper.wait()
                self._keeper = None

    def _spawn(self, node: int) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep \
            + env.get("PYTHONPATH", "")
        cmd = [sys.executable, str(HERE / "node_main.py")]
        if self.perf_trace:
            cmd.append("--perf-trace")
        cmd += [
            "--node", str(node),
            "--ports", ",".join(str(p) for p in self.ports),
            "--host", self.host,
            "--cluster-id", self.cluster_id,
            "--seed", str(self.seed),
            "--heartbeat", str(self.heartbeat),
            "--no-trace",
        ]
        if self.shards > 1:
            cmd += ["--shards", str(self.shards)]
        cmd += self.node_args
        if self.data_dir is not None:
            cmd += ["--data-dir", str(self.data_dir / f"node{node}")]
        logfile = open(self.log_dir / f"node{node}.log", "ab")
        self._logfiles.append(logfile)
        self.procs[node] = subprocess.Popen(
            cmd, env=env, stdout=logfile, stderr=logfile)
        os.sched_setaffinity(self.procs[node].pid, self.node_cpus)


class TcpDriver:
    """A :class:`PerfCluster` driven through the control plane."""

    def __init__(self, nodes: int, seed: int, run_dir: Path, traced: bool,
                 **cluster_kwargs: Any):
        self.nodes = nodes
        self.traced = traced
        run_dir.mkdir(parents=True, exist_ok=True)
        self.cluster = PerfCluster(nodes, seed=seed, trace=False,
                                   perf_trace=traced, log_dir=run_dir,
                                   **cluster_kwargs)
        try:
            self.cluster.start()
            self._controls = [
                self.cluster.call(node, "create_actor",
                                  behavior="perf_span_control")["address"]
                for node in range(nodes)] if traced else []
        except BaseException:
            self.cluster.shutdown()
            raise
        #: Visibility ops this driver has caused; ``settle`` waits for
        #: every replica to have applied exactly this many.
        self.expected_ops = 0
        self._token = 0

    @property
    def pids(self) -> list[int]:
        return [proc.pid for proc in self.cluster.procs.values()]

    def create_space(self, attributes: str, node: int = 0):
        self.expected_ops += 2  # ADD_SPACE + its MAKE_VISIBLE in the root
        return self.cluster.call(node, "create_space",
                                 attributes=attributes)["address"]

    def create_actor(self, behavior: str, params: dict, node: int,
                     visible: dict | None = None):
        if visible is not None:
            self.expected_ops += 1
        return self.cluster.call(node, "create_actor", behavior=behavior,
                                 params=params, visible=visible)["address"]

    def applied(self) -> list[int]:
        return [self.cluster.call(node, "status")["applied_seq"]
                for node in range(self.nodes)]

    def settle(self) -> None:
        self.cluster.wait_until(
            lambda: all(n == self.expected_ops for n in self.applied()),
            timeout=30.0, interval=0.01,
            what=f"{self.expected_ops} visibility ops applied everywhere")

    def go(self, loaders: list, payload: tuple) -> list[dict]:
        before = [self.state(a, ["runs"])["runs"] for a in loaders]
        for address in loaders:
            self.cluster.call(address.node, "send_to", target=address,
                              payload=payload)
        states: list[dict] = []
        for address, runs in zip(loaders, before):
            self.cluster.wait_until(
                lambda: self.state(address, ["runs"])["runs"] > runs,
                timeout=150.0, interval=0.02, what=f"load on {address!r}")
            states.append(self.state(address, LOAD_ATTRS))
        return states

    def state(self, address, attrs: list[str]) -> dict:
        return self.cluster.call(address.node, "actor_state",
                                 address=address, attrs=attrs)

    def failure_counts(self) -> dict[str, int]:
        totals = {"dead_letters": 0, "shed": 0, "rejected": 0}
        for node in range(self.nodes):
            status = self.cluster.call(node, "status")
            totals["dead_letters"] += self.cluster.call(node, "dlq")["queued"]
            totals["shed"] += status["mailbox_shed"] + status["frames_shed"]
            admission = status["admission"] or {}
            totals["rejected"] += sum(
                v for k, v in admission.items() if "rejected" in k)
        return totals

    def resolution_counts(self) -> tuple[int, int]:
        hits = misses = 0
        for node in range(self.nodes):
            metrics = self.cluster.call(node, "snapshot", events=False)["metrics"]
            hits += metrics["resolution_cache_hits_total"]
            misses += metrics["resolution_cache_misses_total"]
        return hits, misses

    def coherent(self) -> bool:
        first = self.cluster.call(0, "directory")["snapshot"]
        return all(self.cluster.call(node, "directory")["snapshot"] == first
                   for node in range(1, self.nodes))

    def hub_snapshots(self) -> list[dict]:
        return [self.cluster.call(node, "snapshot", events=False)["hub"]
                for node in range(self.nodes)]

    # span control
    def _tell_controls(self, payload: tuple) -> None:
        for address in self._controls:
            self.cluster.call(address.node, "send_to", target=address,
                              payload=payload)

    def trace(self, on: bool) -> None:
        self._tell_controls(("trace", on))
        self._await_controls()

    def trace_reset(self) -> None:
        self._tell_controls(("reset",))
        self._await_controls()

    def _await_controls(self) -> list[dict]:
        """Publish-and-fetch: also the barrier behind trace/reset."""
        self._token += 1
        self._tell_controls(("report", self._token))
        out = []
        for address in self._controls:
            self.cluster.wait_until(
                lambda: self.state(address, ["token"])["token"] == self._token,
                timeout=30.0, interval=0.01, what="span control")
            out.append(self.state(address, ["summary"])["summary"])
        return out

    def trace_report(self) -> dict:
        return spans.merge_summaries(self._await_controls())

    def trace_dump(self, directory: Path) -> None:
        for address in self._controls:
            path = directory / f"spans-node{address.node}.jsonl"
            self.cluster.call(address.node, "send_to", target=address,
                              payload=("dump", str(path)))
        self._await_controls()

    def close(self) -> None:
        self.cluster.shutdown()


# -- shared measurement steps -------------------------------------------------------

def new_run_dir(tag: str) -> Path:
    path = RUN_ROOT / f"{os.getpid()}-{tag}"
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def remove_run_root() -> None:
    """Delete this process's scratch directories (and the root if empty)."""
    for path in RUN_ROOT.glob(f"{os.getpid()}-*"):
        shutil.rmtree(path, ignore_errors=True)
    try:
        RUN_ROOT.rmdir()
    except OSError:
        pass


def slice_seconds(states: list[dict]) -> float:
    """First start to last finish of the generators' common slice."""
    return max(s["finished_at"] for s in states) \
        - min(s["started_at"] for s in states)


def load_failures(states: list[dict]) -> int:
    """Operations a generator could not account for."""
    return sum(s["bad_acks"] + s["unacked"] + (s["sent"] - s["completed"])
               for s in states)


class Timed:
    """CPU and wall time of the system-under-test processes, block by block."""

    def __init__(self, pids: list[int]):
        self.pids = pids
        #: CPU seconds of each ``with`` block, in order.
        self.cpu_blocks: list[float] = []
        self.wall_s = 0.0

    def __enter__(self):
        self._cpu0 = cpu_seconds(self.pids)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall_s += time.perf_counter() - self._t0
        self.cpu_blocks.append(cpu_seconds(self.pids) - self._cpu0)
        return False


def start_tracing(driver) -> None:
    driver.trace(True)
    driver.trace_reset()


def traced_table(driver, spans_dir: Path | None, ops: int, wall_s: float,
                 remote_bus: bool = False) -> dict[str, float]:
    """Stop tracing and build the per-layer table every workload shares."""
    summary = driver.trace_report()
    driver.trace(False)
    if spans_dir is not None:
        driver.trace_dump(spans_dir)
    table = layers.layer_table(summary, ops, wall_s * len(driver.pids),
                               remote_bus)
    failures = driver.failure_counts()
    table["core.mailbox.shed"] = failures["shed"]
    table["runtime.failure.dead_letters"] = failures["dead_letters"]
    table["runtime.admission.rejected"] = failures["rejected"]
    return table


# -- results ------------------------------------------------------------------------

class Result:
    """One pass of one workload: metrics, checks and the failure count."""

    def __init__(self, workload: str, seed: int, scale: float, traced: bool,
                 slices: int = SLICES):
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.traced = traced
        #: Timed slices per phase in this pass.
        self.slices = slices
        #: name -> {"value", "samples", "slices"}; units come from
        #: BENCHMARK.json when the result is rendered.
        self.metrics: dict[str, dict] = {}
        self.checks: dict[str, bool] = {}
        self.notes: dict[str, Any] = {}
        self.attempted = 0
        self.failed = 0

    def metric(self, name: str, value: float, samples: int = 1,
               slices: list[float] | None = None) -> None:
        self.metrics[name] = {"value": value, "samples": samples,
                              "slices": list(slices) if slices else []}

    def fastest(self, name: str, ops_per_slice: float,
                slice_s: list[float]) -> None:
        """A rate metric: operations per second in the fastest slice.

        On a shared host interference only ever slows a slice down —
        a pure spin loop measured anywhere from 0.125 to 0.178 s within
        one minute here — so the median over slices follows the
        neighbours' load while the fastest slice follows the code: over
        ten runs of ``rpc-sim`` the medians spread 9.4 % (IQR/median),
        the fastest slices 2.6 %.
        """
        rates = [ops_per_slice / s for s in slice_s]
        self.metric(name, max(rates), samples=len(rates), slices=rates)

    def quickest(self, name: str, per_slice: list[float],
                 samples: int) -> None:
        """A latency or cost metric: the lowest of the per-slice values."""
        self.metric(name, min(per_slice), samples=samples, slices=per_slice)

    def table(self, rows: dict[str, float]) -> None:
        for name, value in rows.items():
            self.metric(name, value)

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = bool(ok) and self.checks.get(name, True)

    def offered(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.checks.values())
