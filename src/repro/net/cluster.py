"""Launcher for multi-process clusters: node process, control, telemetry.

``python -m repro serve`` runs ONE node (a :class:`~repro.net.runtime.
NodeRuntime`) in the current process (:func:`serve_main`).
:class:`LocalCluster` spawns N of those on localhost and holds a
:class:`ControlClient` to each: ``call(node, verb, **args)`` plus the
fault verbs (SIGSTOP/SIGCONT stall and resume, SIGKILL, respawn) that
the scenarios in :mod:`repro.net.drills` are written against.
:class:`TelemetryCollector` scrapes every node onto one clock-aligned
timeline.

The control plane is deliberately launcher-shaped: behaviors are named
registry entries (:mod:`repro.net.registry`), addresses and patterns
travel in wire form, and every verification reads actor state back over
the sockets — nothing in a driver peeks into the node processes.
"""

from __future__ import annotations

import itertools
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Callable

from repro.runtime.eventlog import TraceEvent, export_chrome_trace
from repro.shard.map import ShardMap

from .clocksync import ClockSync
from .codec import (
    FrameDecoder,
    FrameKind,
    encode_frame,
    hello_payload,
)

#: "node" ids presented by control connections; never a cluster member.
CONTROL_NODE = 1_000_000


class ControlError(RuntimeError):
    """A control call failed (transport trouble or a node-side error)."""


def _free_ports(count: int, host: str = "127.0.0.1") -> list[int]:
    """Reserve ``count`` currently-free TCP ports (bind-probe then release)."""
    socks, ports = [], []
    try:
        for _ in range(count):
            s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            s.bind((host, 0))
            socks.append(s)
            ports.append(s.getsockname()[1])
    finally:
        for s in socks:
            s.close()
    return ports


def loopback_available(host: str = "127.0.0.1") -> bool:
    """Can this platform bind a loopback TCP socket?  (Skip gate.)"""
    try:
        s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            s.bind((host, 0))
        finally:
            s.close()
        return True
    except OSError:
        return False


def _jsonable(value: Any) -> Any:
    """Recursively convert wire values (addresses, paths, sets) for JSON."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, dict):
        return {str(_jsonable(k)): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(str(_jsonable(v)) for v in value)
    return repr(value)


class ControlClient:
    """Blocking control connection to one node process.

    Speaks the same framed protocol as the nodes, with role ``control``:
    the node answers commands but never registers the link as a peer, so
    no heartbeat/bus traffic arrives here — only matched replies.
    """

    def __init__(self, host: str, port: int, *, cluster_id: str = "actorspace",
                 timeout: float = 10.0):
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.settimeout(timeout)
        self._decoder = FrameDecoder()
        self._frames: deque = deque()
        self._ids = itertools.count(1)
        self._send(FrameKind.HELLO,
                   hello_payload(CONTROL_NODE, "control", cluster_id))
        kind, payload = self._recv()
        if kind == FrameKind.REJECT:
            raise ControlError(f"handshake rejected: {payload!r}")
        if kind != FrameKind.WELCOME:
            raise ControlError(f"expected WELCOME, got {kind!r}")

    def _send(self, kind: FrameKind, payload: Any) -> None:
        try:
            self.sock.sendall(encode_frame(kind, payload))
        except OSError as exc:
            raise ControlError(f"control send failed: {exc}") from exc

    def _recv(self) -> tuple[FrameKind, Any]:
        while not self._frames:
            try:
                data = self.sock.recv(65536)
            except OSError as exc:
                raise ControlError(f"control recv failed: {exc}") from exc
            if not data:
                raise ControlError("control connection closed by node")
            self._frames.extend(self._decoder.feed(data))
        return self._frames.popleft()

    def call(self, cmd: str, **args: Any) -> Any:
        """Invoke ``cmd`` on the node; raise :class:`ControlError` on failure."""
        request_id = next(self._ids)
        self._send(FrameKind.CONTROL,
                   {"id": request_id, "cmd": cmd, "args": args})
        while True:
            kind, payload = self._recv()
            if kind != FrameKind.REPLY or not isinstance(payload, dict):
                continue  # stray frame (e.g. BYE racing a shutdown)
            if payload.get("id") != request_id:
                continue
            if not payload.get("ok"):
                raise ControlError(str(payload.get("error")))
            return payload.get("value")

    def close(self) -> None:
        try:
            self.sock.sendall(encode_frame(FrameKind.BYE, None))
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


class LocalCluster:
    """N localhost node processes plus their control connections."""

    def __init__(self, nodes: int, *, seed: int = 0, heartbeat: float = 0.2,
                 host: str = "127.0.0.1", cluster_id: str | None = None,
                 out_dir: str | Path | None = None, verbose: bool = False,
                 trace: bool = True,
                 node_args: list[str] | None = None,
                 data_dir: str | Path | None = None,
                 shards: int = 1,
                 log: Callable[[str], None] | None = None):
        self.n = nodes
        self.seed = seed
        self.heartbeat = heartbeat
        #: Visibility-plane shard count: the directory is partitioned
        #: across this many per-shard sequencers (each node gets
        #: ``--shards`` on its command line).
        self.shards = shards
        #: Flight-recorder event logs in the node processes.  On by
        #: default for observability; benchmarks turn it off — emitting
        #: several trace records per message is measurable at load.
        self.trace = trace
        self.host = host
        self.cluster_id = cluster_id or f"actorspace-{os.getpid()}"
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.verbose = verbose
        #: Extra ``repro serve`` CLI flags appended verbatim to every
        #: node's command line (overload knobs, detector tuning, ...).
        self.node_args = list(node_args) if node_args else []
        #: When set, every node gets ``<data_dir>/node<N>`` as its durable
        #: data directory — killed nodes then recover from disk on respawn.
        self.data_dir = Path(data_dir) if data_dir is not None else None
        self._log = log or (lambda text: None)
        self.ports: list[int] = []
        self.procs: dict[int, subprocess.Popen] = {}
        self.controls: dict[int, ControlClient] = {}
        self._logfiles: list[Any] = []

    # -- lifecycle ---------------------------------------------------------------

    def start(self, timeout: float = 20.0) -> "LocalCluster":
        if self.out_dir is not None:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        self.ports = _free_ports(self.n, self.host)
        if self.out_dir is not None:
            # The manifest lets out-of-process tools (`repro top`,
            # `repro trace --cluster`) find the control ports.
            manifest: dict[str, Any] = {
                "nodes": self.n,
                "host": self.host,
                "ports": self.ports,
                "cluster_id": self.cluster_id,
                "launcher_pid": os.getpid(),
                "shards": self.shards,
                "shard_map": ShardMap(
                    self.shards, list(range(self.n))).to_manifest(),
            }
            (self.out_dir / "cluster.json").write_text(
                json.dumps(manifest, indent=2) + "\n")
        for node in range(self.n):
            self._spawn(node)
        for node in range(self.n):
            self.controls[node] = self._connect(node, timeout)
        self.wait_linked(timeout=timeout)
        self._log(f"cluster up: {self.n} nodes on ports {self.ports}")
        return self

    def _spawn(self, node: int) -> None:
        import repro

        env = dict(os.environ)
        src_root = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--node", str(node),
            "--ports", ",".join(str(p) for p in self.ports),
            "--host", self.host,
            "--cluster-id", self.cluster_id,
            "--seed", str(self.seed),
            "--heartbeat", str(self.heartbeat),
            "--shards", str(self.shards),
        ]
        cmd += self.node_args
        if self.data_dir is not None:
            cmd += ["--data-dir", str(self.data_dir / f"node{node}")]
        if self.verbose:
            cmd.append("--verbose")
        if not self.trace:
            cmd.append("--no-trace")
        elif self.out_dir is not None:
            cmd += ["--trace-jsonl",
                    str(self.out_dir / f"node{node}.events.jsonl")]
        stderr: Any = subprocess.DEVNULL
        if self.out_dir is not None:
            logfile = open(self.out_dir / f"node{node}.log", "ab")
            self._logfiles.append(logfile)
            stderr = logfile
        elif self.verbose:
            stderr = None  # inherit
        self.procs[node] = subprocess.Popen(
            cmd, env=env, stdout=stderr, stderr=stderr)

    def _connect(self, node: int, timeout: float) -> ControlClient:
        deadline = time.monotonic() + timeout
        while True:
            proc = self.procs[node]
            if proc.poll() is not None:
                raise ControlError(
                    f"node {node} exited with {proc.returncode} before accepting "
                    f"control connections")
            try:
                return ControlClient(self.host, self.ports[node],
                                     cluster_id=self.cluster_id)
            except (OSError, ControlError):
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.05)

    def call(self, node: int, cmd: str, **args: Any) -> Any:
        return self.controls[node].call(cmd, **args)

    def wait_until(self, predicate: Callable[[], bool], *, timeout: float = 20.0,
                   interval: float = 0.05, what: str = "condition") -> None:
        deadline = time.monotonic() + timeout
        while True:
            try:
                if predicate():
                    return
            except ControlError:
                pass  # a node mid-restart; keep polling until the deadline
            if time.monotonic() > deadline:
                raise TimeoutError(f"cluster: timed out waiting for {what}")
            time.sleep(interval)

    def wait_linked(self, *, nodes: list[int] | None = None,
                    timeout: float = 20.0) -> None:
        """Block until every node has live links to all peers + armed detector."""
        members = nodes if nodes is not None else list(range(self.n))

        def linked() -> bool:
            for node in members:
                status = self.call(node, "status")
                peers = {p for p in range(self.n) if p != node}
                if set(status["links"]) != peers or not status["detector_armed"]:
                    return False
            return True

        self.wait_until(linked, timeout=timeout, what="full mesh + detectors")

    # -- fault injection ---------------------------------------------------------

    def stall(self, node: int) -> None:
        """SIGSTOP: the process freezes but keeps its sockets and state."""
        self._log(f"stalling node {node} (SIGSTOP)")
        os.kill(self.procs[node].pid, signal.SIGSTOP)

    def resume(self, node: int) -> None:
        self._log(f"resuming node {node} (SIGCONT)")
        os.kill(self.procs[node].pid, signal.SIGCONT)

    def kill(self, node: int) -> None:
        """SIGKILL: the process dies; actor state on it is lost."""
        self._log(f"killing node {node} (SIGKILL)")
        proc = self.procs[node]
        proc.kill()
        proc.wait()
        control = self.controls.pop(node, None)
        if control is not None:
            control.close()

    def kill_all(self) -> None:
        """SIGKILL every still-running node (total-cluster crash drill)."""
        for node in sorted(self.procs):
            if self.procs[node].poll() is None:
                self.kill(node)

    def respawn_all(self, nodes: list[int] | None = None,
                    timeout: float = 20.0) -> None:
        """Restart a set of killed nodes (default: all) on their old ports."""
        members = list(nodes) if nodes is not None else sorted(self.procs)
        for node in members:
            self._spawn(node)
        for node in members:
            self.controls[node] = self._connect(node, timeout)

    # -- observability -----------------------------------------------------------

    def collect(self, *, events: bool = True) -> dict[int, dict]:
        """Snapshot every reachable node (metrics, counters, event log)."""
        snapshots: dict[int, dict] = {}
        for node in sorted(self.controls):
            try:
                snapshots[node] = self.call(node, "snapshot", events=events)
            except ControlError as exc:
                snapshots[node] = {"node": node, "error": str(exc)}
        if self.out_dir is not None:
            for node, snap in snapshots.items():
                path = self.out_dir / f"node{node}.snapshot.json"
                path.write_text(json.dumps(_jsonable(snap), indent=2))
        return snapshots

    def shutdown(self, timeout: float = 5.0) -> None:
        for node, control in list(self.controls.items()):
            try:
                control.call("shutdown")
            except ControlError:
                pass
            control.close()
        self.controls.clear()
        deadline = time.monotonic() + timeout
        for node, proc in self.procs.items():
            if proc.poll() is not None:
                continue
            try:
                proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    proc.wait(timeout=2.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        for logfile in self._logfiles:
            try:
                logfile.close()
            except OSError:
                pass
        self._logfiles.clear()
        self._log("cluster down")


# -- telemetry aggregation ------------------------------------------------------


def _event_from_dict(record: dict) -> TraceEvent:
    """Rebuild a :class:`TraceEvent` from its ``to_dict`` wire form."""
    return TraceEvent(
        seq=int(record.get("seq", 0)),
        t=float(record.get("t", 0.0)),
        kind=str(record.get("kind", "?")),
        node=int(record.get("node", 0)),
        envelope_id=record.get("envelope_id"),
        trace_id=record.get("trace_id"),
        parent_id=record.get("parent_id"),
        data=dict(record.get("data") or {}),
    )


#: The hub counters an operator summary carries (:meth:`TelemetryCollector.
#: summary`, the cluster driver's per-node log line).
WIRE_KEYS = ("frames_in", "frames_out", "frames_shed", "batches_in",
             "batches_out", "queue_peak_bytes")


class TelemetryCollector:
    """Launcher-side scraper: pull every node's telemetry onto one timeline.

    Owns one *dedicated* control connection per node — a
    :class:`ControlClient` matches replies by id and discards stray
    frames, so sharing the cluster's own control links from a background
    thread would eat each other's replies.

    Each pull is one ``snapshot`` scrape — the node's registry dump in
    sections, its ``status`` view, and the flight-recorder events past
    the previous pull's high-water mark — after a control-plane ``ping``
    (an empty round trip, so its timing is all wire) that feeds an
    NTP-style :class:`ClockSync` over the collector's own
    ``time.monotonic``.  The ping also names the process that answered:
    a node that restarted is a new *incarnation*, with an event list, a
    high-water mark and clock samples of its own.
    :meth:`merged_events` then maps every incarnation's wall-clock
    events onto the collector timeline, rebases the earliest to zero,
    and repairs any residual cross-node causality inversions (offset
    error is bounded by half the control RTT, which can exceed a one-way
    data-path latency on loopback).
    """

    def __init__(self, host: str, ports: list[int], *,
                 cluster_id: str = "actorspace", timeout: float = 3.0,
                 max_events_per_pull: int = 2000):
        self.host = host
        self.ports = list(ports)
        self.cluster_id = cluster_id
        self.timeout = timeout
        self.max_events_per_pull = max_events_per_pull
        #: Keyed ``(node, incarnation)``: each process start of a node
        #: runs on a clock of its own.
        self.clock_sync = ClockSync(clock=time.monotonic)
        #: node -> the events collected from each of its incarnations,
        #: oldest incarnation first.
        self.incarnations: dict[int, list[list[TraceEvent]]] = {
            node: [] for node in range(len(self.ports))}
        self.snapshots: dict[int, dict] = {}
        self.events_missed: dict[int, int] = {}
        self.pulls = 0
        self.pull_errors = 0
        self._since: dict[int, int] = {}
        self._started: dict[int, float] = {}
        self._clients: dict[int, ControlClient] = {}
        self._lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    @classmethod
    def for_cluster(cls, cluster: LocalCluster, **kwargs) -> "TelemetryCollector":
        return cls(cluster.host, cluster.ports,
                   cluster_id=cluster.cluster_id, **kwargs)

    @classmethod
    def from_manifest(cls, path: str | Path, **kwargs) -> "TelemetryCollector":
        """Attach to a running cluster via its ``cluster.json``."""
        manifest = json.loads(Path(path).read_text())
        return cls(manifest["host"], manifest["ports"],
                   cluster_id=manifest["cluster_id"], **kwargs)

    # -- connections -------------------------------------------------------------

    def _client(self, node: int) -> ControlClient:
        client = self._clients.get(node)
        if client is None:
            client = ControlClient(self.host, self.ports[node],
                                   cluster_id=self.cluster_id,
                                   timeout=self.timeout)
            self._clients[node] = client
        return client

    def _drop_client(self, node: int) -> None:
        client = self._clients.pop(node, None)
        if client is not None:
            client.close()

    # -- sampling ----------------------------------------------------------------

    def sample_clock(self, node: int) -> None:
        """One ping round trip -> one NTP sample for ``node``; a reply
        from a process that started at another instant opens a new
        incarnation (its seqs restart at 0, on a clock of its own)."""
        t_send = time.monotonic()
        reply = self._client(node).call("ping")
        t_recv = time.monotonic()
        if reply["start"] != self._started.get(node):
            self._started[node] = reply["start"]
            self._since[node] = 0
            with self._lock:
                self.incarnations[node].append([])
        self.clock_sync.add_sample(
            (node, len(self.incarnations[node]) - 1),
            t_send, reply["t"], reply["t"], t_recv)

    def pull_node(self, node: int) -> dict:
        """One telemetry pull from ``node`` (events are incremental)."""
        self.sample_clock(node)
        value = self._client(node).call(
            "snapshot", since_seq=self._since[node],
            max_events=self.max_events_per_pull)
        self._since[node] = int(value.get("next_seq", 0))
        fresh = [_event_from_dict(r) for r in value.get("events", [])]
        with self._lock:
            self.incarnations[node][-1].extend(fresh)
            self.snapshots[node] = value
            self.events_missed[node] = (self.events_missed.get(node, 0)
                                        + int(value.get("events_missed", 0)))
        return value

    def pull(self) -> dict[int, dict]:
        """Pull every node; per-node errors are recorded, not raised."""
        results: dict[int, dict] = {}
        for node in range(len(self.ports)):
            try:
                results[node] = self.pull_node(node)
            except (ControlError, OSError) as exc:
                self.pull_errors += 1
                self._drop_client(node)
                results[node] = {"node": node, "error": str(exc)}
        self.pulls += 1
        return results

    # -- periodic scraping -------------------------------------------------------

    def start(self, interval: float = 0.5) -> "TelemetryCollector":
        """Scrape every ``interval`` seconds from a daemon thread."""
        if self._thread is not None:
            return self
        self._stop.clear()

        def loop() -> None:
            while not self._stop.wait(interval):
                self.pull()

        self._thread = threading.Thread(
            target=loop, name="telemetry-collector", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self.timeout * len(self.ports) + 5.0)
            self._thread = None

    def drain(self) -> dict[int, dict]:
        """Stop periodic scraping and take one final pull from every node."""
        self.stop()
        return self.pull()

    def close(self) -> None:
        self.stop()
        for node in list(self._clients):
            self._drop_client(node)

    # -- merging -----------------------------------------------------------------

    def merged_events(self) -> list[TraceEvent]:
        """Every node's events on one clock-aligned, causality-clean timeline.

        Each event's node-local wall time is mapped onto the collector's
        monotonic timeline via its incarnation's best clock-offset sample,
        rebased so the earliest event sits at zero, and sorted.  A
        bounded repair pass then shifts whole nodes forward where a
        cross-node ``sent`` still timestamps after its ``delivered`` —
        the estimate's error bound (rtt/2) can exceed a one-way hop, and
        a merged trace that shows effects before causes is worse than
        one a few hundred microseconds off.
        """
        with self._lock:
            merged = [
                TraceEvent(seq=e.seq,
                           t=self.clock_sync.to_local((node, k), e.t),
                           kind=e.kind, node=e.node,
                           envelope_id=e.envelope_id, trace_id=e.trace_id,
                           parent_id=e.parent_id, data=e.data)
                for node, runs in self.incarnations.items()
                for k, run in enumerate(runs)
                for e in run
            ]
        if not merged:
            return []
        self._repair_causality(merged)
        base = min(e.t for e in merged)
        for event in merged:
            event.t -= base
        merged.sort(key=lambda e: (e.t, e.node, e.seq))
        return merged

    @staticmethod
    def _repair_causality(events: list[TraceEvent], passes: int = 4) -> None:
        """Shift nodes forward until no send timestamps after its delivery."""
        for _ in range(passes):
            sent_at: dict[int, tuple[int, float]] = {}
            for e in events:
                if e.kind == "sent" and e.envelope_id is not None \
                        and e.envelope_id not in sent_at:
                    sent_at[e.envelope_id] = (e.node, e.t)
            shift: dict[int, float] = {}
            for e in events:
                if e.kind != "delivered" or e.envelope_id not in sent_at:
                    continue
                src, t_sent = sent_at[e.envelope_id]
                if src != e.node and e.t <= t_sent:
                    need = t_sent - e.t + 1e-6
                    shift[e.node] = max(shift.get(e.node, 0.0), need)
            if not shift:
                return
            for e in events:
                delta = shift.get(e.node)
                if delta is not None:
                    e.t += delta

    def export_chrome(self, path: str | Path) -> dict:
        """Write the merged timeline as a Chrome trace (real microseconds)."""
        return export_chrome_trace(self.merged_events(), str(path),
                                   us_per_t=1e6)

    def summary(self) -> dict[int, dict]:
        """Operator-facing per-node wire counters from the last snapshots."""
        out: dict[int, dict] = {}
        with self._lock:
            for node, snap in sorted(self.snapshots.items()):
                hub = snap.get("hub") or {}
                out[node] = {
                    **{key: hub.get(key) for key in WIRE_KEYS},
                    "heartbeats_suppressed": (snap.get("metrics") or {}).get(
                        "heartbeats_suppressed"),
                    "events": sum(map(len, self.incarnations[node])),
                    "events_missed": self.events_missed.get(node, 0),
                    "stage_latency": hub.get("stage_latency"),
                }
        return out

    def __repr__(self):
        events = sum(map(len, itertools.chain(*self.incarnations.values())))
        return (f"<TelemetryCollector nodes={len(self.ports)} "
                f"pulls={self.pulls} events={events}>")


# -- one node process ----------------------------------------------------------


def serve_main(argv: list[str]) -> int:
    """``python -m repro serve`` — run one node process."""
    import argparse
    import asyncio

    from .runtime import NodeRuntime

    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Run one ActorSpace node over TCP (normally spawned "
                    "by `python -m repro cluster`).")
    parser.add_argument("--node", type=int, required=True)
    parser.add_argument("--ports", required=True,
                        help="comma-separated port list, one per node id")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--cluster-id", default="actorspace")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--heartbeat", type=float, default=0.2)
    parser.add_argument("--shards", type=int, default=1,
                        help="visibility-plane shard count (>1 partitions "
                             "the directory across per-shard sequencers)")
    parser.add_argument("--mailbox-capacity", type=int, default=None,
                        help="per-actor invocation-port bound (0 = unbounded; "
                             "default: the bounded-but-roomy runtime default)")
    parser.add_argument("--mailbox-policy", default="drop-oldest",
                        choices=["drop-oldest", "drop-newest", "suspend-sender"],
                        help="what a full mailbox does with the overflow")
    parser.add_argument("--breaker-threshold", type=int, default=None,
                        help="mailbox sheds within 1s that trip the per-"
                             "destination circuit breaker (default: off)")
    parser.add_argument("--data-dir", default=None,
                        help="durable data directory: persist the visibility "
                             "log + dead letters here and recover from it at "
                             "startup (default: no durability)")
    parser.add_argument("--fsync", default="commit",
                        choices=["commit", "batch", "never"],
                        help="store durability policy (see repro.store)")
    parser.add_argument("--snapshot-interval", type=float, default=30.0,
                        help="seconds between directory snapshots "
                             "(0 disables periodic snapshots)")
    parser.add_argument("--no-trace", action="store_true",
                        help="disable the flight-recorder event log "
                             "(benchmarks: removes per-message trace cost)")
    parser.add_argument("--trace-jsonl", default=None,
                        help="stream flight-recorder events to this JSONL "
                             "file (flushed per event; survives SIGKILL)")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    ports = {i: int(p) for i, p in enumerate(args.ports.split(","))}
    if args.node not in ports:
        parser.error(f"--node {args.node} has no entry in --ports")
    # 0 means explicitly unbounded; unset keeps the runtime default.
    capacity = {} if args.mailbox_capacity is None \
        else {"mailbox_capacity": args.mailbox_capacity or None}
    runtime = NodeRuntime(
        args.node, ports, host=args.host, cluster_id=args.cluster_id,
        seed=args.seed, heartbeat_interval=args.heartbeat,
        trace=not args.no_trace, trace_jsonl=args.trace_jsonl,
        quiet=not args.verbose, data_dir=args.data_dir, fsync=args.fsync,
        snapshot_interval=args.snapshot_interval, shards=args.shards,
        mailbox_policy=args.mailbox_policy,
        breaker_threshold=args.breaker_threshold, **capacity)

    async def main() -> None:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, runtime.request_shutdown)
            except (NotImplementedError, RuntimeError):
                pass
        await runtime.serve()

    profile_dir = os.environ.get("REPRO_NODE_PROFILE")
    if profile_dir:
        # Whole-process profile per node (perf forensics): dump pstats
        # to <dir>/node<N>.pstats at clean shutdown.
        import cProfile
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            asyncio.run(main())
        finally:
            profiler.disable()
            Path(profile_dir).mkdir(parents=True, exist_ok=True)
            profiler.dump_stats(str(Path(profile_dir) / f"node{args.node}.pstats"))
        return 0
    asyncio.run(main())
    return 0
