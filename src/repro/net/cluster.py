"""Launcher for multi-process clusters, plus the drivers and drills.

``python -m repro serve`` runs ONE node (a :class:`~repro.net.runtime.
NodeRuntime`) in the current process; ``python -m repro cluster`` spawns
N of those as subprocesses on localhost, drives a shipped example across
them through the control plane, optionally runs a fault drill
(SIGSTOP/SIGCONT stall or SIGKILL + respawn), and collects
metrics/event-log snapshots back into a report.

The control plane is deliberately launcher-shaped: behaviors are named
registry entries (:mod:`repro.net.registry`), addresses and patterns
travel in wire form, and every verification reads actor state back over
the sockets — nothing in the driver peeks into the node processes.

``run_tcp_conformance`` reuses the same machinery as an oracle check:
the visibility commands of a generated conformance scenario are applied
through the same driver verbs to a single-process
:class:`~repro.runtime.system.ActorSpaceSystem` and to a real TCP
cluster (each at the node the scenario names, so both mint identical
addresses), then the directory replicas and probe resolutions are
compared value-for-value.
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

from repro.apps.process_pool import Job, expected_result
from repro.core.messages import Destination
from repro.runtime.eventlog import (
    TraceEvent,
    export_chrome_trace,
    validate_chrome_trace,
)
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

    def respawn(self, node: int, timeout: float = 20.0) -> None:
        """Restart a killed node on its old port; it re-syncs via the bus."""
        self._log(f"respawning node {node}")
        self._spawn(node)
        self.controls[node] = self._connect(node, timeout)

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
    ``time.monotonic``.  :meth:`merged_events` then maps every node's
    wall-clock events onto the collector timeline, rebases the earliest
    to zero, and repairs any residual cross-node causality inversions
    (offset error is bounded by half the control RTT, which can exceed a
    one-way data-path latency on loopback).
    """

    def __init__(self, host: str, ports: list[int], *,
                 cluster_id: str = "actorspace", timeout: float = 3.0,
                 max_events_per_pull: int = 2000):
        self.host = host
        self.ports = list(ports)
        self.cluster_id = cluster_id
        self.timeout = timeout
        self.max_events_per_pull = max_events_per_pull
        self.clock_sync = ClockSync(clock=time.monotonic)
        self.events: dict[int, list[TraceEvent]] = {
            node: [] for node in range(len(self.ports))}
        self.snapshots: dict[int, dict] = {}
        self.events_missed: dict[int, int] = {}
        self.pulls = 0
        self.pull_errors = 0
        self._since: dict[int, int] = {}
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
        """One ping round trip -> one NTP sample for ``node``."""
        t_send = time.monotonic()
        reply = self._client(node).call("ping")
        t_recv = time.monotonic()
        t_node = reply.get("t") if isinstance(reply, dict) else None
        if isinstance(t_node, (int, float)):
            self.clock_sync.add_sample(node, t_send, t_node, t_node, t_recv)

    def pull_node(self, node: int) -> dict:
        """One telemetry pull from ``node`` (events are incremental)."""
        self.sample_clock(node)
        value = self._client(node).call(
            "snapshot", since_seq=self._since.get(node, 0),
            max_events=self.max_events_per_pull)
        self._since[node] = int(value.get("next_seq", 0))
        fresh = [_event_from_dict(r) for r in value.get("events", [])]
        with self._lock:
            self.events.setdefault(node, []).extend(fresh)
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
        monotonic timeline via that node's best clock-offset sample,
        rebased so the earliest event sits at zero, and sorted.  A
        bounded repair pass then shifts whole nodes forward where a
        cross-node ``sent`` still timestamps after its ``delivered`` —
        the estimate's error bound (rtt/2) can exceed a one-way hop, and
        a merged trace that shows effects before causes is worse than
        one a few hundred microseconds off.
        """
        with self._lock:
            merged = [
                TraceEvent(seq=e.seq, t=self.clock_sync.to_local(node, e.t),
                           kind=e.kind, node=e.node,
                           envelope_id=e.envelope_id, trace_id=e.trace_id,
                           parent_id=e.parent_id, data=e.data)
                for node, events in self.events.items()
                for e in events
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
                    "events": len(self.events.get(node, [])),
                    "events_missed": self.events_missed.get(node, 0),
                    "clock": snap.get("clock"),
                    "stage_latency": hub.get("stage_latency"),
                }
        return out

    def __repr__(self):
        return (f"<TelemetryCollector nodes={len(self.ports)} "
                f"pulls={self.pulls} events="
                f"{sum(len(v) for v in self.events.values())}>")


# -- drivers -------------------------------------------------------------------


def _await_actor_value(cluster: LocalCluster, node: int, address, attr: str,
                       *, timeout: float = 30.0, what: str = "result"):
    box: dict[str, Any] = {}

    def ready() -> bool:
        state = cluster.call(node, "actor_state", address=address, attrs=[attr])
        box["value"] = state[attr]
        return state[attr] is not None

    cluster.wait_until(ready, timeout=timeout, what=what)
    return box["value"]


def _fault_drill(cluster: LocalCluster, victim: int, mode: str,
                 log: Callable[[str], None]) -> dict:
    """Confirm-down → DLQ capture → recovery → redelivery, over real sockets.

    ``stall`` freezes the victim with SIGSTOP (sockets and actor state
    survive), so redelivered probes demonstrably *arrive*: the probe
    counter on the victim ends at the full count.  ``kill`` loses the
    victim's actors; the drill then verifies quarantine, dead-letter
    drain on reconnect, directory re-sync, and that a freshly created
    actor on the respawned node is reachable.
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
        # check the write path's memory stays bounded.  Pre-watermark,
        # every one of these piled into an unbounded asyncio transport
        # buffer; now drain() backpressure fills the per-link queue,
        # which sheds past its cap instead of growing.
        from .peer import MAX_PENDING_BYTES

        flood = 300
        for index in range(flood):
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

    cluster.wait_until(
        lambda: victim in cluster.call(observer, "status")["confirmed_down"],
        timeout=30.0, what=f"node {victim} confirmed down")
    status = cluster.call(observer, "status")
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
        cluster.respawn(victim)
        cluster.wait_linked(timeout=30.0)

    def drained() -> bool:
        status = cluster.call(observer, "status")
        dlq_state = cluster.call(observer, "dlq")
        # flush() only *schedules* redeliveries (with backoff), so wait
        # for the redelivered counter, not just an empty queue.
        return (victim not in status["confirmed_down"]
                and dlq_state["pending"] == 0
                and dlq_state["redelivered"] >= probes)

    cluster.wait_until(drained, timeout=30.0,
                       what=f"node {victim} recovery + dead-letter redelivery")
    dlq = cluster.call(observer, "dlq")
    report["recover_seconds"] = round(time.monotonic() - t1, 3)
    report["dlq_redelivered"] = dlq["redelivered"]
    log(f"node {victim} recovered after {report['recover_seconds']}s; "
        f"{dlq['redelivered']} dead letters redelivered")

    if mode == "stall":
        # Actor state survived the stall: every redelivered probe landed.
        def all_probes() -> bool:
            state = cluster.call(victim, "actor_state",
                                 address=probe, attrs=["count"])
            return state["count"] >= probes

        cluster.wait_until(all_probes, timeout=10.0,
                           what="all probes redelivered")
        count = cluster.call(victim, "actor_state",
                             address=probe, attrs=["count"])["count"]
        report["probe_count"] = count
        log(f"probe actor on node {victim} received all {count} "
            f"redelivered messages")
    else:
        # State was lost with the process; prove the respawned node works.
        fresh = cluster.call(victim, "create_actor",
                             behavior="counter")["address"]
        cluster.call(observer, "send_to", target=fresh, payload=("alive",))

        def fresh_heard() -> bool:
            state = cluster.call(victim, "actor_state",
                                 address=fresh, attrs=["count"])
            return state["count"] >= 1

        cluster.wait_until(fresh_heard, timeout=10.0,
                           what="respawned node reachable")
        report["respawn_reachable"] = True
        log(f"respawned node {victim} reachable (fresh actor answered)")
    return report


def drive_process_pool(cluster: LocalCluster, *, job_size: int = 4096,
                       grain: int = 64, fanout: int = 4,
                       cost_per_item: float = 0.0005,
                       workers_per_node: int = 2,
                       drill: tuple[str, int] | None = None,
                       log: Callable[[str], None] = print) -> dict:
    """Figure-1 process pool across real node processes (+ optional drill)."""
    n = cluster.n
    report: dict[str, Any] = {"example": "process_pool", "nodes": n}

    pool = cluster.call(0, "create_space", attributes="procpool")["address"]
    cluster.wait_until(
        lambda: all(cluster.call(i, "has_space", address=pool)
                    for i in range(n)),
        what="pool space replicated")

    def add_worker(node: int, index: int):
        return cluster.call(
            node, "create_actor", behavior="pool_worker",
            params={"pool": pool, "grain": grain, "fanout": fanout,
                    "cost_per_item": cost_per_item},
            space=pool,
            visible={"attributes": f"proc/p{index}", "space": pool},
        )["address"]

    workers = {}
    for index in range(n * workers_per_node):
        workers[index] = (index % n, add_worker(index % n, index))
    cluster.wait_until(
        lambda: all(
            len(cluster.call(i, "resolve", pattern="**", space=pool))
            == len(workers)
            for i in range(n)),
        what="worker visibility replicated")
    report["workers"] = len(workers)
    log(f"pool ready: {len(workers)} workers visible on all {n} nodes")

    def run_job(tag: str) -> dict:
        job = Job(0, job_size)
        t0 = time.monotonic()
        client = cluster.call(
            0, "create_actor", behavior="pool_client",
            params={"pool": pool, "lo": job.lo, "hi": job.hi})["address"]
        result = _await_actor_value(cluster, 0, client, "result",
                                    what=f"{tag} pool result")
        elapsed = time.monotonic() - t0
        expected = expected_result(job)
        assert result == expected, \
            f"{tag}: pool computed {result}, expected {expected}"
        log(f"{tag}: job(0,{job_size}) -> {result} (correct) "
            f"in {elapsed:.2f}s wall")
        return {"result": result, "expected": expected, "correct": True,
                "wall_seconds": round(elapsed, 3)}

    report["first_run"] = run_job("first run")
    if drill is not None:
        mode, victim = drill
        report["drill"] = _fault_drill(cluster, victim, mode, log)
        if mode == "kill":
            # SIGKILL lost the victim's workers, but the replicated
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
            # the respawned process restarts actor serials at zero, so a
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
            cluster.wait_until(
                lambda: all(
                    sorted(cluster.call(i, "resolve", pattern="**",
                                        space=pool))
                    == sorted(a for _, a in workers.values())
                    for i in range(n)),
                what="pool membership after re-provisioning")
            log(f"retired node {victim}'s dead workers, provisioned "
                f"{workers_per_node} replacements")
        report["post_drill_run"] = run_job("post-drill run")
    return report


def drive_replicated(cluster: LocalCluster, *, requests: int = 8,
                     drill: tuple[str, int] | None = None,
                     log: Callable[[str], None] = print) -> dict:
    """A replica-per-node service; broadcasts must reach every replica."""
    n = cluster.n
    report: dict[str, Any] = {"example": "replicated", "nodes": n}

    service = cluster.call(0, "create_space", attributes="service")["address"]
    cluster.wait_until(
        lambda: all(cluster.call(i, "has_space", address=service)
                    for i in range(n)),
        what="service space replicated")
    replicas = []
    for node in range(n):
        address = cluster.call(
            node, "create_actor", behavior="replica",
            params={"name": f"r{node}"}, space=service,
            visible={"attributes": f"replica/r{node}", "space": service},
        )["address"]
        replicas.append(address)
    cluster.wait_until(
        lambda: all(
            len(cluster.call(i, "resolve", pattern="**", space=service)) == n
            for i in range(n)),
        what="replica visibility replicated")
    collector = cluster.call(0, "create_actor", behavior="counter",
                             params={"keep": 64})["address"]
    log(f"service ready: {n} replicas")

    for i in range(requests):
        cluster.call(0, "broadcast", destination=Destination("**", service),
                     payload=("request", i), reply_to=collector)
    expected_acks = requests * n

    def all_acked() -> bool:
        state = cluster.call(0, "actor_state", address=collector,
                             attrs=["count"])
        return state["count"] >= expected_acks

    cluster.wait_until(all_acked, timeout=30.0, what="broadcast acks")
    per_replica = [
        cluster.call(node, "actor_state", address=replicas[node],
                     attrs=["count"])["count"]
        for node in range(n)
    ]
    assert per_replica == [requests] * n, per_replica
    report.update({"requests": requests, "acks": expected_acks,
                   "per_replica": per_replica, "correct": True})
    log(f"{requests} broadcasts -> {expected_acks} acks "
        f"({requests} per replica on every node)")
    if drill is not None:
        mode, victim = drill
        report["drill"] = _fault_drill(cluster, victim, mode, log)
    return report


DRIVERS: dict[str, Callable[..., dict]] = {
    "process_pool": drive_process_pool,
    "replicated": drive_replicated,
}


# -- sim-as-oracle conformance over TCP ---------------------------------------


def _replication_barrier(cluster: LocalCluster, *,
                         nodes: list[int] | None = None,
                         timeout: float = 20.0,
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

    cluster.wait_until(caught_up, timeout=timeout, what=what)


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
    from repro.check.scenario import run_visibility

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
                        log: Callable[[str], None] = print) -> dict:
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
    from repro.check.scenario import (
        VISIBILITY_OPS,
        generate_scenario,
        repair_commands,
    )
    from repro.core.errors import ActorSpaceError
    from repro.runtime.network import Topology
    from repro.runtime.system import ActorSpaceSystem

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


# -- durability drill ----------------------------------------------------------


def run_durability_drill(cluster: LocalCluster, data_dir: str | Path, *,
                         wave: int = 25, probes: int = 5,
                         log: Callable[[str], None] = print) -> dict:
    """SIGKILL the whole cluster mid-traffic; prove recovery from disk.

    The script: deliver a verified message wave, park ``probes`` dead
    letters for a downed victim, then SIGKILL every process (no orderly
    shutdown, no final snapshot — disk is all the next incarnation
    gets).  Recovery is held to three independent referees:

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
    counters = {}
    for node in range(n):
        counters[node] = cluster.call(
            node, "create_actor", behavior="counter",
            visible={"attributes": f"dur/c{node}"})["address"]
    for index in range(wave):
        for node in range(n):
            cluster.call(0, "send_to", target=counters[node],
                         payload=("wave", index))

    def wave_landed() -> bool:
        return all(
            cluster.call(node, "actor_state", address=counters[node],
                         attrs=["count"])["count"] >= wave
            for node in range(n))

    cluster.wait_until(wave_landed, timeout=30.0, what="wave delivery")
    delivered = wave * n
    log(f"wave delivered: {delivered} messages ({wave} per node)")

    # Group commit, as a count: a burst submitted to the seat in one
    # control call is one turn there, so one fsync, not one per op.
    cluster.call(0, "vis_burst", target=counters[0], count=8)
    applied = cluster.call(0, "status")["applied_seq"]
    cluster.wait_until(
        lambda: all(cluster.call(i, "status")["applied_seq"] >= applied
                    for i in range(n)),
        what="visibility convergence before the crash")
    store = cluster.call(0, "status")["store"]
    assert store["fsyncs"] < store["ops_appended"], store
    log(f"seat node 0 persisted {store['ops_appended']} ops in "
        f"{store['fsyncs']} fsyncs ({store['ops_per_fsync']} ops/fsync)")
    pre_dir = cluster.call(0, "directory")["snapshot"]
    report["pre_kill_applied_seq"] = applied

    # Park letters: confirm the victim down, then aim probes at it.
    cluster.kill(victim)
    cluster.wait_until(
        lambda: victim in cluster.call(0, "status")["confirmed_down"],
        timeout=30.0, what=f"node {victim} confirmed down")
    for i in range(probes):
        cluster.call(0, "send_to", target=counters[victim],
                     payload=("probe", i))
    cluster.wait_until(
        lambda: cluster.call(0, "dlq")["pending"] >= probes,
        timeout=10.0, what="probe letters captured")
    dlq = cluster.call(0, "dlq")
    assert dlq["pending"] == probes, dlq
    log(f"{probes} letters parked in node 0's dead-letter queue")

    cluster.kill_all()
    log("all nodes SIGKILLed")

    # Referee 1 (offline): oracle over the persisted log + determinism.
    from repro.check.logcheck import check_recovered
    from repro.store.node_store import load_data_dir
    from repro.store.replay import replay_recovered

    node0_dir = str(Path(data_dir) / "node0")
    recovered = load_data_dir(node0_dir)
    assert recovered.report.clean, recovered.report.to_dict()
    problems = check_recovered(recovered)
    assert not problems, problems[:5]
    _, first = replay_recovered(recovered)
    replayer, second = replay_recovered(load_data_dir(node0_dir))
    assert first["digest"] == second["digest"], (first, second)
    assert replayer.directory.snapshot() == pre_dir, \
        "offline replay directory differs from the pre-crash directory"
    report["offline"] = {"digest": first["digest"],
                         "ops_applied": first["ops_applied"]}
    log(f"offline: log passes the oracle, replay digest stable over "
        f"{first['ops_applied']} ops ({first['digest'][:12]}...)")

    # Referee 2 (online): restart the survivors only — recovery must
    # come from disk, not from any live peer.
    survivors = list(range(n - 1))
    cluster.respawn_all(nodes=survivors)
    cluster.wait_until(
        lambda: all(cluster.call(node, "status")["applied_seq"] >= applied
                    for node in survivors),
        timeout=30.0, what="survivor recovery from disk")
    for node in survivors:
        status = cluster.call(node, "status")
        assert status["recovery"] is not None, f"node {node} did not recover"
        directory = cluster.call(node, "directory")["snapshot"]
        assert directory == pre_dir, \
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
    cluster.respawn(victim)
    cluster.wait_linked(timeout=30.0)

    def letters_drained() -> bool:
        state = cluster.call(0, "dlq")
        return state["pending"] == 0 and state["redelivered"] >= probes

    cluster.wait_until(letters_drained, timeout=30.0,
                       what="dead-letter drain to the recovered victim")
    dlq = cluster.call(0, "dlq")
    report["final_dlq"] = dict(dlq)
    log(f"victim recovered; {dlq['redelivered']} letters redelivered, "
        f"0 pending")

    # Referee 3 (forward): fresh ops after recovery.
    fresh_space = cluster.call(0, "create_space",
                               attributes="post-crash")["address"]
    cluster.wait_until(
        lambda: all(cluster.call(i, "has_space", address=fresh_space)
                    for i in range(n)),
        what="post-recovery space replication")
    fresh = cluster.call(victim, "create_actor", behavior="counter",
                         visible={"attributes": "post-crash/alive",
                                  "space": fresh_space})["address"]
    cluster.call(0, "send_to", target=fresh, payload=("alive",))
    cluster.wait_until(
        lambda: cluster.call(victim, "actor_state", address=fresh,
                             attrs=["count"])["count"] >= 1,
        timeout=10.0, what="post-recovery liveness")
    log("post-recovery traffic flows (fresh space + actor on the victim)")

    # Second cycle for node 0: its first recovery wrote a fresh
    # snapshot, so this crash exercises snapshot + suffix replay.
    applied2 = cluster.call(0, "status")["applied_seq"]
    cluster.kill(0)
    cluster.respawn(0)
    cluster.wait_until(
        lambda: cluster.call(0, "status")["applied_seq"] >= applied2,
        timeout=30.0, what="second recovery of node 0")
    status = cluster.call(0, "status")
    assert status["recovery"]["snapshot_seq"] >= 0, status["recovery"]
    assert (cluster.call(0, "directory")["snapshot"]
            == cluster.call(1, "directory")["snapshot"])
    report["second_recovery"] = status["recovery"]
    log(f"node 0 recovered again from snapshot "
        f"{status['recovery']['snapshot_seq']} + "
        f"{status['recovery']['ops_replayed']} replayed ops")
    return report


def durability_main(argv: list[str]) -> int:
    """``python -m repro durability`` — total-crash recovery drill."""
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(
        prog="python -m repro durability",
        description="SIGKILL a whole TCP cluster mid-traffic and prove it "
                    "recovers from its data directories with zero loss.")
    parser.add_argument("--nodes", type=int, default=3)
    parser.add_argument("--wave", type=int, default=25,
                        help="verified messages per node before the crash")
    parser.add_argument("--probes", type=int, default=5,
                        help="dead letters parked before the crash")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--heartbeat", type=float, default=0.2)
    parser.add_argument("--fsync", default="commit",
                        choices=["commit", "batch", "never"])
    parser.add_argument("--out", default=None,
                        help="directory for data dirs, logs, durability.json")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="export the recovered cluster's merged Chrome "
                             "trace to PATH")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    if not loopback_available():
        print("durability: loopback sockets unavailable on this platform; "
              "skipping", file=sys.stderr)
        return 0
    if args.nodes < 2:
        parser.error("--nodes must be >= 2")

    def log(text: str) -> None:
        print(f"[durability] {text}", flush=True)

    if args.out is not None:
        data_dir = Path(args.out) / "data"
    else:
        data_dir = Path(tempfile.mkdtemp(prefix="repro-durability-"))
    cluster = LocalCluster(
        args.nodes, seed=args.seed, heartbeat=args.heartbeat,
        out_dir=args.out, verbose=args.verbose, log=log, data_dir=data_dir,
        # Periodic snapshots stay out of the way so the drill's offline
        # oracle sees the full from-genesis log; snapshotting itself is
        # exercised by the recovery-time and orderly-shutdown snapshots.
        node_args=["--fsync", args.fsync, "--snapshot-interval", "600"])
    collector: TelemetryCollector | None = None
    try:
        cluster.start()
        report = run_durability_drill(cluster, data_dir, wave=args.wave,
                                      probes=args.probes, log=log)
        collector = TelemetryCollector.for_cluster(cluster)
        collector.pull()
        if args.trace_out is not None:
            merged = collector.merged_events()
            trace = export_chrome_trace(merged, args.trace_out, us_per_t=1e6)
            problems = validate_chrome_trace(trace)
            if problems:
                log(f"recovered-cluster trace INVALID: {problems[:5]}")
                return 1
            log(f"recovered-cluster merged trace: {len(merged)} events -> "
                f"{args.trace_out}")
        report["telemetry"] = collector.summary()
    finally:
        if collector is not None:
            collector.close()
        cluster.shutdown()
    if args.out is not None:
        path = Path(args.out) / "durability.json"
        path.write_text(json.dumps(_jsonable(report), indent=2))
        log(f"report written to {path}")
    log("durability: OK")
    return 0


# -- shard drill ---------------------------------------------------------------


def _probe_shard_atoms(shards: int) -> dict[int, str]:
    """One root attribute atom per shard, probed against the stable hash."""
    smap = ShardMap(shards)
    atoms: dict[int, str] = {}
    index = 0
    while len(atoms) < shards:
        atoms.setdefault(smap.owner_of(f"sh{index}"), f"sh{index}")
        index += 1
    return atoms


def run_shard_drill(cluster: LocalCluster, *, wave: int = 25, burst: int = 16,
                    rebalance: bool = True, kill_sequencers: bool = False,
                    log: Callable[[str], None] = print) -> dict:
    """Drive the partitioned visibility plane through its failure modes.

    The script: one space per shard (root atoms probed so every shard
    owns one), a counter actor per space, then interleaved message waves
    and per-shard visibility bursts from every node.  Mid-drill the
    launcher optionally (a) moves one shard's sequencer seat to another
    node *live* (``rebalance``) and (b) SIGKILLs a seat-holding node,
    waits for per-shard failover, and proves the seats return home on
    respawn (``kill_sequencers``).  The exit criteria are absolute:
    every node's directory replica is identical, per-shard resolutions
    agree everywhere, and message conservation closes with zero silent
    loss — delivered + pending + expired == offered.
    """
    n, shards = cluster.n, cluster.shards
    report: dict[str, Any] = {"drill": "shard", "nodes": n, "shards": shards,
                              "wave": wave, "burst": burst}
    atoms = _probe_shard_atoms(shards)

    spaces: dict[int, Any] = {}
    counters: dict[int, Any] = {}
    for k in sorted(atoms):
        spaces[k] = cluster.call(
            0, "create_space", attributes=atoms[k])["address"]
    cluster.wait_until(
        lambda: all(cluster.call(node, "has_space", address=spaces[k])
                    for node in range(n) for k in spaces),
        what="shard spaces replicated")
    for k in sorted(atoms):
        counters[k] = cluster.call(
            0, "create_actor", behavior="counter",
            visible={"attributes": f"{atoms[k]}/c", "space": spaces[k]},
        )["address"]
    log(f"{shards} spaces up, one per shard "
        f"(root atoms {[atoms[k] for k in sorted(atoms)]})")

    offered = 0
    sent: dict[int, int] = {k: 0 for k in spaces}

    def traffic(tag: str, senders: list[int] | None = None) -> None:
        """One wave of messages plus a visibility burst on every shard."""
        nonlocal offered
        live = senders if senders is not None else list(range(n))
        for index in range(wave):
            for k in sorted(spaces):
                cluster.call(0, "send_to", target=counters[k],
                             payload=(tag, index))
                sent[k] += 1
                offered += 1
        for node in live:
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
        moved = 1 % shards
        old = seats[moved]["sequencer"]
        new = (old + 1) % n
        # Every node adopts the same assignment (bumping its local map
        # to the same version) — the launcher plays gossip here, exactly
        # as an operator pushing a new map through the control plane.
        versions = [
            cluster.call(node, "rebalance", shard=moved, seat=new)["version"]
            for node in range(n)]
        assert len(set(versions)) == 1, versions
        traffic("post-rebalance")
        _replication_barrier(cluster, what="post-rebalance convergence")
        for node in range(n):
            status = cluster.call(node, "status")
            assert status["shards"][moved]["sequencer"] == new, \
                f"node {node} did not adopt the new seat for shard {moved}"
            assert status["shard_map_version"] == versions[0], status
        report["rebalance"] = {"shard": moved, "from": old, "to": new,
                               "map_version": versions[0]}
        log(f"shard {moved} seat moved live: node {old} -> node {new} "
            f"(map v{versions[0]}); traffic kept flowing")

    if kill_sequencers:
        seats = cluster.call(0, "status")["shards"]
        holders: dict[int, list[int]] = {}
        for k, info in seats.items():
            if info["sequencer"] != 0:
                holders.setdefault(info["sequencer"], []).append(k)
        assert holders, "no non-zero seat holder to kill"
        victim = max(holders, key=lambda node: (len(holders[node]), node))
        victim_shards = sorted(holders[victim])
        survivors = [node for node in range(n) if node != victim]
        cluster.kill(victim)

        def failed_over() -> bool:
            for node in survivors:
                node_shards = cluster.call(node, "status")["shards"]
                if any(node_shards[k]["sequencer"] == victim
                       for k in victim_shards):
                    return False
            return True

        cluster.wait_until(failed_over, timeout=30.0,
                           what=f"failover of node {victim}'s shard seats")
        interim = {k: cluster.call(0, "status")["shards"][k]["sequencer"]
                   for k in victim_shards}
        log(f"node {victim} killed; shards {victim_shards} failed over "
            f"to {interim}")
        traffic("failover", senders=survivors)
        _replication_barrier(cluster, nodes=survivors,
                             what="convergence under failover")

        cluster.respawn(victim)
        cluster.wait_linked(timeout=30.0)
        # The respawned node rejoined with the *spawn-time* shard map;
        # gossip it the current assignment so any rebalanced seat stays
        # where the operator put it.
        manifest = cluster.call(0, "shard_map")["map"]
        cluster.call(victim, "shard_map", manifest=manifest)

        def seats_home() -> bool:
            for node in range(n):
                node_shards = cluster.call(node, "status")["shards"]
                if any(info["sequencer"] != info["home"]
                       for info in node_shards.values()):
                    return False
            return True

        cluster.wait_until(seats_home, timeout=30.0,
                           what="seats returning home after respawn")
        traffic("post-respawn")
        report["kill"] = {"victim": victim, "shards": victim_shards,
                          "interim": interim}
        log(f"node {victim} respawned; every shard seat back home")

    # Conservation: every offered message is delivered (the counters all
    # live on node 0, which never dies) and none arrives twice.
    def all_landed() -> bool:
        return all(
            cluster.call(0, "actor_state", address=counters[k],
                         attrs=["count"])["count"] >= sent[k]
            for k in counters)

    cluster.wait_until(all_landed, timeout=30.0, what="message conservation")
    delivered = sum(
        cluster.call(0, "actor_state", address=counters[k],
                     attrs=["count"])["count"]
        for k in counters)
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


def shard_main(argv: list[str]) -> int:
    """``python -m repro shard`` — partitioned visibility-plane drill."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro shard",
        description="Drive a sharded TCP cluster: per-shard sequencing "
                    "load, an optional live seat rebalance and per-shard "
                    "sequencer-kill failover, holding directory coherence "
                    "and zero silent message loss throughout.")
    parser.add_argument("--nodes", type=int, default=3)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--wave", type=int, default=25,
                        help="messages per shard per traffic phase")
    parser.add_argument("--burst", type=int, default=16,
                        help="visibility ops per shard per node per phase")
    parser.add_argument("--rebalance", action="store_true",
                        help="move one shard's sequencer seat live mid-drill")
    parser.add_argument("--kill-sequencers", action="store_true",
                        help="SIGKILL a seat-holding node; verify per-shard "
                             "failover and the seats returning home")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--heartbeat", type=float, default=0.2)
    parser.add_argument("--out", default=None,
                        help="directory for logs, snapshots, shard.json")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    if not loopback_available():
        print("shard: loopback sockets unavailable on this platform; "
              "skipping", file=sys.stderr)
        return 0
    if args.nodes < 2:
        parser.error("--nodes must be >= 2")
    if args.shards < 2:
        parser.error("--shards must be >= 2")

    def log(text: str) -> None:
        print(f"[shard] {text}", flush=True)

    cluster = LocalCluster(
        args.nodes, seed=args.seed, heartbeat=args.heartbeat,
        out_dir=args.out, verbose=args.verbose, shards=args.shards, log=log)
    try:
        cluster.start()
        report = run_shard_drill(
            cluster, wave=args.wave, burst=args.burst,
            rebalance=args.rebalance,
            kill_sequencers=args.kill_sequencers, log=log)
    finally:
        cluster.shutdown()
    if args.out is not None:
        path = Path(args.out) / "shard.json"
        path.write_text(json.dumps(_jsonable(report), indent=2))
        log(f"report written to {path}")
    log("shard: OK")
    return 0


# -- CLI entry points ----------------------------------------------------------


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
    parser.add_argument("--suspect-after", type=int, default=2)
    parser.add_argument("--confirm-after", type=int, default=4)
    parser.add_argument("--shards", type=int, default=1,
                        help="visibility-plane shard count (>1 partitions "
                             "the directory across per-shard sequencers)")
    parser.add_argument("--shard-sequencer", type=int, default=None,
                        metavar="NODE",
                        help="home every shard's sequencer on NODE instead "
                             "of spreading seats round-robin")
    parser.add_argument("--mailbox-capacity", type=int, default=None,
                        help="per-actor invocation-port bound (0 = unbounded; "
                             "default: the bounded-but-roomy runtime default)")
    parser.add_argument("--mailbox-policy", default="drop-oldest",
                        choices=["drop-oldest", "drop-newest", "suspend-sender"],
                        help="what a full mailbox does with the overflow")
    parser.add_argument("--admission-rate", type=float, default=None,
                        help="per-route admitted envelopes/second "
                             "(default: no rate limiting)")
    parser.add_argument("--breaker-threshold", type=int, default=None,
                        help="mailbox sheds within 1s that trip the per-"
                             "destination circuit breaker (default: off)")
    parser.add_argument("--credit-window", type=int, default=None,
                        help="data frames a peer may have in flight before "
                             "the sender pauses (0 = no credit gating)")
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
    overload_kw: dict = {"mailbox_policy": args.mailbox_policy}
    if args.mailbox_capacity is not None:
        # 0 means explicitly unbounded; unset keeps the runtime default.
        overload_kw["mailbox_capacity"] = args.mailbox_capacity or None
    if args.admission_rate is not None:
        overload_kw["admission_rate"] = args.admission_rate
    if args.breaker_threshold is not None:
        overload_kw["breaker_threshold"] = args.breaker_threshold
    if args.credit_window is not None:
        overload_kw["credit_window"] = args.credit_window
    runtime = NodeRuntime(
        args.node, ports, host=args.host, cluster_id=args.cluster_id,
        seed=args.seed, heartbeat_interval=args.heartbeat,
        suspect_after=args.suspect_after, confirm_after=args.confirm_after,
        trace=not args.no_trace, trace_jsonl=args.trace_jsonl,
        quiet=not args.verbose, data_dir=args.data_dir, fsync=args.fsync,
        snapshot_interval=args.snapshot_interval, shards=args.shards,
        shard_sequencer=args.shard_sequencer, **overload_kw)

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


def cluster_main(argv: list[str]) -> int:
    """``python -m repro cluster`` — spawn N nodes, drive an example."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro cluster",
        description="Spawn N localhost node processes and run a shipped "
                    "example across them over real TCP sockets.")
    parser.add_argument("example", choices=sorted(DRIVERS),
                        help="which example to drive")
    parser.add_argument("--nodes", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--heartbeat", type=float, default=0.2)
    parser.add_argument("--job", type=int, default=4096,
                        help="process_pool job size")
    parser.add_argument("--workers-per-node", type=int, default=2)
    parser.add_argument("--requests", type=int, default=8,
                        help="replicated broadcast count")
    parser.add_argument("--stall", type=int, metavar="NODE", default=None,
                        help="mid-run SIGSTOP/SIGCONT drill on NODE")
    parser.add_argument("--kill", type=int, metavar="NODE", default=None,
                        help="mid-run SIGKILL + respawn drill on NODE")
    parser.add_argument("--out", default=None,
                        help="directory for logs, snapshots, report.json")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="export the merged, clock-aligned cluster "
                             "Chrome trace to PATH")
    parser.add_argument("--telemetry-interval", type=float, default=0.5,
                        help="collector scrape period in seconds")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    if not loopback_available():
        print("cluster: loopback sockets unavailable on this platform; "
              "skipping", file=sys.stderr)
        return 0
    if args.stall is not None and args.kill is not None:
        parser.error("--stall and --kill are mutually exclusive")
    drill = None
    if args.stall is not None:
        drill = ("stall", args.stall)
    elif args.kill is not None:
        drill = ("kill", args.kill)
    if drill is not None and not 0 <= drill[1] < args.nodes:
        parser.error(f"drill node {drill[1]} out of range")

    def log(text: str) -> None:
        print(f"[cluster] {text}", flush=True)

    cluster = LocalCluster(
        args.nodes, seed=args.seed, heartbeat=args.heartbeat,
        out_dir=args.out, verbose=args.verbose, log=log)
    collector: TelemetryCollector | None = None
    try:
        cluster.start()
        collector = TelemetryCollector.for_cluster(cluster)
        collector.start(interval=args.telemetry_interval)
        if args.example == "process_pool":
            report = drive_process_pool(
                cluster, job_size=args.job,
                workers_per_node=args.workers_per_node, drill=drill, log=log)
        else:
            report = drive_replicated(
                cluster, requests=args.requests, drill=drill, log=log)
        collector.drain()
        report["telemetry"] = collector.summary()
        for node, counters in report["telemetry"].items():
            log(f"node {node} wire: " + " ".join(
                f"{key}={counters[key]}"
                for key in (*WIRE_KEYS, "heartbeats_suppressed")))
        if args.trace_out is not None:
            merged = collector.merged_events()
            trace = export_chrome_trace(merged, args.trace_out, us_per_t=1e6)
            problems = validate_chrome_trace(trace)
            if problems:
                log(f"merged trace INVALID: {problems[:5]}")
                return 1
            flows = sum(1 for r in trace["traceEvents"] if r["ph"] == "f")
            log(f"merged cluster trace: {len(merged)} events, {flows} flow "
                f"bindings -> {args.trace_out}")
        cluster.collect()
    finally:
        if collector is not None:
            collector.close()
        cluster.shutdown()

    if args.out is not None:
        path = Path(args.out) / "report.json"
        path.write_text(json.dumps(_jsonable(report), indent=2))
        log(f"report written to {path}")
    log(f"{args.example}: OK")
    return 0
