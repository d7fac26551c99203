"""The per-node durable store: op log + DLQ journal + snapshots.

``NodeStore`` owns one data directory (see the package docstring for
layout) and exposes the transactional-outbox write path the buses and
the dead-letter queue hook into:

* ``append_op(seq, op, then=effect)`` / ``commit()`` — stage a sequenced
  visibility op with the effect (fan-out, local delivery) that must wait
  for it to be durable.  The host calls ``commit()`` once per turn: one
  ``write()`` + ``fsync()`` for everything staged, then the effects in
  append order — so an op a recovered node replays was durable before
  any replica saw it.
* ``append_dlq_*`` — journal dead-letter lifecycle events (capture,
  retry, resolve, expire).  Each carries a monotonically increasing
  event number ``n``; snapshots record the highest ``n`` folded in, so
  recovery applies only the journal suffix and a letter never
  double-adopts.
* ``write_snapshot(state, shard_stores)`` — install a snapshot, then
  have each shard's store rotate its live segment and truncate the
  closed segments the retained snapshots make redundant
  (``truncate_below``).

Record shapes on disk (all values closed-world codec-encodable)::

    {"rec": "op",  "seq": int, "op": VisibilityOp}
    {"rec": "dlq", "n": int, "kind": "capture"|"retry",
     "envelope": Envelope, "dst": int, "reason": str,
     "attempts": int, "queued_at": float}
    {"rec": "dlq", "n": int, "kind": "resolve", "id": int}
    {"rec": "dlq", "n": int, "kind": "expire",  "id": int,
     "reason": str, "attempts": int}
"""

from __future__ import annotations

import os
import re
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..shard.merge import shard_dirs
from .recovery import upgrade_snapshot
from .segment import ReadReport, SegmentWriter, fsync_dir, scan_segment
from .snapshot import (
    install,
    list_snapshots,
    load_latest_snapshot,
    prune_snapshots,
    write_snapshot,
)

_SEG_RE = re.compile(r"^seg-(\d{8})\.log$")

#: Rotate the live segment once it grows past this many bytes (also
#: rotated unconditionally at snapshot time, so truncation has a clean
#: pre-snapshot/post-snapshot boundary).
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024


def segment_paths(data_dir: str) -> list[str]:
    """Segment files in a data directory, oldest first."""
    log_dir = os.path.join(data_dir, "log")
    try:
        names = sorted(n for n in os.listdir(log_dir) if _SEG_RE.match(n))
    except OSError:
        return []
    return [os.path.join(log_dir, n) for n in names]


def load_data_dir(data_dir: str,
                  report: ReadReport | None = None) -> "RecoveredState":
    """Read-only salvage of one store namespace (no writer is opened):
    the one pass over its records.

    ``NodeStore`` opens on it, and through :func:`load_node_dir` so do
    the offline tools, which must never mutate the directory they
    inspect.  Salvage is counted in ``report``.
    """
    out = RecoveredState(report=report or ReadReport())
    snap = load_latest_snapshot(data_dir, out.report)
    if snap is not None:
        out.snapshot_seq = snap[0]
        out.snapshot = upgrade_snapshot(snap[1])
        out.dlq_high = out.snapshot.get("dlq_event_seq", 0)
    dlq_floor = out.dlq_high
    events: dict[int, dict] = {}
    for path in segment_paths(data_dir):
        max_seq = -1
        for rec in scan_segment(path, out.report):
            if not isinstance(rec, dict):
                continue
            if rec.get("rec") == "op":
                out.ops[rec["seq"]] = rec["op"]
                max_seq = max(max_seq, rec["seq"])
            elif rec.get("rec") == "dlq":
                out.dlq_high = max(out.dlq_high, rec["n"])
                if rec["n"] > dlq_floor:
                    events[rec["n"]] = rec
        out.segments.append((path, max_seq))
        out.next_segment = int(_SEG_RE.match(os.path.basename(path))[1]) + 1
    out.dlq_events = [events[n] for n in sorted(events)]
    return out


def claim_incarnation(data_dir: str) -> int:
    """This start's number on ``data_dir`` (0 for the first).  The count
    is installed atomically before it is returned, so no later start on
    the directory is handed the same number."""
    path = Path(data_dir, "incarnation")
    number = int(path.read_text()) if path.exists() else 0
    os.makedirs(data_dir, exist_ok=True)
    install(str(path), b"%d\n" % (number + 1))
    return number


def load_node_dir(data_dir: str) -> "tuple[RecoveredState, dict[int, dict]]":
    """Read-only: a node's data directory in the layout
    ``NodeRuntime._recover`` writes — the top-level store plus every
    shard's op log — as ``(recovered, shard_ops)``, the arguments of
    ``restore_node``.  ``recovered.report`` counts salvage in all of them.
    """
    recovered = load_data_dir(data_dir)
    return recovered, {
        shard: (recovered if path == data_dir
                else load_data_dir(path, recovered.report)).ops
        for shard, path in shard_dirs(data_dir).items()}


@dataclass
class RecoveredState:
    """Everything one pass over a store namespace salvages from disk."""

    snapshot_seq: int = -1            # ops the snapshot had applied, -1 if none
    snapshot: dict | None = None
    ops: dict[int, Any] = field(default_factory=dict)     # seq -> VisibilityOp
    dlq_events: list[dict] = field(default_factory=list)  # journal suffix, by n
    report: ReadReport = field(default_factory=ReadReport)
    #: What a writer reopening the namespace continues from: each
    #: segment's (path, highest op seq or -1), the highest dead-letter
    #: event number on disk, and the next segment's index.
    segments: list[tuple[str, int]] = field(default_factory=list)
    dlq_high: int = 0
    next_segment: int = 1

    @property
    def empty(self) -> bool:
        return self.snapshot is None and not self.ops and not self.dlq_events


class NodeStore:
    """Append-only durable store for one node's data directory."""

    def __init__(self, data_dir: str, *, fsync: str = "commit",
                 segment_bytes: int = DEFAULT_SEGMENT_BYTES,
                 batch_interval: float = 0.05):
        self.data_dir = data_dir
        self.log_dir = os.path.join(data_dir, "log")
        os.makedirs(self.log_dir, exist_ok=True)
        self.fsync = fsync
        self.segment_bytes = segment_bytes
        self.batch_interval = batch_interval
        #: fsync="batch": flushed-but-unsynced bytes exist / the host's
        #: timer to sync them is armed.
        self._unsynced = False
        self._sync_armed = False
        #: The outbox: effects waiting for the records staged before
        #: them; ``commit`` releases them in append order.
        self._effects: deque = deque()
        #: What the directory held when this store opened — read once;
        #: a node's recovery starts from it.
        self.recovered = recovered = load_data_dir(data_dir)
        # DLQ journal bookkeeping: monotone event counter, plus the set
        # of envelope ids currently persisted as captured.  resolve/
        # expire records are written only for ids in this set —
        # note_delivered fires on *every* mailbox landing, and without
        # the guard ordinary traffic would write-amplify the journal.
        self._dlq_seq = recovered.dlq_high
        self._dlq_pending: set[int] = set()
        # metrics
        self.ops_appended = 0
        self.dlq_appended = 0
        self.commits = 0
        self.bytes_written = 0
        self.snapshots_written = 0
        self.segments_truncated = 0
        self._closed_fsyncs = 0  # fsyncs paid by segments since rotated out
        #: (path, max_op_seq) of every segment before the live one.
        self._closed_segments = list(recovered.segments)
        #: shard -> cursor in the older of the two snapshots the next
        #: ``write_snapshot`` will retain: the newest one on disk, so far.
        self._retained_applied: dict[int, int] | None = \
            (recovered.snapshot or {}).get("applied")
        self._writer: SegmentWriter | None = None
        self._live_max_op_seq = -1
        self._open_segment(next_index=recovered.next_segment)

    # -- segment lifecycle ---------------------------------------------------

    def _segment_path(self, index: int) -> str:
        return os.path.join(self.log_dir, f"seg-{index:08d}.log")

    def _open_segment(self, next_index: int) -> None:
        self._writer = SegmentWriter(self._segment_path(next_index),
                                     fsync=self.fsync)
        self._next_segment_index = next_index + 1
        self._live_max_op_seq = -1
        self._unsynced = False  # the closed segment was synced on close
        fsync_dir(self.log_dir)

    def _rotate(self) -> None:
        writer = self._writer
        writer.close()
        self._closed_fsyncs += writer.fsyncs
        self._closed_segments.append((writer.path, self._live_max_op_seq))
        self._open_segment(self._next_segment_index)

    # -- write path ----------------------------------------------------------

    def append_op(self, seq: int, op: Any, then=None) -> None:
        """Stage one sequenced op; ``then`` runs once it is durable."""
        self._writer.append({"rec": "op", "seq": seq, "op": op})
        self._live_max_op_seq = max(self._live_max_op_seq, seq)
        self.ops_appended += 1
        if then is not None:
            self.defer(then)

    def defer(self, then) -> None:
        """Run ``then`` at the next commit, behind everything staged so far."""
        self._effects.append(then)

    @property
    def dirty(self) -> bool:
        """Is anything staged (records or effects) awaiting ``commit``?"""
        return bool(self._writer.pending or self._effects)

    def _append_dlq(self, record: dict) -> None:
        self._dlq_seq += 1
        record["rec"] = "dlq"
        record["n"] = self._dlq_seq
        self._writer.append(record)
        self.dlq_appended += 1

    def append_dlq_capture(self, envelope: Any, dst: int, reason: str,
                           attempts: int, queued_at: float) -> None:
        """Journal a (re-)capture.  A capture of an id already pending is
        recorded as a ``retry`` — an update to the existing letter, not a
        new one — so recovery's queued_total accounting stays honest."""
        retry = envelope.envelope_id in self._dlq_pending
        self._append_dlq({
            "kind": "retry" if retry else "capture",
            "envelope": envelope, "dst": dst, "reason": reason,
            "attempts": attempts, "queued_at": queued_at,
        })
        self._dlq_pending.add(envelope.envelope_id)

    def append_dlq_resolve(self, envelope_id: int) -> bool:
        """Journal a delivery for a persisted letter; False if unknown."""
        if envelope_id not in self._dlq_pending:
            return False
        self._dlq_pending.discard(envelope_id)
        self._append_dlq({"kind": "resolve", "id": envelope_id})
        return True

    def append_dlq_expire(self, envelope_id: int, reason: str,
                          attempts: int) -> bool:
        if envelope_id not in self._dlq_pending:
            return False
        self._dlq_pending.discard(envelope_id)
        self._append_dlq({"kind": "expire", "id": envelope_id,
                          "reason": reason, "attempts": attempts})
        return True

    def adopt_pending(self, envelope_ids) -> None:
        """Seed the pending-letter guard after recovery re-adoption."""
        self._dlq_pending.update(envelope_ids)

    def commit(self) -> int:
        """The commit point: make everything staged durable, then act on it.

        One ``write()`` and (per the fsync policy) one ``fsync()`` cover
        every append since the last commit; only then do the effects
        staged with them run, in append order.  What an effect stages —
        and the rest of the queue, if one raises — waits for the next.
        """
        writer = self._writer
        before = writer.size
        try:
            n = writer.commit()
        except OSError:
            self._effects.clear()  # never act on what did not reach disk
            raise
        self.bytes_written += writer.size - before
        if n:
            self.commits += 1
            self._unsynced = self.fsync == "batch"
        if writer.size >= self.segment_bytes:
            self._rotate()
        effects = self._effects
        for _ in range(len(effects)):
            effects.popleft()()
        return n

    def arm_sync(self, events, now: float) -> None:
        """``fsync="batch"``: the host's timer syncs what commits flushed.

        Called by the host after its commit point.  The first unsynced
        commit arms one timer ``batch_interval`` ahead: at most one sync
        per interval, and no commit unsynced for longer than one — also
        when traffic stops right after it.
        """
        if self._unsynced and not self._sync_armed:
            self._sync_armed = True
            events.schedule(now + self.batch_interval, self._sync_timer)

    def _sync_timer(self) -> None:
        self._sync_armed = False
        if self._unsynced:  # a rotation in between already synced it
            self._writer.sync()
            self._unsynced = False

    # -- snapshots + truncation ----------------------------------------------

    def write_snapshot(self, state: dict,
                       shard_stores: "dict[int, NodeStore]") -> str:
        """Install a snapshot and truncate the shard logs it supersedes.

        ``state`` carries the per-shard cursors (``state["applied"]``);
        ``shard_stores`` maps shard -> the store holding that shard's op
        log (this one, for the one-shard layout).  Each is truncated
        below the *older retained* snapshot's cursor for its shard — not
        this one's.  We keep two snapshots so that recovery can fall
        back past a corrupt newest one, and that fallback needs the log
        suffix between the two snapshots to still exist on every shard.
        """
        applied = state["applied"]
        state = dict(state)
        state["dlq_event_seq"] = self._dlq_seq
        # The filename epoch orders snapshots: total ops applied.
        path = write_snapshot(self.data_dir, sum(applied.values()), state)
        self.snapshots_written += 1
        prune_snapshots(self.data_dir, keep=2)
        floors = self._retained_applied or applied
        self._retained_applied = applied
        for shard, store in shard_stores.items():
            store.truncate_below(floors.get(shard, 0))
        return path

    def truncate_below(self, floor: int) -> None:
        """Rotate the live segment, then delete every closed segment
        whose highest op seq is below ``floor``.

        (A deleted segment's DLQ records are superseded too — every
        retained snapshot embeds full pending-letter state and the
        journal high-water mark.)
        """
        if self._writer.pending or self._writer.size:
            self._rotate()
        survivors = []
        for seg_path, max_op_seq in self._closed_segments:
            if max_op_seq < floor:
                try:
                    os.remove(seg_path)
                    self.segments_truncated += 1
                except OSError:
                    survivors.append((seg_path, max_op_seq))
            else:
                survivors.append((seg_path, max_op_seq))
        self._closed_segments = survivors
        fsync_dir(self.log_dir)

    # -- misc ----------------------------------------------------------------

    def metrics_snapshot(self) -> dict:
        writer = self._writer
        return {
            "ops_appended": self.ops_appended,
            "dlq_appended": self.dlq_appended,
            "commits": self.commits,
            "fsyncs": self._closed_fsyncs + (writer.fsyncs if writer else 0),
            "bytes_written": self.bytes_written,
            "snapshots_written": self.snapshots_written,
            "segments_truncated": self.segments_truncated,
            "segments": len(self._closed_segments) + 1,
            "dlq_pending": len(self._dlq_pending),
            "fsync_policy": self.fsync,
        }

    @property
    def latest_snapshot_seq(self) -> int:
        snaps = list_snapshots(self.data_dir)
        return snaps[-1][0] if snaps else -1

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
