"""Epoch-stamped snapshots with atomic rename installation.

A snapshot file holds exactly one framed record (same ``length | crc |
codec payload`` frame as log segments) whose payload is the snapshot
state dict.  The filename carries the epoch: ``snapshot-<applied_seq
zero-padded to 20>.snap``, so the latest snapshot sorts last
lexicographically and its seq is readable without opening the file.

Installation is crash-safe: write to ``<name>.tmp``, fsync the file,
``os.rename`` into place (atomic on POSIX), fsync the directory.  A
crash at any point leaves either the previous snapshot or both — never
a half-written current one.  Loading walks candidates newest-first and
falls back past any that fail their CRC.
"""

from __future__ import annotations

import os
import re
from typing import Any

from .segment import ReadReport, fsync_dir, pack_record, scan_segment

_SNAP_RE = re.compile(r"^snapshot-(\d{20})\.snap$")


def snapshot_path(data_dir: str, applied_seq: int) -> str:
    return os.path.join(data_dir, f"snapshot-{applied_seq:020d}.snap")


def install(path: str, data: bytes) -> str:
    """Atomically make ``data`` the content of ``path``."""
    with open(path + ".tmp", "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.rename(path + ".tmp", path)
    fsync_dir(os.path.dirname(path))
    return path


def write_snapshot(data_dir: str, applied_seq: int, state: dict) -> str:
    """Atomically install a snapshot of ``state`` at ``applied_seq``."""
    return install(snapshot_path(data_dir, applied_seq), pack_record(state))


def list_snapshots(data_dir: str) -> list[tuple[int, str]]:
    """All installed snapshots as (applied_seq, path), oldest first."""
    out = []
    try:
        names = os.listdir(data_dir)
    except OSError:
        return []
    for name in names:
        m = _SNAP_RE.match(name)
        if m:
            out.append((int(m.group(1)), os.path.join(data_dir, name)))
    out.sort()
    return out


def load_latest_snapshot(data_dir: str,
                         report: ReadReport | None = None,
                         ) -> tuple[int, Any] | None:
    """Newest snapshot that passes its checksum, or None.

    Corrupt candidates are tallied into ``report`` and skipped — an
    older intact snapshot still recovers the node (the log suffix replay
    just gets longer).
    """
    if report is None:
        report = ReadReport()
    for applied_seq, path in reversed(list_snapshots(data_dir)):
        records = list(scan_segment(path, report))
        if len(records) == 1:
            return applied_seq, records[0]
        report.corrupt_segments.append(os.path.basename(path))
    return None


def prune_snapshots(data_dir: str, keep: int = 2) -> list[str]:
    """Delete all but the newest ``keep`` snapshots; returns removed paths."""
    removed = []
    snaps = list_snapshots(data_dir)
    for _seq, path in snaps[:-keep] if keep else snaps:
        try:
            os.remove(path)
            removed.append(path)
        except OSError:
            pass
    if removed:
        fsync_dir(data_dir)
    return removed
