"""Happens-before merge of per-shard persisted logs.

A node persists each shard's sequenced ops into its own store namespace
(``<data-dir>/shard-K``; ``<data-dir>`` itself on a one-shard plane).
With several shards there is no global sequence number — that was the
point — so offline tools (``repro replay``, log audits, the rebalance
drill's books) need a deterministic linear extension of the per-shard
partial orders.

The merge key is the **tick**: a node-local monotonic counter stamped
by the sequencing node at the moment an op receives its per-shard
sequence number, persisted alongside the op record.  Within one shard,
ticks are strictly increasing with ``seq`` (stamped under the same
counter), so sorting all shards' records by ``(tick, shard, seq)``:

* preserves every shard's internal total order (happens-before within
  a space), and
* interleaves shards in the order the sequencing side actually
  committed them — a valid linear extension of the cross-shard
  happens-before relation observed at that node, not an arbitrary one.

Records of a one-shard plane carry no tick (there is nothing to merge);
they fall back to ``tick == seq``, which is exact for a single shard.
"""

from __future__ import annotations

import os
import re
from typing import Any

_SHARD_DIR_RE = re.compile(r"^shard-(\d+)$")


def shard_dirs(data_dir: str) -> dict[int, str]:
    """Map shard id -> store namespace under ``data_dir``.

    A directory with no ``shard-K`` children is an unsharded (or
    single-shard) store and maps entirely to shard 0.
    """
    found: dict[int, str] = {}
    try:
        names = os.listdir(data_dir)
    except OSError:
        names = []
    for name in names:
        m = _SHARD_DIR_RE.match(name)
        if m:
            found[int(m.group(1))] = os.path.join(data_dir, name)
    return found or {0: data_dir}


def shard_dir(data_dir: str, n_shards: int, shard: int) -> str:
    """Shard ``shard``'s store namespace — the inverse of :func:`shard_dirs`.

    A one-shard plane keeps its single log in ``data_dir`` itself, so it
    writes the files an unsharded node always wrote and old data
    directories still load.
    """
    if n_shards == 1:
        return data_dir
    return os.path.join(data_dir, f"shard-{shard}")


def read_shard_records(shard_dir: str) -> list[tuple[int, int, Any]]:
    """``(seq, tick, op)`` records from one shard namespace, seq order."""
    from repro.store.node_store import segment_paths
    from repro.store.segment import ReadReport, scan_segment

    by_seq: dict[int, tuple[int, Any]] = {}
    for path in segment_paths(shard_dir):
        for rec in scan_segment(path, ReadReport()):
            if isinstance(rec, dict) and rec.get("rec") == "op":
                by_seq[rec["seq"]] = (rec.get("tick", rec["seq"]), rec["op"])
    return [(seq, tick, op) for seq, (tick, op) in sorted(by_seq.items())]


def merge_shard_logs(data_dir: str) -> list[tuple[int, int, int, Any]]:
    """Merge every shard namespace under ``data_dir`` into one order.

    Returns ``[(shard, seq, tick, op), ...]`` sorted by
    ``(tick, shard, seq)`` — a deterministic linear extension of the
    per-shard orders (see module docstring).
    """
    merged: list[tuple[int, int, int, Any]] = []
    for shard, shard_dir in sorted(shard_dirs(data_dir).items()):
        for seq, tick, op in read_shard_records(shard_dir):
            merged.append((shard, seq, tick, op))
    merged.sort(key=lambda r: (r[2], r[0], r[1]))
    return merged
