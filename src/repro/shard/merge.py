"""Where a node's per-shard logs live on disk.

A node persists each shard's sequenced ops into its own store namespace
(``<data-dir>/shard-K``; ``<data-dir>`` itself on a one-shard plane).
:func:`shard_dir` names a shard's namespace and :func:`shard_dirs`
discovers them all, which is how ``repro.store.node_store.load_node_dir``
reads a data directory offline.  With several shards there is no global
sequence number; the order the logs are merged in is the one recovery
applies them in (``repro.store.recovery.apply_suffix``).
"""

from __future__ import annotations

import os
import re

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
