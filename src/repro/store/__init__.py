"""Durable storage: the event-sourced bus log, snapshots, and recovery.

This package is the README of the durability layer.  It persists the two
pieces of node state the paper's open-system stance (§2, §7) needs to
survive a full restart: the **sequenced visibility log** (the total order
every replica applied, §7.3) and the **dead-letter queue** (envelopes
parked for redelivery).  Directories themselves are *derived* state —
they are rebuilt by replaying the log — so what goes to disk is the
event-sourcing classic: an append-only log plus periodic snapshots.

Layout of a node's data directory::

    <data-dir>/
        log/
            seg-00000001.log      append-only record segments
            seg-00000002.log
            ...
        snapshot-000000000000000042.snap    state after 42 applied ops
        snapshot-*.snap.tmp                 in-progress writes (ignored)
        incarnation               how many times a node started on it
        shard-K/log/seg-*.log     shard K's op log (plane of several shards)

A node's visibility plane is a shard map of ``n >= 1`` streams.  The
top-level directory holds the snapshots and the dead-letter journal;
shard K's op log lives in ``repro.shard.merge.shard_dir`` — ``shard-K``
below it, or the top-level ``log/`` itself on a one-shard plane, which
therefore writes exactly the files an unsharded node always wrote.

Record format (``segment.py``)
------------------------------
Every record is ``u32 length | u32 crc32 | payload`` where ``payload``
is one value in the deterministic closed-world wire encoding of
:mod:`repro.net.codec` — the same bytes that cross sockets are the bytes
that hit disk, so everything the cluster can say is persistable and
nothing else is (no pickle, ever).  The CRC covers the payload; a record
either decodes completely and passes its checksum, or it is not a record.
Readers salvage the longest valid prefix of each segment, report honest
``records_dropped`` / ``bytes_dropped`` counts for what they could not
trust, and never raise on corrupt input (:func:`segment.scan_segments`).

Durability contract (group commit at the host's commit point)
-------------------------------------------------------------
Appends buffer in memory, each with the effect that must wait for it:
``append_op(seq, op, then=effect)``.  :meth:`NodeStore.commit` writes
everything staged with one ``write()`` and — under the default
``fsync="commit"`` policy — one ``fsync()``, then runs the effects in
append order.  The write path is a transactional outbox: a sequenced
op's fan-out and its local delivery *are* such effects, so any state a
crash can lose is state no replica, local or remote, ever saw.

The commit point belongs to the **host's loop turn**, not to the op, and
nothing below the host decides when to sync.  A TCP node
(``net/runtime.py::_commit_turn``) commits every store it touched at
the end of each inbound read batch and each burst of due events: a turn
that sequenced one op pays one fsync, a turn that sequenced twenty pays
one.  Durability is therefore *per turn*; the only linger is a constant
number of loop turns (``net/runtime.py::COMMIT_LINGER_TURNS``).  A
simulated node's stores sit on its sequencer cores, as a node process's
do, and each core's turn — one event, or one liveness change — ends with
its store's commit (``runtime/bus.py::SequencerBus._end_turn``).  The
dead-letter queue only stages; its records ride the turn's commit.

* ``fsync="commit"`` — every commit is fsynced.  A record returned by
  recovery was durable at the moment its commit call returned; this is
  the policy ``repro serve --data-dir`` runs with.
* ``fsync="batch"``  — commits ``flush()`` to the OS; one timer on the
  host's event queue (``NodeStore.arm_sync``) fsyncs at most once per
  ``batch_interval`` seconds, and no commit stays unsynced for longer
  than one interval — also when traffic stops right after it.  Survives
  process crashes, may lose the last interval on power loss.  For
  benchmarks and drills.
* ``fsync="never"``  — flush only.  Measurement baseline.

Snapshots (``snapshot.py``) are epoch-stamped by the number of ops
applied (summed over the shards; the state inside carries each shard's
cursor), written to a temporary file, fsynced, then atomically
``rename()``d into place (the directory entry is fsynced too), so a
crash mid-snapshot leaves the previous snapshot intact.  After a
successful snapshot each shard's store rotates its segment and deletes
closed segments whose ops are entirely below the older retained
snapshot's cursor for that shard — log truncation without ever touching
the live tail.

Recovery (``recovery.py``) is one path for every plane: *snapshot + log
suffix replay*.  A store reads its namespace once, when it opens
(``NodeStore.recovered``).  Restore the directory/managers/capabilities/
DLQ from the snapshot, then re-drive each shard's persisted ops at or
past that shard's snapshot cursor through the coordinator's ordinary
hold-back application path.  The address-factory serial is resynced
from persisted state, and each stream's ``SequencerCore.restore_log``
floors its origin numbering, so a restarted node continues minting where
its previous incarnation stopped instead of ghost re-registering
colliding addresses; envelope, message and op ids come from a block
numbered by the ``incarnation`` count.

On top of the same bytes, ``replay.py`` implements ``python -m repro
replay`` — an offline deterministic time-travel debugger (``--until``,
``--diff``, Chrome-trace export) whose canonical state export is
byte-identical across runs, and ``--check`` holds the log to the §5
reference model (``check/logcheck.py``).  Neither has an apply path of
its own: ``node_store.load_node_dir`` reads every namespace of a data
directory read-only, and an offline coordinator rebuilds state through
recovery's ``restore_snapshot`` + ``apply_suffix``.

What is *not* persisted: actor behaviors and mailboxes (code and
in-flight conversation die with the process — the paper's actors are
not durable objects), parked pattern messages, and quarantine masks
(the failure detector re-derives them).
"""

from __future__ import annotations

from .node_store import NodeStore, RecoveredState
from .recovery import restore_node, snapshot_state
from .segment import ReadReport, SegmentWriter, scan_segments
from .snapshot import load_latest_snapshot, write_snapshot

__all__ = [
    "NodeStore",
    "RecoveredState",
    "ReadReport",
    "SegmentWriter",
    "scan_segments",
    "load_latest_snapshot",
    "write_snapshot",
    "restore_node",
    "snapshot_state",
]
