"""Node recovery: snapshot + log suffix replay onto a live runtime.

``snapshot_state`` projects a node's applied state into a plain
codec-encodable dict; ``restore_node`` is its inverse plus a replay of
every shard's persisted ops at or past that shard's snapshot cursor
through the coordinator's apply path — the same code that applied them
the first time, so replica determinism carries over to recovery for
free.  There is one such path for every plane (a one-shard plane is the
case of one cursor), and the offline tools (``repro replay``, the log
check) rebuild state through it too: ``restore_snapshot`` +
``apply_suffix`` on an offline coordinator.

The directory rebuild uses :meth:`Directory.restore_entry`, which skips
capability and cycle checks — both were validated when each op
originally applied, and the presented capabilities are deliberately not
persisted.  Bindings (the keys needed to validate *future* ops) are
restored afterwards via ``bind_capability``.

What recovery resyncs besides the directory:

* ``coordinator._shard_cursors`` — so each shard's suffix replay starts
  exactly at the snapshot boundary and earlier ops are ignored as
  duplicates;
* ``addresses._next_serial`` — so fresh actors/spaces cannot collide
  with persisted addresses;
* the dead-letter queue — pending letters re-adopted with their attempt
  counts and lifetime counters restored;
* each stream's sequencer core, when the caller hands them over: its
  log, dedup watermarks and origin numbering (``restore_log``), so the
  node neither re-sequences nor re-numbers what it already did.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..core.actorspace import SpaceRecord
from ..core.manager import default_manager

if TYPE_CHECKING:  # pragma: no cover
    from .node_store import RecoveredState

#: Version stamp for the snapshot state shape below.  v2 carries the
#: plane: each space's home ``shard``, a per-shard ``applied`` map (and,
#: from the wire bus, per-shard ``expected`` and ``origin``), and the ops
#: ``waiting`` for their space.  v1 described one stream with scalar
#: cursors.
SNAPSHOT_VERSION = 2


def upgrade_snapshot(state: dict) -> dict:
    """A snapshot state in the current shape; v1's one stream is shard 0."""
    if state.get("version", 1) >= 2:
        return state
    return {
        **state,
        "applied": {0: state.get("applied_seq", 0)},
        "origin": {0: state.get("origin_seq", 0)},
        "expected": {0: state.get("expected", {})},
    }


def snapshot_state(node_id: int, coordinator: Any, dead_letters: Any,
                   cores: dict | None = None) -> dict:
    """Project applied node state into a codec-encodable snapshot dict.

    ``cores`` (shard -> the node's ``SequencerCore``) adds each stream's
    dedup watermarks (``expected``) and origin counter (``origin``), which
    count submissions still unacked.  Quarantine overlays and
    parked pattern messages are transient and deliberately excluded —
    but visibility ops parked for their space's ``ADD_SPACE`` are state:
    their shard's cursor is already past them, so no log suffix would
    bring them back.
    """
    directory = coordinator.directory
    spaces = []
    entries = []
    for rec in directory.spaces():
        spaces.append({
            "address": rec.address,
            "capability": rec.capability,
            "node": rec.node,
            "created_at": rec.created_at,
            "shard": rec.shard,
        })
        for entry in rec.entries():
            entries.append({
                "space": rec.address,
                "target": entry.target,
                "attributes": sorted(entry.attributes, key=str),
                "registered_at": entry.registered_at,
            })
    caps = [
        {"target": target, "capability": cap}
        for target, cap in directory.capability_bindings()
    ]
    letters = []
    for dst_node, queue in dead_letters.queues().items():
        for letter in queue:
            letters.append({
                "envelope": letter.envelope,
                "dst": letter.dst_node,
                "reason": letter.reason,
                "queued_at": letter.queued_at,
                "attempts": letter.attempts,
            })
    state = {
        "version": SNAPSHOT_VERSION,
        "node": node_id,
        "applied": dict(enumerate(coordinator._shard_cursors)),
        "waiting": [op for ops in coordinator._space_waiting.values()
                    for op in ops],
        "addr_serial": coordinator.addresses._next_serial,
        "spaces": spaces,
        "entries": entries,
        "caps": caps,
        "dlq": letters,
        "dlq_counters": {
            "queued_total": dead_letters.queued_total,
            "redelivered_total": dead_letters.redelivered_total,
            "expired_total": dead_letters.expired_total,
        },
    }
    if cores:
        state["expected"] = {k: dict(c.expected) for k, c in cores.items()}
        state["origin"] = {k: c.next_origin for k, c in cores.items()}
    return state


def _restore_directory(coordinator: Any, state: dict) -> None:
    directory = coordinator.directory
    for s in state.get("spaces", ()):
        record = SpaceRecord(s["address"], s.get("capability"),
                             s.get("node", 0), created_at=s.get("created_at", 0.0),
                             shard=s.get("shard", 0))
        try:
            directory.add_space(record)
        except ValueError:
            record = directory.space(s["address"])  # pre-bootstrapped root
        coordinator.managers.setdefault(s["address"], default_manager())
    for e in state.get("entries", ()):
        directory.restore_entry(
            e["target"], e["attributes"], e["space"],
            now=e.get("registered_at", 0.0),
        )
    for c in state.get("caps", ()):
        directory.bind_capability(c["target"], c.get("capability"))


def _restore_dead_letters(dead_letters: Any, store: Any, state: dict,
                          dlq_events: list[dict]) -> int:
    """Re-adopt snapshot letters, fold in the journal suffix; returns
    the number of letters pending after restoration."""
    counters = dict(state.get("dlq_counters", {}))
    pending: dict[int, dict] = {}
    for letter in state.get("dlq", ()):
        pending[letter["envelope"].envelope_id] = dict(letter)
    for event in dlq_events:
        kind = event.get("kind")
        if kind in ("capture", "retry"):
            pending[event["envelope"].envelope_id] = event
            if kind == "capture":
                counters["queued_total"] = counters.get("queued_total", 0) + 1
        elif kind == "resolve":
            if pending.pop(event["id"], None) is not None:
                counters["redelivered_total"] = (
                    counters.get("redelivered_total", 0) + 1)
        elif kind == "expire":
            if pending.pop(event["id"], None) is not None:
                counters["expired_total"] = counters.get("expired_total", 0) + 1
    for letter in pending.values():
        dead_letters.adopt(
            letter["envelope"], letter["dst"], letter["reason"],
            queued_at=letter.get("queued_at", 0.0),
            attempts=letter.get("attempts", 0),
        )
    dead_letters.queued_total = counters.get("queued_total", 0)
    dead_letters.redelivered_total = counters.get("redelivered_total", 0)
    dead_letters.expired_total = counters.get("expired_total", 0)
    if store is not None:
        store.adopt_pending(pending.keys())
    return len(pending)


def restore_snapshot(coordinator: Any, state: dict | None) -> None:
    """Put a coordinator where ``state`` (a snapshot, or None) left it."""
    if state is None:
        return
    _restore_directory(coordinator, state)
    cursors = coordinator._shard_cursors
    for shard, cursor in state["applied"].items():
        cursors[shard] = cursor
    coordinator.addresses._next_serial = max(
        coordinator.addresses._next_serial, state.get("addr_serial", 0))
    for op in state.get("waiting", ()):
        coordinator._apply_op(op)  # re-parks unless its space came since


def apply_suffix(coordinator: Any, shard_ops: "dict[int, dict[int, Any]]"):
    """Apply every shard's persisted ops past its cursor, in the order
    they were sequenced, through the coordinator's apply path.

    Yields ``(shard, seq, op, error)`` per op, ``error`` being the
    rejection ``_apply_op`` caught (None if the op applied, or parked for
    its space).  The simulator stamps a sequencing tick when it runs
    several streams, and ticks merge them in the order they were
    sequenced — a linear extension of every shard's order.  No TCP path
    stamps one, so wire logs interleave by ``(seq, shard)`` and rely on
    the coordinator's dependency parking for an actor op that lands
    before its space's ADD.  A shard stops at its first sequence gap
    (only possible after corruption salvage) rather than applying out of
    order.
    """
    cursors = coordinator._shard_cursors
    for _tick, shard, seq, op in sorted(
            (op.tick if op.tick is not None else seq, shard, seq, op)
            for shard, ops in shard_ops.items()
            for seq, op in ops.items() if seq >= cursors[shard]):
        if seq == cursors[shard]:
            cursors[shard] = seq + 1
            yield shard, seq, op, coordinator._apply_op(op)


def restore_node(node_id: int, coordinator: Any, dead_letters: Any,
                 recovered: "RecoveredState", store: Any = None,
                 shard_ops: "dict[int, dict[int, Any]] | None" = None,
                 cores: dict | None = None) -> dict:
    """Rebuild a node from its top-level store and its shards' logs.

    ``recovered`` is what the top-level store holds (snapshot,
    dead-letter journal, and — the one-shard layout — shard 0's ops);
    ``shard_ops`` maps shard -> ``{seq: op}`` when the shards' logs live
    in namespaces of their own.  ``cores`` (shard -> ``SequencerCore``)
    are rebuilt from their shard's ops and the snapshot's watermarks and
    origin counters — every one, a shard whose log could not be read
    too.  Returns a summary dict (snapshot seq, ops replayed, letters
    re-adopted) for logs and control-plane status.  The caller writes a
    fresh snapshot afterwards.
    """
    if shard_ops is None:
        shard_ops = {0: recovered.ops}
    restore_snapshot(coordinator, recovered.snapshot)
    letters_pending = _restore_dead_letters(
        dead_letters, store, recovered.snapshot or {}, recovered.dlq_events)
    replayed = sum(1 for _ in apply_suffix(coordinator, shard_ops))
    # Resync the address serials this node minted from every persisted
    # op, past a gap too (ADD_SPACE addresses, MAKE_VISIBLE targets), so
    # a snapshot-less recovery still resyncs the factory.
    serial = coordinator.addresses._next_serial
    for ops in shard_ops.values():
        for op in ops.values():
            for value in op.args.values():
                if getattr(value, "node", None) == node_id \
                        and getattr(value, "serial", None) is not None:
                    serial = max(serial, value.serial + 1)
    coordinator.addresses._next_serial = serial
    state = recovered.snapshot or {}
    expected, origin = state.get("expected", {}), state.get("origin", {})
    for k, core in (cores or {}).items():
        core.restore_log(shard_ops.get(k, {}), expected.get(k, {}),
                         origin.get(k, 0))
    return {
        "snapshot_seq": recovered.snapshot_seq,
        "applied": dict(enumerate(coordinator._shard_cursors)),
        "ops_replayed": replayed,
        "dlq_recovered": letters_pending,
        "records_dropped": recovered.report.records_dropped,
        "corrupt_segments": len(recovered.report.corrupt_segments),
    }
