"""``python -m repro replay`` — deterministic time travel over a data dir.

The replayer rebuilds state the way recovery does: an offline
coordinator takes the snapshot (``restore_snapshot``), then every
shard's persisted suffix in the order recovery applies it
(``apply_suffix``), through the coordinator's own apply path.  Nothing
else runs — no scheduler, no wire, no wall clock — and each replay
event is stamped with its op's seq.  Replaying the same bytes therefore
always lands on the same state — the determinism test asserts the
canonical export is byte-identical across runs — which is what makes
the data directory a *repro artifact*: any state a node reached can be
rebuilt, inspected at any ``--until`` point, and diffed between two
points.  On a plane of several shards, SEQ cuts every shard after its
own op SEQ, and the summary's seqs are summed over the shards (as a
snapshot's epoch is).

Outputs:

* summary line + state digest (always)
* ``--state-out``  canonical directory export (deterministic JSON)
* ``--events-out`` the replay event stream as JSONL
* ``--trace-out``  Chrome trace via the flight recorder's exporter
* ``--diff A:B``   directory difference between two sequence points
* ``--check``      validate the log against the §5 reference model
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from typing import Any

from ..core.visibility import Directory
from ..net.codec import encode_value
from ..runtime.eventlog import EventLog, export_chrome_trace
from ..runtime.system import ActorSpaceSystem
from .node_store import RecoveredState, load_node_dir
from .recovery import apply_suffix, restore_snapshot


def canonical_state(directory: Directory) -> dict:
    """The directory as a sorted, JSON-able dict (deterministic)."""
    out = {}
    for addr, registry in sorted(directory.snapshot().items(), key=repr):
        out[repr(addr)] = {
            repr(target): sorted(str(p) for p in attrs)
            for target, attrs in sorted(registry.items(), key=repr)
        }
    return out


def state_digest(directory: Directory) -> str:
    """sha256 over the canonical codec encoding of the directory."""
    payload = {}
    for addr, registry in sorted(directory.snapshot().items(), key=repr):
        payload[addr] = {t: registry[t] for t in sorted(registry, key=repr)}
    return hashlib.sha256(encode_value(payload)).hexdigest()


def replay_recovered(recovered: RecoveredState,
                     shard_ops: "dict[int, dict[int, Any]] | None" = None,
                     until: int | None = None,
                     event_log: EventLog | None = None) -> tuple[Any, dict]:
    """Rebuild ``(recovered, shard_ops)`` — ``restore_node``'s arguments,
    as :func:`load_node_dir` reads them — on an offline coordinator.

    Returns ``(coordinator, summary)``.  A shard stops at its first
    sequence gap (``summary["gap"]`` lists ``[shard, expected, next]``).
    """
    if shard_ops is None:
        shard_ops = {0: recovered.ops}
    if until is not None:
        shard_ops = {k: {s: op for s, op in ops.items() if s <= until}
                     for k, ops in shard_ops.items()}
    snapshot = recovered.snapshot or {}
    coordinator = ActorSpaceSystem(shards=1 + max(
        [*shard_ops, *snapshot.get("applied", ())])).coordinators[0]
    restore_snapshot(coordinator, recovered.snapshot)
    cursors = coordinator._shard_cursors
    start, rejected = sum(cursors), 0
    for shard, seq, op, error in apply_suffix(coordinator, shard_ops):
        rejected += error is not None
        if event_log is not None:
            event_log.emit(
                "replay_apply" if error is None else "replay_reject",
                float(seq), op.origin_node, op_seq=seq, shard=shard,
                op_kind=op.kind.value, origin_seq=op.origin_seq,
                **({} if error is None else {"reason": type(error).__name__}))
    gaps = [[k, cursors[k], min(s for s in ops if s > cursors[k])]
            for k, ops in sorted(shard_ops.items())
            if cursors[k] not in ops and max(ops, default=-1) > cursors[k]]
    summary = {
        "snapshot_seq": recovered.snapshot_seq,
        "start_seq": start,
        "last_seq": sum(cursors) - 1,
        "ops_applied": sum(cursors) - start - rejected,
        "ops_rejected": rejected,
        "records_dropped": recovered.report.records_dropped,
        "corrupt_segments": list(recovered.report.corrupt_segments),
        "gap": gaps or None,
        "digest": state_digest(coordinator.directory),
    }
    return coordinator, summary


def _diff_states(a: dict, b: dict) -> list[str]:
    lines = []
    for space in sorted(set(a) | set(b)):
        ra, rb = a.get(space), b.get(space)
        if ra is None:
            lines.append(f"+ space {space} ({len(rb)} entries)")
            continue
        if rb is None:
            lines.append(f"- space {space} ({len(ra)} entries)")
            continue
        for target in sorted(set(ra) | set(rb)):
            ta, tb = ra.get(target), rb.get(target)
            if ta == tb:
                continue
            if ta is None:
                lines.append(f"+ {space} :: {target} {tb}")
            elif tb is None:
                lines.append(f"- {space} :: {target} {ta}")
            else:
                lines.append(f"~ {space} :: {target} {ta} -> {tb}")
    return lines


def replay_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro replay",
        description="Deterministically rebuild a node's state from its "
                    "data directory, the way recovery does.")
    parser.add_argument("data_dir", help="node data directory (--data-dir of serve)")
    parser.add_argument("--until", type=int, default=None, metavar="SEQ",
                        help="stop every shard after its op SEQ")
    parser.add_argument("--diff", metavar="A:B", default=None,
                        help="show directory difference between seq A and seq B")
    parser.add_argument("--state-out", metavar="FILE", default=None,
                        help="write canonical directory export (deterministic JSON)")
    parser.add_argument("--events-out", metavar="FILE", default=None,
                        help="write replay event stream as JSONL")
    parser.add_argument("--trace-out", metavar="FILE", default=None,
                        help="export a Chrome trace of the replay")
    parser.add_argument("--check", action="store_true",
                        help="validate the log against the §5 reference model")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    recovered, shard_ops = load_node_dir(args.data_dir)
    if recovered.empty and not any(shard_ops.values()):
        print(f"replay: nothing recoverable under {args.data_dir}",
              file=sys.stderr)
        return 2

    event_log = EventLog(capacity=1 << 20, enabled=True)
    coordinator, summary = replay_recovered(recovered, shard_ops, args.until,
                                            event_log)

    if not args.quiet:
        snap = (f"snapshot@{summary['snapshot_seq']}"
                if summary["snapshot_seq"] >= 0 else "no snapshot")
        suffix = (f"ops [{summary['start_seq']}, {summary['last_seq']}]"
                  if summary["last_seq"] >= summary["start_seq"]
                  else "empty op suffix")
        print(f"replay: {snap} + {suffix} -> "
              f"applied={summary['ops_applied']} "
              f"rejected={summary['ops_rejected']}")
        if summary["corrupt_segments"]:
            print(f"replay: salvage dropped {summary['records_dropped']} "
                  f"record(s) across {len(summary['corrupt_segments'])} "
                  f"corrupt segment(s)")
        for shard, expected, persisted in summary["gap"] or ():
            print(f"replay: shard {shard} stopped at sequence gap (expected "
                  f"{expected}, next persisted {persisted})")
        print(f"replay: state digest {summary['digest']}")

    if args.state_out:
        export = {"summary": summary,
                  "directory": canonical_state(coordinator.directory)}
        with open(args.state_out, "w", encoding="utf-8") as fh:
            json.dump(export, fh, sort_keys=True, indent=1)
            fh.write("\n")
    if args.events_out:
        with open(args.events_out, "w", encoding="utf-8") as fh:
            for event in event_log:
                fh.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
    if args.trace_out:
        export_chrome_trace(list(event_log), args.trace_out)
        if not args.quiet:
            print(f"replay: Chrome trace -> {args.trace_out}")

    if args.diff:
        a_text, sep, b_text = args.diff.partition(":")
        if not sep:
            print("replay: --diff wants A:B sequence numbers", file=sys.stderr)
            return 2
        try:
            seq_a, seq_b = int(a_text), int(b_text)
        except ValueError:
            print(f"replay: bad --diff spec {args.diff!r}", file=sys.stderr)
            return 2
        rep_a, _ = replay_recovered(recovered, shard_ops, seq_a)
        rep_b, _ = replay_recovered(recovered, shard_ops, seq_b)
        lines = _diff_states(canonical_state(rep_a.directory),
                             canonical_state(rep_b.directory))
        print(f"diff @{seq_a} -> @{seq_b}: "
              f"{len(lines) or 'no'} change(s)")
        for line in lines:
            print(f"  {line}")

    if args.check:
        from ..check.logcheck import check_recovered

        problems = check_recovered(recovered, shard_ops, args.until)
        if problems:
            for problem in problems[:20]:
                print(f"check: {problem}", file=sys.stderr)
            print(f"check: FAILED with {len(problems)} problem(s)",
                  file=sys.stderr)
            return 1
        if not args.quiet:
            print("check: log conforms to the §5 reference model")
    return 0
