"""``python -m repro replay`` — deterministic time travel over a persisted log.

The replayer re-drives a data directory's snapshot + op suffix through
the same per-kind application logic the live coordinator uses, but with
all nondeterminism removed: virtual "now" is the op's sequence number,
there is no scheduler, no RNG, no wall clock.  Replaying the same bytes
therefore always lands on the same state — the determinism test asserts
the canonical export is byte-identical across runs — which is what makes
the log a *repro artifact*: any state a cluster reached can be rebuilt,
inspected at any ``--until`` point, and diffed between two points.

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

from ..core.actorspace import SpaceRecord
from ..core.errors import ActorSpaceError
from ..core.manager import default_manager
from ..core.visibility import Directory
from ..net.codec import encode_value
from ..runtime.bus import OpKind, VisibilityOp
from ..runtime.eventlog import EventLog, export_chrome_trace
from .node_store import RecoveredState, load_data_dir
from .recovery import _restore_directory


class LogReplayer:
    """Applies persisted visibility ops to a standalone directory replica.

    Mirrors ``Coordinator._apply_op`` per-kind semantics exactly, minus
    everything tied to a live system (tracer, parked messages, origin
    callbacks).  ``created_at``/``now`` timestamps are the op's sequence
    number, so replay output is a pure function of the log bytes.
    """

    def __init__(self) -> None:
        self.directory = Directory()
        self.managers: dict[Any, Any] = {}
        self.applied_seqs: list[int] = []
        self.rejected: list[tuple[int, str]] = []
        self.next_seq = 0
        # The bootstrap root space is seeded directly into every replica
        # at system construction — it never crosses the bus, so a replay
        # from genesis must mint it the same way (snapshot restores
        # tolerate the duplicate).
        from ..core.addresses import SpaceAddress

        root = SpaceAddress(0, 0)
        self.directory.add_space(SpaceRecord(root, None, 0, created_at=0.0))
        self.managers[root] = default_manager()

    def restore(self, state: dict) -> None:
        """Start from a snapshot instead of an empty world."""
        _restore_directory(self, state)
        self.next_seq = state["applied"].get(0, 0)

    def apply(self, seq: int, op: VisibilityOp) -> tuple[bool, str | None]:
        """Apply one op; returns (applied, rejection reason)."""
        self.next_seq = seq + 1
        now = float(seq)
        try:
            kind, a = op.kind, op.args
            if kind is OpKind.ADD_SPACE:
                record = SpaceRecord(
                    a["address"], a.get("capability"),
                    a.get("node", op.origin_node), created_at=now,
                )
                self.directory.add_space(record)
                self.managers[a["address"]] = a.get(
                    "manager_factory", default_manager)()
            elif kind is OpKind.DESTROY_SPACE:
                self.directory.destroy_space(a["address"])
                self.managers.pop(a["address"], None)
            elif kind is OpKind.MAKE_VISIBLE:
                manager = self.managers.get(a["space"]) or default_manager()
                self.directory.make_visible(
                    a["target"], a["attributes"], a["space"],
                    a.get("capability"), now=now,
                    check_cycles=manager.check_cycles,
                )
            elif kind is OpKind.MAKE_INVISIBLE:
                self.directory.make_invisible(
                    a["target"], a["space"], a.get("capability"))
            elif kind is OpKind.CHANGE_ATTRIBUTES:
                self.directory.change_attributes(
                    a["target"], a["attributes"], a["space"],
                    a.get("capability"), now=now,
                )
            elif kind is OpKind.BIND_CAPABILITY:
                self.directory.bind_capability(a["target"], a.get("capability"))
            elif kind is OpKind.PURGE:
                self.directory.purge_target(a["target"])
            else:
                raise AssertionError(f"unknown op kind {kind}")
        except ActorSpaceError as exc:
            self.rejected.append((seq, type(exc).__name__))
            return False, type(exc).__name__
        self.applied_seqs.append(seq)
        return True, None


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


def replay_recovered(recovered: RecoveredState, until: int | None = None,
                     event_log: EventLog | None = None,
                     ) -> tuple[LogReplayer, dict]:
    """Drive a :class:`RecoveredState` through a fresh replayer.

    Ops are applied strictly contiguously from the snapshot boundary; a
    sequence gap (only possible after corruption salvage) stops the
    replay honestly rather than applying out of order.
    """
    replayer = LogReplayer()
    if recovered.snapshot is not None:
        replayer.restore(recovered.snapshot)
    start = replayer.next_seq
    stopped_at_gap = None
    expected = start
    for seq in sorted(s for s in recovered.ops if s >= start):
        if until is not None and seq > until:
            break
        if seq != expected:
            stopped_at_gap = (expected, seq)
            break
        op = recovered.ops[seq]
        applied, reason = replayer.apply(seq, op)
        expected = seq + 1
        if event_log is not None:
            event_log.emit(
                "replay_apply" if applied else "replay_reject",
                float(seq), op.origin_node,
                op_seq=seq, op_kind=op.kind.value,
                origin_seq=op.origin_seq,
                **({"reason": reason} if reason else {}),
            )
    summary = {
        "snapshot_seq": recovered.snapshot_seq,
        "start_seq": start,
        "last_seq": expected - 1,
        "ops_applied": len(replayer.applied_seqs),
        "ops_rejected": len(replayer.rejected),
        "records_dropped": recovered.report.records_dropped,
        "corrupt_segments": list(recovered.report.corrupt_segments),
        "gap": list(stopped_at_gap) if stopped_at_gap else None,
        "digest": state_digest(replayer.directory),
    }
    return replayer, summary


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
        description="Deterministically re-drive a persisted node log.")
    parser.add_argument("data_dir", help="node data directory (--data-dir of serve)")
    parser.add_argument("--until", type=int, default=None, metavar="SEQ",
                        help="stop after applying op SEQ")
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

    recovered = load_data_dir(args.data_dir)
    if recovered.empty:
        print(f"replay: nothing recoverable under {args.data_dir}",
              file=sys.stderr)
        return 2

    event_log = EventLog(capacity=1 << 20, enabled=True)
    replayer, summary = replay_recovered(recovered, until=args.until,
                                         event_log=event_log)

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
        if summary["gap"]:
            print(f"replay: stopped at sequence gap (expected "
                  f"{summary['gap'][0]}, next persisted {summary['gap'][1]})")
        print(f"replay: state digest {summary['digest']}")

    if args.state_out:
        export = {"summary": summary,
                  "directory": canonical_state(replayer.directory)}
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
        rep_a, _ = replay_recovered(recovered, until=seq_a)
        rep_b, _ = replay_recovered(recovered, until=seq_b)
        lines = _diff_states(canonical_state(rep_a.directory),
                             canonical_state(rep_b.directory))
        print(f"diff @{seq_a} -> @{seq_b}: "
              f"{len(lines) or 'no'} change(s)")
        for line in lines:
            print(f"  {line}")

    if args.check:
        from ..check.logcheck import check_recovered

        problems = check_recovered(recovered, until=args.until)
        if problems:
            for problem in problems[:20]:
                print(f"check: {problem}", file=sys.stderr)
            print(f"check: FAILED with {len(problems)} problem(s)",
                  file=sys.stderr)
            return 1
        if not args.quiet:
            print("check: log conforms to the §5 reference model")
    return 0
