"""Durable-store microbench: append/commit throughput, recovery, replay.

Four datapoints the durability work is judged by:

* **append+commit throughput** per fsync policy (``commit`` pays one
  fsync per group commit, ``never`` leaves durability to the OS) —
  ops/s and fsync counts, so the cost of the safety knob is a number,
  not a vibe.  ``batch`` is not priced here: its fsyncs come from a
  timer on the host's event queue, and a bare store has no host;
* **recovery speed** — salvaging the log back off disk (ops/s), the
  startup cost a crashed node pays;
* **replay speed** — driving the recovered log through the offline
  debugger's replayer to a final directory;
* **snapshot install** — write + rotate + truncate, the periodic cost a
  serving node pays.

Run directly (not under pytest)::

    PYTHONPATH=src python benchmarks/bench_store.py [--quick] [--out FILE]

Emits ``BENCH_store.json`` next to this file and a table on stdout.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import tempfile
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.core.addresses import ActorAddress, SpaceAddress  # noqa: E402
from repro.runtime.bus import OpKind, VisibilityOp  # noqa: E402
from repro.store import NodeStore  # noqa: E402
from repro.store.node_store import load_data_dir  # noqa: E402
from repro.store.replay import replay_recovered  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = SpaceAddress(0, 0)
GROUP = 8  # appends per commit (group-commit batch size)


def synth_op(i: int) -> VisibilityOp:
    return VisibilityOp(
        OpKind.MAKE_VISIBLE,
        {"target": ActorAddress(0, i + 1), "attributes": f"bench/worker{i}",
         "space": ROOT, "capability": None},
        origin_node=0, origin_seq=i,
    )


def bench_append(n_ops: int, fsync: str) -> dict:
    with tempfile.TemporaryDirectory(prefix=f"bench-store-{fsync}-") as tmp:
        store = NodeStore(tmp, fsync=fsync)
        ops = [synth_op(i) for i in range(n_ops)]
        t0 = time.perf_counter()
        for i, op in enumerate(ops):
            store.append_op(i, op)
            if (i + 1) % GROUP == 0:
                store.commit()
        store.commit()
        elapsed = time.perf_counter() - t0
        metrics = store.metrics_snapshot()
        store.close()
        return {
            "fsync": fsync,
            "ops": n_ops,
            "seconds": round(elapsed, 4),
            "ops_per_s": round(n_ops / elapsed, 1),
            "fsyncs": metrics["fsyncs"],
            "bytes_written": metrics["bytes_written"],
        }


def bench_recover_and_replay(n_ops: int) -> tuple[dict, dict, dict]:
    with tempfile.TemporaryDirectory(prefix="bench-store-rec-") as tmp:
        store = NodeStore(tmp, fsync="never")
        for i in range(n_ops):
            store.append_op(i, synth_op(i))
            if (i + 1) % GROUP == 0:
                store.commit()
        store.commit()

        t0 = time.perf_counter()
        recovered = load_data_dir(tmp)
        recover_s = time.perf_counter() - t0
        assert len(recovered.ops) == n_ops and recovered.report.clean

        t0 = time.perf_counter()
        replayer, summary = replay_recovered(recovered)
        replay_s = time.perf_counter() - t0
        assert summary["ops_applied"] == n_ops

        from repro.store.replay import canonical_state

        state = {"version": 2, "applied": {0: n_ops}, "origin": {0: n_ops},
                 "addr_serial": n_ops + 1, "spaces": [], "entries": [],
                 "caps": [], "dlq": [], "dlq_counters": {},
                 "directory": canonical_state(replayer.directory)}
        t0 = time.perf_counter()
        store.write_snapshot(state, {0: store})
        snapshot_s = time.perf_counter() - t0
        store.close()
        return (
            {"ops": n_ops, "seconds": round(recover_s, 4),
             "ops_per_s": round(n_ops / recover_s, 1)},
            {"ops": n_ops, "seconds": round(replay_s, 4),
             "ops_per_s": round(n_ops / replay_s, 1)},
            {"entries": n_ops, "seconds": round(snapshot_s, 4)},
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small op count (CI smoke)")
    parser.add_argument("--out", default=str(HERE / "BENCH_store.json"))
    args = parser.parse_args(argv)
    n_ops = 2_000 if args.quick else 20_000

    policies = [bench_append(n_ops, fsync) for fsync in ("commit", "never")]
    recovery, replay, snapshot = bench_recover_and_replay(n_ops)

    report = {
        "n_ops": n_ops,
        "group_commit": GROUP,
        "append": policies,
        "recovery": recovery,
        "replay": replay,
        "snapshot_install": snapshot,
    }
    out = pathlib.Path(args.out)
    out.write_text(json.dumps(report, indent=1) + "\n")

    print(f"[store] {n_ops} ops, group commit x{GROUP}")
    for row in policies:
        print(f"  append fsync={row['fsync']:<7} {row['ops_per_s']:>10.0f}"
              f" ops/s  ({row['fsyncs']} fsyncs)")
    print(f"  recover              {recovery['ops_per_s']:>10.0f} ops/s")
    print(f"  replay               {replay['ops_per_s']:>10.0f} ops/s")
    print(f"  snapshot install     {snapshot['seconds'] * 1000:>9.1f} ms")
    print(f"  -> {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
