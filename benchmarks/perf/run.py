#!/usr/bin/env python3
"""The repository's performance benchmark: one command, every metric.

Two ways to call it.

**One pass of one workload** — what ``BENCHMARK.json`` registers::

    python3 benchmarks/perf/run.py --workload rpc-sim --seed 3 --seconds 12 --trace 0

runs the workload with tracing off, checks its outputs, and prints as
the last line of stdout ``{"correct", "attempted", "failed", "metrics"}``
with every end-to-end metric.  ``--trace 1`` runs the traced pass at a
quarter of the length and prints every per-layer metric instead.

**The whole report** — no ``--trace``::

    python3 benchmarks/perf/run.py [--workload NAME] [--seed N] [--traced]
                                   [--smoke] [--out FILE]

runs each selected workload as above in a fresh process (untraced, and
traced too with ``--traced``), prints every metric by name with its unit
and the per-layer budget table, and with ``--out`` writes one JSON record
per (workload, pass) carrying provenance and the per-slice values behind
each number.  Exit status is non-zero if any correctness check failed.

``--seconds`` scales each slice's fixed operation count relative to
``run_seconds`` in ``BENCHMARK.json`` (sized so the timed slices take
about that long on the reference host); ``--smoke`` divides counts by 20.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SMOKE_DIVISOR = 20


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _import_system_under_test() -> None:
    """Put this checkout's ``src`` first on the path — and nothing else's."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no system under test at {src}/repro")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"run.py: imported repro from {repro.__file__}, "
                         f"not from this checkout")


def run_pass(workload: str, seed: int, scale: float, traced: bool,
             spans_dir: Path | None):
    """Run one pass in this process; returns a ``harness.Result``."""
    _import_system_under_test()
    import harness
    import spans

    recorder = spans.Recorder()
    if traced:
        harness.install_spans(recorder)
    harness.register_behaviors(recorder)
    if workload in ("rpc-sim", "rpc-tcp"):
        import wl_rpc as module
    elif workload == "churn-sim":
        import wl_churn as module
    elif workload == "vis-durable-tcp":
        import wl_durable as module
    elif workload == "pool-script":
        import wl_pool as module
    else:
        raise SystemExit(f"run.py: unknown workload {workload!r}")
    try:
        return module.run(workload, seed, scale, traced, recorder, spans_dir)
    finally:
        harness.remove_run_root()


def render(result, spec: dict) -> dict:
    """The driver's result object for one pass (also checks the names)."""
    wanted = spec["per_layer"] if result.traced else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    if set(units) != set(result.metrics):
        missing = sorted(set(units) - set(result.metrics))
        extra = sorted(set(result.metrics) - set(units))
        raise SystemExit(f"run.py: metric names differ from BENCHMARK.json: "
                         f"missing {missing}, unregistered {extra}")
    return {
        "correct": result.correct,
        "attempted": max(1, result.attempted),
        "failed": result.failed,
        "metrics": {name: {"value": result.metrics[name]["value"],
                           "unit": units[name]} for name in units},
    }


def record(result, rendered: dict, spec: dict) -> dict:
    """The report-file record: the result plus where it came from."""
    from stats import spread

    metrics = {}
    for name, shown in rendered["metrics"].items():
        kept = result.metrics[name]
        metrics[name] = {**shown, "samples": kept["samples"],
                         "slices": kept["slices"],
                         "slice_spread": spread(kept["slices"])}
    return {
        "workload": result.workload,
        "pass": "traced" if result.traced else "untraced",
        "seed": result.seed,
        "scale": result.scale,
        "slices": result.slices,
        "correct": rendered["correct"],
        "attempted": rendered["attempted"],
        "failed": rendered["failed"],
        "fail_ratio": rendered["failed"] / rendered["attempted"],
        "checks": result.checks,
        "notes": result.notes,
        "metrics": metrics,
        "provenance": {
            "commit": _commit(),
            "host": platform.node(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "run_seconds": spec["run_seconds"],
        },
    }


def _commit() -> str:
    """HEAD of this checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- the report ---------------------------------------------------------------------

def print_record(rec: dict, spec: dict) -> None:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    print(f"\n== {rec['workload']}  [{rec['pass']}]  seed {rec['seed']}  "
          f"scale {rec['scale']:.3g}  correct={rec['correct']}  "
          f"failed {rec['failed']}/{rec['attempted']}")
    for name, m in rec["metrics"].items():
        if rec["pass"] == "traced" and m["value"] == 0:
            continue  # a layer that did no work on this workload
        extra = ""
        if name in bounds and rec["pass"] == "untraced":
            extra = (f"  n={m['samples']}  slice spread "
                     f"{m['slice_spread']:.3f}  bound {bounds[name]['bound']}")
        print(f"  {name:<36} {m['value']:>14.4f} {m['unit']:<6}{extra}")
    failed = [name for name, ok in rec["checks"].items() if not ok]
    if failed:
        print(f"  FAILED CHECKS: {', '.join(failed)}")


def report(args, spec: dict) -> int:
    names = [w["name"] for w in spec["workloads"]]
    if args.workload:
        if args.workload not in names:
            raise SystemExit(f"run.py: unknown workload {args.workload!r}; "
                             f"known: {names}")
        names = [args.workload]
    records = []
    status = 0
    for name in names:
        for traced in ([False, True] if args.traced else [False]):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", "1" if traced else "0", "--record"]
            if args.smoke:
                cmd.append("--smoke")
            if args.spans_out:
                cmd += ["--spans-out", args.spans_out]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode not in (0, 1) or not lines:
                print(f"\n== {name}: pass crashed (exit {done.returncode})")
                status = 2
                continue
            rec = json.loads(lines[-1])
            records.append(rec)
            print_record(rec, spec)
            if not rec["correct"]:
                status = 1
    if args.out:
        Path(args.out).write_text(json.dumps(records, indent=1) + "\n",
                                  encoding="utf-8")
        print(f"\nwrote {args.out}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="nominal timed seconds (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="single pass: 0 end-to-end metrics, 1 per-layer")
    parser.add_argument("--traced", action="store_true",
                        help="report: also run every traced pass")
    parser.add_argument("--smoke", action="store_true",
                        help=f"divide operation counts by {SMOKE_DIVISOR}")
    parser.add_argument("--out", help="report: write all records here")
    parser.add_argument("--spans-out",
                        help="traced pass: directory for raw span files")
    parser.add_argument("--record", action="store_true",
                        help="single pass: print the full record instead")
    args = parser.parse_args(argv)

    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.trace is None:
        return report(args, spec)
    if not args.workload:
        parser.error("--trace needs --workload")
    scale = args.seconds / spec["run_seconds"]
    if args.smoke:
        scale /= SMOKE_DIVISOR
    spans_dir = None
    if args.spans_out and args.trace:
        spans_dir = Path(args.spans_out).resolve()
        spans_dir.mkdir(parents=True, exist_ok=True)
    result = run_pass(args.workload, args.seed, scale, bool(args.trace),
                      spans_dir)
    rendered = render(result, spec)
    failed = [name for name, ok in result.checks.items() if not ok]
    if failed:
        print(f"run.py: failed checks: {', '.join(failed)}", file=sys.stderr)
    print(json.dumps(record(result, rendered, spec) if args.record
                     else rendered))
    return 0 if rendered["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
