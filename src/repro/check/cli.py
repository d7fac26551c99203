"""``python -m repro check`` — the conformance sweep.

Default behavior: generate N seeded scenarios, co-execute each against
the §5 reference model, stop at the first divergence, shrink it, and
write a replayable ``.repro.json`` artifact.  Exit 0 on a clean sweep,
1 on divergence, 2 on usage errors.

Schedules: every scenario runs under FIFO tie-breaking first; add
``--walks N`` for seeded random-walk schedules per scenario and
``--explore N`` for bounded systematic exploration (DPOR-lite) on top.

Self-test: ``--inject NAME`` installs a known bug
(:mod:`repro.check.inject`) so CI can assert the harness catches and
shrinks what it claims to.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .inject import INJECTIONS
from .oracle import check_scenario
from .scenario import Scenario, generate_scenario
from .schedule import Explorer, RandomTieBreaker, ScriptedTieBreaker
from .shrink import shrink_scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro check",
        description="Check the runtime against the executable §5 reference model.",
    )
    parser.add_argument("--seeds", type=int, default=50,
                        help="number of generated scenarios (default 50)")
    parser.add_argument("--seed", type=int, default=0,
                        help="first scenario seed (default 0)")
    parser.add_argument("--nodes", type=int, default=None,
                        help="force a node count (default: per-seed 2..4)")
    parser.add_argument("--bus", choices=["sequencer", "token-ring"], default=None,
                        help="force a bus protocol (default: alternate by seed)")
    parser.add_argument("--shards", type=int, default=1,
                        help="run the runtime on a partitioned visibility "
                             "plane with N per-shard sequencers (forces the "
                             "sequencer bus; the model stays the unsharded "
                             "§5 reference; default 1)")
    parser.add_argument("--walks", type=int, default=0,
                        help="random-walk schedules per scenario (default 0)")
    parser.add_argument("--explore", type=int, default=0,
                        help="bounded systematic schedules per scenario (default 0)")
    parser.add_argument("--budget", type=float, default=None,
                        help="wall-clock budget in seconds for the whole sweep")
    parser.add_argument("--inject", choices=sorted(INJECTIONS), default=None,
                        help="install a known bug (harness self-test)")
    parser.add_argument("--out", default=".",
                        help="directory for .repro.json artifacts (default .)")
    parser.add_argument("--replay", default=None, metavar="FILE",
                        help="re-run a .repro.json artifact instead of sweeping")
    parser.add_argument("--no-shrink", action="store_true",
                        help="emit the full diverging trace without ddmin")
    parser.add_argument("--transport", choices=["sim", "tcp"], default="sim",
                        help="sim (default): in-process co-execution; tcp: "
                             "additionally diff a real localhost cluster "
                             "against the single-process oracle")
    return parser


def _run_tcp_check(args) -> int:
    """Diff real TCP clusters against the sim oracle (bounded scenarios).

    Skips (exit 0) on platforms where loopback sockets are unavailable —
    the sweep is about the wire path, which such platforms cannot run.
    """
    from repro.net.cluster import loopback_available
    from repro.net.drills import run_tcp_conformance

    if not loopback_available():
        print("conformance[tcp]: loopback sockets unavailable; skipping")
        return 0
    seeds = [args.seed + offset for offset in range(args.seeds)]
    nodes = args.nodes if args.nodes else 3
    report = run_tcp_conformance(seeds, nodes=nodes, out_dir=None,
                                 shards=args.shards,
                                 log=lambda text: print(f"  {text}"))
    if report["divergences"]:
        first = report["divergences"][0]
        print(f"DIVERGENCE[tcp] seed={first['seed']} node={first['node']} "
              f"kind={first['kind']}")
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"conformance-tcp-{first['seed']}.json"
        path.write_text(json.dumps(report, indent=2))
        print(f"divergence report: {path}")
        return 1
    print(f"conformance[tcp]: {len(seeds)} scenarios x {nodes} nodes, "
          f"0 divergences")
    return 0


def _schedule_factory(spec: dict):
    """Tiebreaker factory from an artifact's schedule record."""
    kind = spec.get("type", "fifo")
    if kind == "fifo":
        return lambda: None
    if kind == "random":
        seed = int(spec.get("seed", 0))
        return lambda: RandomTieBreaker(seed)
    if kind == "scripted":
        decisions = list(spec.get("decisions", ()))
        return lambda: ScriptedTieBreaker(decisions)
    raise ValueError(f"unknown schedule type {kind!r}")


def _check_with(scenario: Scenario, make_breaker, inject, shards: int = 1):
    return check_scenario(scenario, tiebreaker=make_breaker(), inject=inject,
                          shards=shards)


def _report_failure(scenario: Scenario, report, schedule_spec: dict,
                    args, inject) -> int:
    print(f"DIVERGENCE {report.summary()}")
    for divergence in report.divergences[:8]:
        print(f"  {divergence}")
    shrunk, checks = scenario, 0
    shards = getattr(args, "shards", 1)
    if not args.no_shrink:
        make_breaker = _schedule_factory(schedule_spec)
        shrunk, checks = shrink_scenario(
            scenario, lambda s: _check_with(s, make_breaker, inject, shards))
        final = _check_with(shrunk, make_breaker, inject, shards)
        print(f"shrunk {len(scenario)} -> {len(shrunk)} commands "
              f"({checks} oracle calls)")
        report = final if not final.ok else report
    artifact = {
        "scenario": json.loads(shrunk.to_json()),
        "schedule": schedule_spec,
        "inject": args.inject,
        "shards": shards,
        "divergences": [str(d) for d in report.divergences],
    }
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"conformance-{scenario.seed}.repro.json"
    path.write_text(json.dumps(artifact, indent=2))
    print(f"replay artifact: {path}")
    print(f"  python -m repro check --replay {path}")
    return 1


def _replay(path: str, args, inject) -> int:
    try:
        artifact = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        print(f"check: cannot read {path}: {exc}", file=sys.stderr)
        return 2
    scenario = Scenario.from_json(json.dumps(artifact["scenario"]))
    schedule_spec = artifact.get("schedule", {"type": "fifo"})
    inject = inject or INJECTIONS.get(artifact.get("inject") or "")
    shards = int(artifact.get("shards", 1)) or getattr(args, "shards", 1)
    report = _check_with(scenario, _schedule_factory(schedule_spec), inject,
                         shards)
    print(report.summary())
    for divergence in report.divergences[:8]:
        print(f"  {divergence}")
    return 0 if report.ok else 1


def run_check(argv: list[str]) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    inject = INJECTIONS[args.inject] if args.inject else None
    if args.replay:
        return _replay(args.replay, args, inject)
    if args.transport == "tcp":
        return _run_tcp_check(args)

    started = time.monotonic()

    def out_of_budget() -> bool:
        return args.budget is not None and time.monotonic() - started > args.budget

    schedules = 0
    scenarios = 0
    crash_scenarios = 0
    for offset in range(args.seeds):
        if out_of_budget():
            print(f"budget exhausted after {scenarios} scenarios")
            break
        seed = args.seed + offset
        bus = "sequencer" if args.shards > 1 else args.bus
        scenario = generate_scenario(seed, nodes=args.nodes, bus=bus)
        scenarios += 1
        if any(cmd["op"] == "crash" for cmd in scenario.commands):
            crash_scenarios += 1

        # 1. The deterministic FIFO schedule.
        fifo_spec = {"type": "fifo"}
        report = _check_with(scenario, _schedule_factory(fifo_spec), inject,
                             args.shards)
        schedules += 1
        if not report.ok:
            return _report_failure(scenario, report, fifo_spec, args, inject)

        # 2. Seeded random walks.
        for walk in range(args.walks):
            if out_of_budget():
                break
            spec = {"type": "random", "seed": seed * 1000 + walk}
            report = _check_with(scenario, _schedule_factory(spec), inject,
                                 args.shards)
            schedules += 1
            if not report.ok:
                return _report_failure(scenario, report, spec, args, inject)

        # 3. Bounded systematic exploration (DPOR-lite).
        if args.explore > 0 and not out_of_budget():
            explorer = Explorer(
                lambda breaker: check_scenario(scenario, tiebreaker=breaker,
                                               inject=inject,
                                               shards=args.shards),
                max_schedules=args.explore,
                deadline=out_of_budget,
            )
            failing, ran = explorer.explore()
            schedules += ran
            if failing is not None:
                spec = {"type": "scripted",
                        "decisions": getattr(failing, "schedule_decisions", [])}
                return _report_failure(scenario, failing, spec, args, inject)

    print(f"conformance: {scenarios} scenarios "
          f"({crash_scenarios} with crash/recover), {schedules} schedules, "
          f"0 divergences")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(run_check(sys.argv[1:]))
