"""Command-line entry point: ``python -m repro <command>``.

Commands
--------
``demo``
    Run the quickstart scenario inline (no file paths needed).
``examples``
    List the example scripts shipped in ``examples/``.
``experiments``
    List the experiment benchmarks and what each reproduces.
``trace <example> [--out FILE] [--crash T:NODE ...] [--recover T:NODE ...]``
    Run an example with the flight recorder on and export a Chrome
    ``trace_event`` file (open in chrome://tracing or Perfetto).
    ``--crash``/``--recover`` (repeatable) inject a node crash or
    recovery at virtual time ``T`` into every system the example
    builds — failure drills on unmodified examples.
``trace --cluster [--cluster-file DIR|FILE] [--out FILE]``
    Attach to a *running* TCP cluster instead, merge every node's
    flight recorder onto one clock-aligned timeline, and export a
    single Chrome trace with cross-node flow arrows.
``top [--cluster-file DIR|FILE | --ports P0,P1,...] [--interval S]``
    Live per-node telemetry view of a running TCP cluster: actors,
    queues, wire-frame rates, shed/batch counters, and wire-path
    stage-latency histograms.
``check [--seeds N] [--walks N] [--explore N] [--inject NAME] ...``
    Conformance sweep: co-execute generated scenarios against the
    executable §5 reference model, diff observable state at every
    quiescent boundary, and shrink any divergence to a replayable
    ``.repro.json`` artifact (``--replay FILE`` re-runs one).
    ``--transport tcp`` additionally diffs a real localhost TCP
    cluster against the single-process oracle.
``serve --node I --ports P0,P1,... [--seed N] [--heartbeat S]``
    Run ONE node as this process, speaking the framed TCP protocol
    (normally spawned by ``cluster``, but usable standalone).
``cluster <example> [--nodes N] [--stall NODE | --kill NODE] [--out DIR]``
    Spawn N localhost node processes, run a shipped example across
    them over real sockets, optionally drill a mid-run node failure
    (quarantine + dead-letter redelivery), and collect snapshots.
``replay <data-dir> [--until SEQ] [--diff A:B] [--check] [...]``
    Offline time-travel debugger: rebuild a node's state from its data
    directory (``serve --data-dir``, every shard) the way recovery
    does, inspect the directory at any seq, diff two points in history,
    check the log against the conformance oracle, and export a Chrome
    trace.
``durability [--nodes N] [--out DIR]``
    Total-crash drill: SIGKILL a whole TCP cluster mid-traffic and
    prove it recovers from its data directories — directories equal
    the pre-crash state, dead letters re-adopted, zero silent loss.
``shard [--nodes N] [--shards K] [--rebalance] [--kill-sequencers]``
    Partitioned-visibility-plane drill over TCP: shard-affine spaces,
    per-shard sequencing load, an optional live sequencer rebalance
    and per-shard sequencer-kill failovers — directories stay
    coherent and message conservation closes (zero silent loss).
``version``
    Print the package version.
"""

from __future__ import annotations

import sys
from pathlib import Path

EXPERIMENTS = [
    ("E1", "Fig. 1 / §6", "dynamic process pool", "test_bench_e1_process_pool"),
    ("E2", "§5.3", "send() load-balances replicas", "test_bench_e2_load_balance"),
    ("E3", "§5.3", "broadcast bounds prune TSP", "test_bench_e3_tsp"),
    ("E4", "§6", "nested spaces localize traffic", "test_bench_e4_nesting"),
    ("E5", "§3", "ActorSpace vs Linda", "test_bench_e5_linda"),
    ("E6", "§5.6", "unmatched-message policies", "test_bench_e6_suspension"),
    ("E7", "§5.7", "cycle prevention cost", "test_bench_e7_cycles"),
    ("E8", "§5.5", "garbage collection", "test_bench_e8_gc"),
    ("E9", "Fig. 3 / §7.3", "coordinator-bus coherence", "test_bench_e9_bus"),
    ("E10", "§5.1/§7.1", "pattern matching at scale", "test_bench_e10_matching"),
    ("E11", "§1/§5.3", "replication for reliability", "test_bench_e11_reliability"),
    ("E12", "§1", "software repository retrieval", "test_bench_e12_repository"),
    ("E13", "Fig. 2 / §7.2", "interpreter pipeline", "test_bench_e13_interp"),
    ("E14", "§1", "diffusion scheduling", "test_bench_e14_diffusion"),
    ("E15", "§8", "monitoring daemons", "test_bench_e15_daemons"),
    ("E16", "§5.3", "cost of ordering broadcasts", "test_bench_e16_ordering"),
    ("E17", "(modern)", "patterns vs topic pub/sub", "test_bench_e17_pubsub"),
    ("E18", "(beyond)", "surviving overload", "test_bench_e18_overload"),
    ("E19", "(beyond)", "sharding the visibility plane", "test_bench_e19_shard"),
]

EXAMPLES = [
    ("quickstart.py", "the paradigm in five scenes"),
    ("process_pool.py", "Figure 1: masterless divide-and-conquer"),
    ("tsp_search.py", "bound broadcasting prunes search"),
    ("replicated_service.py", "load balance + crash tolerance"),
    ("software_repository.py", "interface-attribute retrieval"),
    ("script_actors.py", "the behavior-script interpreter"),
    ("linda_vs_actorspace.py", "suspension vs polling"),
    ("contract_net.py", "open expert marketplace"),
]


def _demo() -> int:
    from repro import ActorSpaceSystem, Topology

    print("ActorSpace demo: pattern-directed coordination on a 3-node LAN\n")
    system = ActorSpaceSystem(topology=Topology.lan(3), seed=0)

    def worker(name):
        def behavior(ctx, message):
            print(f"  [{name}] handled {message.payload!r} at t={ctx.now:.3f}")
        return behavior

    for i in range(3):
        addr = system.create_actor(worker(f"w{i}"), node=i)
        system.make_visible(addr, f"pool/w{i}")
    system.run()
    print("send('pool/*') x3 — one arbitrary worker each:")
    for i in range(3):
        system.send("pool/*", ("job", i))
    system.run()
    print("broadcast('pool/**') — everyone:")
    system.broadcast("pool/**", "shutdown-warning")
    system.run()
    print(f"\nreplicas coherent: {system.replicas_coherent()}  "
          f"virtual time: {system.clock.now:.3f}")
    return 0


def examples_dir() -> Path:
    """The shipped ``examples/`` directory (repo layout)."""
    return Path(__file__).resolve().parents[2] / "examples"


def experiments_drift() -> tuple[list[str], list[str]]:
    """Compare the EXPERIMENTS table against ``benchmarks/`` on disk.

    Returns ``(missing, untracked)``: table entries with no benchmark
    file, and ``test_bench_e*.py`` files absent from the table.  Both
    empty means the table is in sync (the CI drift check asserts this).
    """
    bench_dir = Path(__file__).resolve().parents[2] / "benchmarks"
    listed = {target for _, _, _, target in EXPERIMENTS}
    on_disk = {p.stem for p in bench_dir.glob("test_bench_e*.py")}
    missing = sorted(listed - on_disk)
    untracked = sorted(on_disk - listed)
    return missing, untracked


def _parse_fault_schedule(args: list[str], flag: str) -> "list[tuple[float, int]] | None":
    """Collect repeatable ``flag T:NODE`` occurrences; ``None`` on a bad spec."""
    schedule: list[tuple[float, int]] = []
    for idx, arg in enumerate(args):
        if arg != flag:
            continue
        if idx + 1 >= len(args):
            print(f"trace: {flag} needs a T:NODE argument", file=sys.stderr)
            return None
        spec = args[idx + 1]
        t_text, sep, node_text = spec.partition(":")
        try:
            if not sep:
                raise ValueError(spec)
            schedule.append((float(t_text), int(node_text)))
        except ValueError:
            print(f"trace: bad {flag} spec {spec!r} (expected T:NODE, "
                  f"e.g. {flag} 0.5:2)", file=sys.stderr)
            return None
    return schedule


def _trace(args: list[str]) -> int:
    """Run an example under the flight recorder; export a Chrome trace."""
    import runpy

    from repro.runtime.eventlog import chrome_trace, validate_chrome_trace
    from repro.runtime.system import ActorSpaceSystem

    if not args or args[0].startswith("-"):
        print("usage: python -m repro trace <example.py> [--out FILE] "
              "[--crash T:NODE ...] [--recover T:NODE ...]",
              file=sys.stderr)
        return 2
    script = Path(args[0])
    if not script.exists():
        candidate = examples_dir() / script.name
        if candidate.exists():
            script = candidate
        else:
            print(f"trace: no such example: {args[0]}", file=sys.stderr)
            return 2
    out = Path("run.trace.json")
    if "--out" in args:
        idx = args.index("--out")
        if idx + 1 >= len(args):
            print("trace: --out needs a file argument", file=sys.stderr)
            return 2
        out = Path(args[idx + 1])
    crashes = _parse_fault_schedule(args, "--crash")
    recoveries = _parse_fault_schedule(args, "--recover")
    if crashes is None or recoveries is None:
        return 2

    # Force the flight recorder on for every system the example builds,
    # whatever arguments the script itself passes; arm any requested
    # crash/recovery schedule on each of them.
    systems: list[ActorSpaceSystem] = []
    original_init = ActorSpaceSystem.__init__

    def traced_init(self, *a, **kw):
        kw["trace"] = True
        original_init(self, *a, **kw)
        systems.append(self)
        node_count = self.topology.node_count
        for t, node in crashes:
            if 0 <= node < node_count:
                self.events.schedule(t, lambda s=self, n=node: s.crash_node(n))
        for t, node in recoveries:
            if 0 <= node < node_count:
                self.events.schedule(t, lambda s=self, n=node: s.recover_node(n))

    ActorSpaceSystem.__init__ = traced_init
    try:
        runpy.run_path(str(script), run_name="__main__")
    finally:
        ActorSpaceSystem.__init__ = original_init

    if not systems:
        print("trace: the example never constructed an ActorSpaceSystem",
              file=sys.stderr)
        return 1
    events = [e for system in systems for e in system.event_log]
    events.sort(key=lambda e: (e.t, e.seq))
    trace = chrome_trace(events)
    problems = validate_chrome_trace(trace)
    if problems:
        for problem in problems[:10]:
            print(f"trace: invalid output: {problem}", file=sys.stderr)
        return 1
    import json

    out.write_text(json.dumps(trace))
    print(f"trace: {len(events)} events from {len(systems)} system(s) "
          f"-> {out} ({len(trace['traceEvents'])} trace records)")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    command = args[0] if args else "help"
    if command == "demo":
        return _demo()
    if command == "examples":
        print("Example scripts (run with: python examples/<name>):")
        for name, blurb in EXAMPLES:
            print(f"  {name:26s} {blurb}")
        return 0
    if command == "experiments":
        print("Experiments (run with: pytest benchmarks/<file>.py "
              "--benchmark-only -s):")
        for exp, anchor, blurb, target in EXPERIMENTS:
            print(f"  {exp:4s} {anchor:14s} {blurb:34s} {target}")
        return 0
    if command == "trace":
        if "--cluster" in args[1:]:
            from repro.net.top import cluster_trace_main

            rest = [a for a in args[1:] if a != "--cluster"]
            return cluster_trace_main(rest)
        return _trace(args[1:])
    if command == "top":
        from repro.net.top import top_main

        return top_main(args[1:])
    if command == "check":
        from repro.check.cli import run_check

        return run_check(args[1:])
    if command == "serve":
        from repro.net.cluster import serve_main

        return serve_main(args[1:])
    if command == "cluster":
        from repro.net.drills import cluster_main

        return cluster_main(args[1:])
    if command == "replay":
        from repro.store.replay import replay_main

        return replay_main(args[1:])
    if command == "durability":
        from repro.net.drills import durability_main

        return durability_main(args[1:])
    if command == "shard":
        from repro.net.drills import shard_main

        return shard_main(args[1:])
    if command == "version":
        from repro import __version__

        print(__version__)
        return 0
    print(__doc__)
    return 0 if command in ("help", "-h", "--help") else 1


if __name__ == "__main__":
    raise SystemExit(main())
