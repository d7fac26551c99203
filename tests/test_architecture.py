"""Tests: the shape of ``src/`` — each thing exists once.

Every PR that removed a duplicate left a guard against its growing back.
They live here, in tier-1, as text / ``ast`` checks over the source tree
that fail with a sentence saying which rule was broken and where.
"""

import ast
import functools
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
REPRO = SRC / "repro"

#: ROADMAP aim 2: net ``src/`` line count is a tracked number; lower the
#: cap with every PR that deletes.
SRC_LINE_CAP = 23113


def read(relative: str) -> str:
    return (REPRO / relative).read_text()


def grep(pattern: str, *roots: str) -> list[str]:
    """``path:line: text`` for every line under ``src/repro/<root>`` (the
    whole package by default) matching ``pattern``."""
    regex, hits = re.compile(pattern), []
    for root in roots or ("",):
        base = REPRO / root
        for path in sorted([base] if base.is_file() else base.rglob("*.py")):
            for number, line in enumerate(path.read_text().splitlines(), 1):
                if regex.search(line):
                    hits.append(f"{path.relative_to(SRC)}:{number}: "
                                f"{line.strip()}")
    return hits


def methods(relative: str, class_name: str) -> dict[str, ast.FunctionDef]:
    for node in ast.walk(ast.parse(read(relative))):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            return {item.name: item for item in node.body
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef))}
    raise AssertionError(f"no class {class_name} in {relative}")


def test_src_line_budget():
    lines = sum(len(path.read_text().splitlines())
                for path in SRC.rglob("*.py"))
    assert lines <= SRC_LINE_CAP, (
        f"src/ has {lines} lines, over the cap of {SRC_LINE_CAP}: delete "
        f"something, or argue the new cap in CHANGES.md")


def test_one_op_apply_path():
    """The meaning of a visibility op lives in ``Coordinator._apply_op``;
    recovery, ``repro replay`` and the offline log check all drive it
    rather than mutate a directory of their own."""
    writers = [hit for hit in grep(
        r"directory\.(make_visible|make_invisible|change_attributes"
        r"|destroy_space|purge_target)\(")
        if not hit.startswith("repro/runtime/coordinator.py:")]
    assert not writers, \
        f"a second op-apply path mutates a directory: {writers}"


def test_one_experiment_estate():
    """An experiment is a ``test_bench_eNN_*.py`` that writes
    ``results/eNN_*.txt``; the repo benchmark is ``benchmarks/perf``.
    A stand-alone script with a JSON report of its own would be a second
    experiment estate beside the first."""
    top = SRC.parent / "benchmarks"
    strays = sorted(p.name for pattern in ("bench_*.py", "BENCH_*.json")
                    for p in top.glob(pattern))
    assert not strays, f"a second experiment estate grew back: {strays}"


def test_no_shards_equals_one_fork():
    """One visibility plane: unsharded is a one-shard ShardMap.  A test
    on the shard count may exist only where a *value* is derived from it
    or input is validated — never to select a code path."""
    allowed = {
        "if n_shards == 1:",
        'if bus == "token-ring" and shards > 1:',
        'bus = "sequencer" if args.shards > 1 else args.bus',
    }
    forks = [hit for hit in grep(
        r"shards *(==|!=|>) *1\b|router is (not )?None"
        r"|shard_map is (not )?None")
        if hit.split(": ", 1)[1] not in allowed]
    assert not forks, f"a shards == 1 fork grew back: {forks}"


def test_one_sequencer_protocol_sans_io():
    """``runtime/sequencer.py`` holds the protocol; the two drivers keep
    no copy of its state and the core imports no host."""
    state = r"_holdback|_next_seq|_expected"
    simulator_driver = read("runtime/bus.py").split("class TokenRingBus")[0]
    assert not re.search(state, simulator_driver), \
        "SequencerBus keeps sequencer-protocol state of its own"
    assert not grep(state, "net/remote.py"), \
        "RemoteSequencerBus keeps sequencer-protocol state of its own"
    imported = [ast.unparse(node)
                for node in ast.walk(ast.parse(read("runtime/sequencer.py")))
                if isinstance(node, (ast.Import, ast.ImportFrom))]
    io = [line for line in imported
          if re.search(r"repro\.net|asyncio|EventQueue", line)]
    assert not io, f"the sans-IO sequencer core imports a host: {io}"


def sites(match) -> set[tuple[str, str]]:
    """``(module, innermost enclosing class or function)`` of every node in
    the package for which ``match(node)`` holds."""
    found = set()

    def visit(node, owner: str, relative: str) -> None:
        if match(node):
            found.add((relative, owner))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            owner = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, owner, relative)

    for path in sorted(REPRO.rglob("*.py")):
        visit(parsed(path), "<module>", str(path.relative_to(REPRO)))
    return found


@functools.cache
def parsed(path: Path) -> ast.Module:
    return ast.parse(path.read_text())


def test_one_owner_of_origin_numbering():
    """A node's next origin seq is minted by the stream that enforces
    per-origin FIFO — ``SequencerCore`` (the token ring keeps its own) —
    and nowhere else: not the coordinator, not a resync in recovery or a
    host port.  The codec only carries the number across the wire."""
    def stamps(node) -> bool:
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, ast.AugAssign) else []
        return any(isinstance(target, ast.Attribute)
                   and target.attr == "origin_seq" for target in targets)

    assert sites(stamps) == {("runtime/sequencer.py", "submit"),
                             ("runtime/bus.py", "submit")}, \
        "op.origin_seq is assigned outside the two streams' submit"
    numbered = sites(lambda node: isinstance(node, ast.Call)
                     and getattr(node.func, "id", None) == "VisibilityOp"
                     and (len(node.args) > 3 or any(
                         k.arg == "origin_seq" for k in node.keywords)))
    assert numbered <= {("net/codec.py", "_dec_visibility_op")}, \
        f"an op is built with an origin seq minted elsewhere: {numbered}"
    assert not grep(r"_origin_seqs|def echoed"), \
        "a second origin counter (or its resync) is back"
    port = methods("runtime/sequencer.py", "Port")
    assert sorted(port) == ["cursor", "deliver", "failover", "is_down",
                            "send", "sequenced", "timer"], \
        f"the core's host port has grown or shrunk: {sorted(port)}"


def test_one_durable_outbox():
    """A node persists sequenced ops through its own sequencer cores'
    stores — a node process and a simulated node alike — so the core is
    the one writer of op records.  No bus holds a store of its own, and
    no sequencing tick promises an order across shards."""
    from repro.runtime.bus import VisibilityOp
    from repro.runtime.system import ActorSpaceSystem

    writers = sites(lambda node: isinstance(node, ast.Call)
                    and getattr(node.func, "attr", None) == "append_op")
    assert {module for module, _owner in writers} == \
        {"runtime/sequencer.py"}, \
        f"op records are written outside the sequencer core: {sorted(writers)}"
    assert "tick" not in VisibilityOp.__dataclass_fields__, \
        "VisibilityOp carries a sequencing tick again"
    assert not grep(r"tick_counter|attach_store"), \
        "the sequencing tick or the seat-side store attachment is back"
    for bus in ("sequencer", "token-ring"):
        plane = ActorSpaceSystem(bus=bus).bus
        assert not hasattr(plane, "store") and not any(
            hasattr(stream, "store") for stream in plane.shards.values()), \
            f"a {bus} bus holds a store beside its cores'"


def test_a_store_is_read_once():
    """Only ``load_data_dir`` reads a store namespace's log segments; a
    ``NodeStore`` opens on its result rather than scanning again.  (The
    snapshot loader reads its one-record snapshot file with the same
    salvage reader.)"""
    readers = sites(lambda node: isinstance(node, ast.Call) and getattr(
        node.func, "id", None) == "scan_segment")
    assert readers == {("store/node_store.py", "load_data_dir"),
                       ("store/snapshot.py", "load_latest_snapshot"),
                       ("store/segment.py", "scan_segments")}, \
        f"a second reader of the log segments: {sorted(readers)}"
    assert "load" not in methods("store/node_store.py", "NodeStore")


def test_one_function_emits_an_envelope_tag():
    """The packed record (tag V) has one writer; tag E is decode-only."""
    writers = grep(r"""b["'][EV]["']""", "net/codec.py")
    assert len(writers) == 1, \
        f"an envelope tag must appear on exactly one codec line: {writers}"


def test_no_opcode_dispatch_in_the_script_engine():
    assert not grep(r"OPCODES|elif op ==", "interp"), \
        "the (op, arg) VM loop grew back beside the compiled closures"


def test_the_compiled_engine_addresses_names_lexically():
    """Every name has a register, decided at compile time: the compiler
    and the VM never touch the tree walker's environments."""
    hits = grep(r"\bEnv\b|\.lookup\(|\.assign\(",
                "interp/compiler.py", "interp/vm.py")
    assert not hits, f"a run-time name look-up is back: {hits}"


def test_one_host_one_driver_api():
    assert not grep(r'getattr\((self\.)?system, '
                    r'"(admission|mailbox_capacity|mailbox_policy)"',
                    "runtime"), "a consumer probes its host for an attribute"
    assert not grep(r"type: ignore\[arg-type\]", "net/runtime.py"), \
        "NodeRuntime is cast to a host instead of being one"
    assert not grep(r"_conformance_script|_apply_to_(oracle|cluster)|uvloop"), \
        "a second interpreter of the conformance vocabulary (or uvloop) is back"
    for verb in ("make_visible", "make_invisible", "change_attributes"):
        defined = grep(rf"def {verb}\(", "runtime/host.py",
                       "runtime/system.py", "net/runtime.py")
        assert len(defined) == 1, \
            f"driver verb {verb} must be defined once, on Host: {defined}"


def test_a_number_lives_once():
    """The tracer counts in the registry and keeps nothing per delivery;
    ``MetricsRegistry.snapshot()`` is the only dump and reads every
    source when it is taken."""
    gone = grep(r"keep_samples|LatencySample|_scalar|latency_stats"
                r"|release_marks")
    assert not gone, f"a second store of a tracer number is back: {gone}"
    for relative, owner in [("runtime/tracing.py", "Tracer"),
                            ("runtime/host.py", "Host"),
                            ("runtime/system.py", "ActorSpaceSystem"),
                            ("net/runtime.py", "NodeRuntime")]:
        assert "metrics_snapshot" not in methods(relative, owner), (
            f"{owner}.metrics_snapshot is back: MetricsRegistry.snapshot() "
            f"is the one dump")
    assert not grep(r"\.gauge\("), (
        "a gauge is set somewhere: register a read-at-scrape source "
        "(MetricsRegistry.source) instead of mirroring a number")


def test_one_clock_aligner():
    """Clock offsets are estimated in one place, the launcher's telemetry
    collector; a node neither samples its peers' clocks nor reports
    offsets of its own."""
    built = sites(lambda node: isinstance(node, ast.Call)
                  and getattr(node.func, "id", None) == "ClockSync")
    assert {module for module, _owner in built} == {"net/cluster.py"}, \
        f"a second ClockSync is built: {sorted(built)}"
    hits = grep(r"clock_sync", "net/peer.py", "net/remote.py", "net/runtime.py")
    assert not hits, f"a node estimates clock offsets again: {hits}"


def test_one_control_verb_returns_an_event_window():
    handlers = methods("net/runtime.py", "NodeRuntime")
    windows = [
        name for name, function in handlers.items()
        for node in ast.walk(function)
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Dict)
        and any(isinstance(key, ast.Constant) and key.value == "events"
                for key in node.value.keys)]
    assert windows == ["_ctl_snapshot"], (
        f"exactly one control handler may return an `events` window "
        f"(the `snapshot` scrape), found {windows}")
    entries = re.findall(r'"(\w+)": self\._ctl_snapshot\b',
                         read("net/runtime.py"))
    assert entries == ["snapshot"], (
        f"the scrape handler must back exactly one verb, found {entries}")


def test_the_launcher_stays_a_launcher_and_drills_stay_scenarios():
    """``net/cluster.py`` spawns, connects and scrapes; the drills in
    ``net/drills.py`` reach a cluster only through ``call``, the waits and
    the fault verbs, so they do not know their nodes are processes."""
    lines = len(read("net/cluster.py").splitlines())
    assert lines < 900, f"net/cluster.py has {lines} lines: keep it the launcher"
    reaching_in = grep(r"\.procs|\.ports|\.controls|os\.kill|subprocess"
                       r"|signal", "net/drills.py")
    assert not reaching_in, f"a drill reaches past the cluster's verbs: " \
        f"{reaching_in}"


def test_every_attribute_the_benchmark_cluster_reads_is_set_by_the_launcher():
    """``benchmarks/perf/harness.py::PerfCluster`` subclasses
    ``LocalCluster`` and reads attributes it never sets: each must be
    assigned in ``LocalCluster.__init__``."""
    def self_attributes(tree: ast.AST, context: type) -> set[str]:
        return {node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == "self"
                and isinstance(node.ctx, context)}

    harness = ast.parse((SRC.parent / "benchmarks" / "perf" / "harness.py")
                        .read_text())
    perf = next(node for node in ast.walk(harness)
                if isinstance(node, ast.ClassDef) and node.name == "PerfCluster")
    launcher = methods("net/cluster.py", "LocalCluster")
    inherited = (self_attributes(perf, ast.Load)
                 - self_attributes(perf, ast.Store) - set(launcher))
    assert {"procs", "ports", "_logfiles"} <= inherited, \
        f"the harness parser lost its reads: {sorted(inherited)}"
    missing = inherited - self_attributes(launcher["__init__"], ast.Store)
    assert not missing, (
        f"PerfCluster reads {sorted(missing)}, which LocalCluster.__init__ "
        f"no longer assigns")


# -- the benchmark's binding contract ------------------------------------------
#
# ``benchmarks/perf/spans.py`` gets its per-layer rows by wrapping methods
# it takes from a class's *own* ``__dict__``: a method that moves to a base
# class, is renamed, or changes its positional signature silently loses its
# row.  ISSUEs 15, 16, 20 and 22 each restated the list in prose; it is
# read from the file here instead.

SPANS = SRC.parent / "benchmarks" / "perf" / "spans.py"


def spans_binding_sites() -> set[tuple[str, str, str]]:
    """``(module, class, attribute)`` for every ``_patch_method(rec, Cls,
    "attr", ...)`` and ``Cls.__dict__["attr"]`` in ``spans.install``
    (``for attr in (...)`` loops unrolled, ``cls`` parameters of local
    helpers bound to the classes they are called with)."""
    tree = ast.parse(SPANS.read_text())
    install = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef)
                   and node.name == "install")
    modules = {alias.asname or alias.name: node.module
               for node in ast.walk(install)
               if isinstance(node, ast.ImportFrom) for alias in node.names}
    helpers = {node.name: node for node in ast.walk(install)
               if isinstance(node, ast.FunctionDef) and node.args.args
               and node.args.args[0].arg == "cls"}
    sites: set[tuple[str, str, str]] = set()

    def visit(node, names: dict, classes: dict) -> None:
        if isinstance(node, ast.For) and isinstance(node.target, ast.Name) \
                and isinstance(node.iter, ast.Tuple):
            names = {**names, node.target.id: [
                item.value for item in node.iter.elts
                if isinstance(item, ast.Constant)]}
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "_patch_method":
                record(node.args[1], node.args[2], names, classes)
            elif node.func.id in helpers:
                bound = {**classes, "cls": node.args[0].id}
                for statement in helpers[node.func.id].body:
                    visit(statement, names, bound)
        if isinstance(node, ast.Subscript) \
                and isinstance(node.value, ast.Attribute) \
                and node.value.attr == "__dict__":
            record(node.value.value, node.slice, names, classes)
        for child in ast.iter_child_nodes(node):
            if child not in helpers.values():
                visit(child, names, classes)

    def record(owner, attr, names: dict, classes: dict) -> None:
        if not isinstance(owner, ast.Name):
            return
        cls = classes.get(owner.id, owner.id)
        if cls not in modules:
            return  # a stdlib selector picked at run time
        attrs = [attr.value] if isinstance(attr, ast.Constant) \
            else names[attr.id]
        sites.update((modules[cls], cls, name) for name in attrs)

    visit(install, {}, {})
    return sites


def test_every_method_the_benchmark_wraps_is_defined_on_its_class():
    import importlib
    import inspect

    sites = spans_binding_sites()
    assert len(sites) >= 30, f"the spans.py parser lost its sites: {sites}"
    for expected in [("repro.runtime.coordinator", "Coordinator",
                      "broadcast_pattern"),
                     ("repro.runtime.bus", "SequencerBus", "submit"),
                     ("repro.core.mailbox", "Mailbox", "next_ready")]:
        assert expected in sites
    for module, cls, attr in sorted(sites):
        owner = getattr(importlib.import_module(module), cls)
        assert attr in owner.__dict__, (
            f"benchmarks/perf/spans.py wraps {cls}.__dict__[{attr!r}]: "
            f"define it on {cls} itself (an alias counts), not on a base")
    from repro.runtime.events import EventQueue
    positional = [p.name for p in inspect.signature(
        EventQueue.schedule).parameters.values()
        if p.kind is p.POSITIONAL_OR_KEYWORD]
    assert positional == ["self", "time", "action", "priority", "tag"], (
        "spans.py calls schedule(self, time, action, priority, tag) "
        "positionally")


def test_per_message_paths_pay_once():
    """No registry look-up by name inside a tracer hook (handles are bound
    in ``Tracer.__init__``) and no ``float(...)`` built per scheduled
    event (the finite-time guard compares against a module constant)."""
    def calls(function: ast.FunctionDef) -> set[str]:
        return {node.func.attr if isinstance(node.func, ast.Attribute)
                else getattr(node.func, "id", "")
                for node in ast.walk(function) if isinstance(node, ast.Call)}

    for name, hook in methods("runtime/tracing.py", "Tracer").items():
        if name.startswith("on_"):
            looked_up = calls(hook) & {"counter", "labeled", "recent",
                                       "histogram"}
            assert not looked_up, (
                f"Tracer.{name} asks the registry for {sorted(looked_up)} "
                f"per call: bind the handle in __init__")
    schedule = methods("runtime/events.py", "EventQueue")["schedule"]
    assert "float" not in calls(schedule), \
        "EventQueue.schedule builds a float per event: use the module's _INF"


def test_numpy_stays_off_the_runtime_import_path():
    """Seeded draws are pure Python (``runtime/rng.py``), so neither a node
    process nor the simulator nor the apps pay numpy's import and RSS;
    only ``repro.check`` and the statistics helpers import it, when run."""
    import subprocess
    import sys

    probe = ("import sys, repro, repro.runtime.system, repro.net.runtime, "
             "repro.apps; print(sorted(m for m in sys.modules "
             "if m.partition('.')[0] == 'numpy')[:3])")
    loaded = subprocess.run([sys.executable, "-c", probe], cwd=SRC,
                            capture_output=True, text=True, check=True)
    assert loaded.stdout.strip() == "[]", \
        f"importing the runtime loads numpy: {loaded.stdout.strip()}"
