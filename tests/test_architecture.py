"""Tests: the shape of ``src/`` — each thing exists once.

Every PR that removed a duplicate left a guard against its growing back.
They live here, in tier-1, as text / ``ast`` checks over the source tree
that fail with a sentence saying which rule was broken and where.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
REPRO = SRC / "repro"

#: ROADMAP aim 2: net ``src/`` line count is a tracked number; lower the
#: cap with every PR that deletes.
SRC_LINE_CAP = 23493


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


def test_no_shards_equals_one_fork():
    """One visibility plane: unsharded is a one-shard ShardMap.  A test
    on the shard count may exist only where a *value* is derived from it
    or input is validated — never to select a code path."""
    allowed = {
        "ticks = itertools.count() if shards > 1 else None",
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
