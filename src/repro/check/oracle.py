"""The conformance oracle: co-execute runtime and reference model.

One :class:`~repro.check.scenario.Scenario` is executed twice at once —
against a full :class:`~repro.runtime.system.ActorSpaceSystem` and against
the naive :class:`~repro.check.model.ReferenceModel` — and their
observable state is diffed at every quiescent boundary:

* per-replica **visibility directories** (every live node against the
  model's single directory);
* per-origin **park sets** (§5.6): suspended message order and persistent
  broadcasts' delivered sets;
* **dead letters** pending per destination node;
* **resolution probes** on every live replica;
* **GC reachability** (§5.5): the collected actor/space sets of a
  non-destructive cycle;
* final **delivery multisets**: what was routed and what was enqueued,
  per (message, receiver).

Recorded nondeterminism
-----------------------

The runtime's genuinely free choices are *recorded* and *validated*, not
predicted: the bus journal supplies the order of visibility ops the
model replays; each ``send``'s routed receiver is captured at its first
hop and checked for membership in the model's legal group; quarantine
masks (detector timing) are resynced from the live replicas at each
boundary.  Everything else must coincide exactly.

Boundaries are implicit: the executor settles the simulation whenever
the command class changes (visibility burst -> message burst, anything ->
control) — so deleting any single command, as the shrinker does, still
yields a well-formed trace with the same boundary discipline.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.core.errors import ActorSpaceError
from repro.core.mailbox import DEFAULT_MAILBOX_CAPACITY
from repro.core.manager import SpaceManager, UnmatchedPolicy
from repro.core.messages import Destination
from repro.runtime.network import LatencyModel, Topology
from repro.runtime.system import ActorSpaceSystem

from .model import ReferenceModel
from .scenario import COMMAND_CLASS, Scenario, run_visibility

#: Per-settle event budget; a boundary that cannot drain within this is
#: itself a conformance failure (livelock / runaway feedback).
MAX_EVENTS = 200_000


@dataclass
class Divergence:
    """One observable disagreement between runtime and model."""

    command_index: int  #: index into ``scenario.commands`` (or -1: final audit)
    kind: str           #: e.g. "directory", "arbitration", "parked", "gc"
    detail: str

    def __str__(self):
        return f"[cmd {self.command_index}] {self.kind}: {self.detail}"


@dataclass
class ConformanceReport:
    scenario: Scenario
    divergences: list[Divergence] = field(default_factory=list)
    commands_run: int = 0
    boundaries: int = 0
    crashes: int = 0

    @property
    def ok(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        verdict = "OK" if self.ok else f"{len(self.divergences)} divergence(s)"
        return (
            f"seed={self.scenario.seed} bus={self.scenario.bus} "
            f"nodes={self.scenario.nodes} unmatched={self.scenario.unmatched} "
            f"commands={self.commands_run}/{len(self.scenario)} "
            f"boundaries={self.boundaries} -> {verdict}"
        )


def _sink(ctx, message):
    """Behavior of every scenario actor: consume silently."""


def _msg_of(envelope) -> int | None:
    payload = getattr(envelope.message, "payload", None)
    if isinstance(payload, dict):
        return payload.get("m")
    return None


class _Recorder:
    """Captures the runtime's routing choices and deliveries.

    Hops are recorded once per envelope (a dead letter's redelivery hops
    the *same* envelope again — the routing choice it validates was made
    at first routing); enqueues count every mailbox acceptance.
    """

    def __init__(self):
        self.routes: dict[int, list] = {}  #: msg -> [target addresses], hop order
        self.enqueued: Counter = Counter()  #: (msg, target address) -> count
        self._hopped: set[int] = set()

    def install(self, tracer) -> None:
        orig_hop = tracer.on_hop
        orig_enq = tracer.on_enqueued

        def on_hop(kind, envelope=None, **kw):
            if envelope is not None and envelope.envelope_id not in self._hopped:
                self._hopped.add(envelope.envelope_id)
                msg = _msg_of(envelope)
                if msg is not None and envelope.target is not None:
                    self.routes.setdefault(msg, []).append(envelope.target)
            return orig_hop(kind, envelope, **kw)

        def on_enqueued(envelope=None, **kw):
            msg = _msg_of(envelope)
            receiver = kw.get("receiver")
            if msg is not None and receiver is not None:
                self.enqueued[(msg, receiver)] += 1
            return orig_enq(envelope, **kw)

        tracer.on_hop = on_hop
        tracer.on_enqueued = on_enqueued


class _Run:
    """One co-execution of a scenario."""

    def __init__(self, scenario: Scenario, tiebreaker=None, inject=None,
                 shards: int = 1):
        self.scenario = scenario
        policy = UnmatchedPolicy[scenario.unmatched.upper()]
        self.system = ActorSpaceSystem(
            topology=Topology.lan(scenario.nodes),
            seed=scenario.seed,
            bus=scenario.bus,
            # Co-locate every shard's sequencer on node 0.  With the
            # jitter-free equal latencies below, every replica then
            # receives ops in exactly the cross-shard journal order the
            # sequencing node committed, so the model can replay the
            # journal as *the* recorded order.
            shards=shards, shard_sequencer=0,
            # Quantized, jitter-free latencies: every hop takes the same
            # virtual time, so events that §5.3 leaves unordered actually
            # *tie* in the queue — that is the schedule space the
            # tiebreakers explore.  Jittered latencies would serialize it.
            latency_model=LatencyModel(local=0.1, lan=0.1, wan=0.1, jitter=0.0),
            root_manager_factory=lambda: SpaceManager(unmatched=policy),
            # Bounded-but-roomy mailboxes, matching the TCP runtime's
            # default: far above any conformance trace's depth, so the
            # bound is semantically invisible — which is itself part of
            # what a conformance run now certifies.
            mailbox_capacity=DEFAULT_MAILBOX_CAPACITY,
        )
        self.system.events.tiebreaker = tiebreaker
        self._teardown = inject(self.system) if inject is not None else None
        self.recorder = _Recorder()
        self.recorder.install(self.system.tracer)
        self.name2addr = {"ROOT": self.system.root_space}
        self.addr2name = {self.system.root_space: "ROOT"}
        self.model = ReferenceModel(
            nodes=scenario.nodes, unmatched=scenario.unmatched,
            addr_key=lambda name: self.name2addr[name],
        )
        self.report = ConformanceReport(scenario=scenario)
        self._op_cursor = 0
        # Journal replay mirrors the coordinators' dependency parking:
        # spaces the model has *heard of* (live or destroyed) and vis ops
        # waiting for their containing space's ADD to cross shards.
        self._known_spaces: set[str] = set()
        self._space_waiting: dict[str, list[tuple[str, dict]]] = {}

    # -- divergence plumbing ------------------------------------------------

    def _diverge(self, index: int, kind: str, detail: str) -> None:
        self.report.divergences.append(Divergence(index, kind, detail))

    def _drain_model(self, index: int) -> None:
        for text in self.model.divergences:
            self._diverge(index, "arbitration", text)
        self.model.divergences.clear()

    def _choice_for(self, msg: int):
        routed = self.recorder.routes.get(msg)
        if not routed:
            return None
        return self.addr2name.get(routed[0])

    # -- execution ----------------------------------------------------------

    def execute(self) -> ConformanceReport:
        try:
            self._execute()
        finally:
            if self._teardown is not None:
                self._teardown()
        return self.report

    def _execute(self) -> None:
        prev_class = None
        prev_op = None
        for index, cmd in enumerate(self.scenario.commands):
            cls = COMMAND_CLASS[cmd["op"]]
            if self._boundary_before(prev_class, prev_op, cls, cmd["op"]):
                self.settle_and_sync(index)
                if not self.report.ok:
                    self.report.commands_run = index
                    return
            try:
                self._exec(index, cmd)
            except ActorSpaceError as exc:
                # Synchronous prechecks (capability, locally visible
                # cycles) reject on both sides: runtime raises before the
                # op is submitted, the model never sees it.  Anything the
                # model *would* have accepted shows up in the next
                # boundary diff, so a swallowed exception cannot hide a
                # real divergence.
                if cmd["op"] not in ("vis", "invis", "chattr", "destroy"):
                    self._diverge(index, "runtime-error",
                                  f"{cmd['op']}: {type(exc).__name__}: {exc}")
            self._drain_model(index)
            if not self.report.ok:
                self.report.commands_run = index + 1
                return
            if cls != "free":
                prev_class = cls
            prev_op = cmd["op"]
        self.report.commands_run = len(self.scenario.commands)
        self.settle_and_sync(-1)
        if self.report.ok:
            self._compare_deliveries()

    @staticmethod
    def _boundary_before(prev_class, prev_op, cls, op) -> bool:
        if cls == "free":
            return False
        # A detector must still be armed when the crash it should observe
        # happens; settling in between would run it to expiry first.
        if op == "crash" and prev_op == "detector":
            return False
        if cls == "ctl":
            return True
        return prev_class is not None and prev_class != cls

    def _exec(self, index: int, cmd: dict) -> None:
        op = cmd["op"]
        if op in ("actor", "space", "vis", "invis", "chattr", "destroy"):
            run_visibility(cmd, self.name2addr, self._call, _sink)
            if op in ("actor", "space"):
                self.addr2name[self.name2addr[cmd["name"]]] = cmd["name"]
                note = self.model.add_actor if op == "actor" \
                    else self.model.note_space
                note(cmd["name"], cmd["node"])
        elif op in ("send", "bcast"):
            space = cmd.get("space")
            destination = Destination(
                cmd["pattern"],
                self.name2addr[space] if space else None,
            )
            payload = {"m": cmd["msg"]}
            if cmd.get("ref"):
                payload["ref"] = self.name2addr[cmd["ref"]]
            if op == "send":
                self.system.send(destination, payload, node=cmd["node"])
            else:
                self.system.broadcast(destination, payload, node=cmd["node"])
            # The runtime dispatched synchronously; its routing choice is
            # already on record for the model to validate.
            self.model.dispatch(cmd, self._choice_for)
        elif op == "dsend":
            payload = {"m": cmd["msg"]}
            if cmd.get("ref"):
                payload["ref"] = self.name2addr[cmd["ref"]]
            self.system.send_to(self.name2addr[cmd["target"]], payload,
                                node=cmd["node"])
            self.model.direct_send(cmd)
        elif op == "hold":
            self.system.hold(self.name2addr[cmd["target"]])
            self.model.hold(cmd["target"])
        elif op == "release":
            self.system.release(self.name2addr[cmd["target"]])
            self.model.release(cmd["target"])
        elif op == "crash":
            self.system.crash_node(cmd["node"])
            self.model.crash(cmd["node"])
            self.report.crashes += 1
        elif op == "recover":
            self._exec_recover(index, cmd["node"])
        elif op == "detector":
            self.system.start_failure_detector(duration=cmd["duration"])
        elif op == "probe":
            self._exec_probe(index, cmd)
        elif op == "gc":
            self._exec_gc(index)
        elif op == "settle":
            pass  # the boundary already ran
        else:  # pragma: no cover - repair filters unknown ops
            raise AssertionError(f"unknown command {op!r}")

    def _call(self, node: int, verb: str, **args):
        return getattr(self.system, verb)(node=node, **args)

    def _exec_recover(self, index: int, node: int) -> None:
        """Recovery is its own boundary: drain the runtime's replay,
        rechecks and redeliveries, then mirror them in the model."""
        self.system.recover_node(node)
        self.system.run(max_events=MAX_EVENTS)
        if not self.system.idle:
            self._diverge(index, "no-quiescence",
                          f"recovery of node {node} did not drain")
            return
        self._apply_new_ops()
        self.model.recover(node, self._choice_for)
        self.settle_and_sync(index)

    # -- boundaries ---------------------------------------------------------

    def settle_and_sync(self, index: int) -> None:
        self.report.boundaries += 1
        self.system.run(max_events=MAX_EVENTS)
        if not self.system.idle:
            self._diverge(index, "no-quiescence",
                          f"simulation did not drain within {MAX_EVENTS} events")
            return
        observables = self.system.export_observables()
        # Masks are recorded (detector timing is schedule-dependent); in
        # generated scenarios they never move concurrently with op traffic,
        # so resync order relative to the op drain is immaterial.
        self.model.crashed = set(observables["crashed"])
        for node, masked in observables["masks"].items():
            self.model.masks[node] = set(masked)
        self._apply_new_ops()
        self._drain_model(index)
        self._compare_directories(index, observables)
        self._compare_parked(index, observables)
        self._compare_dead_letters(index, observables)

    def _apply_new_ops(self) -> None:
        # The recorded order is the cross-shard journal ((shard,
        # per-shard seq) at fan-out time), not a global sequence.  The
        # cursor is a journal index.  Replicas park actor-vis ops that
        # outran their containing space's ADD (which sequences on shard
        # 0) and drain them when the ADD applies — mirror that
        # reordering here, keyed on the spaces the model has heard of
        # (tombstones count: a vis on a destroyed space applies
        # immediately and gets rejected, exactly as on a replica).
        bus = self.system.bus
        fresh = bus.journal[self._op_cursor:]
        if not fresh:
            return
        self._op_cursor = len(bus.journal)
        ops: list[tuple[str, dict]] = []
        for k, seq in fresh:
            raw = bus.shards[k].log[seq]
            kind, args = self._translate_op(raw)
            if (raw.shard != 0
                    and kind in ("make_visible", "make_invisible",
                                 "change_attributes")
                    and args["space"] not in self._known_spaces):
                self._space_waiting.setdefault(
                    args["space"], []).append((kind, args))
                continue
            ops.append((kind, args))
            if kind == "add_space":
                self._known_spaces.add(args["name"])
                ops.extend(self._space_waiting.pop(args["name"], ()))
            elif kind == "destroy_space":
                self._known_spaces.add(args["name"])
        self.model.apply_ops(ops, self._choice_for)

    def _translate_op(self, op) -> tuple[str, dict]:
        kind, a = op.kind.value, op.args
        if kind in ("add_space", "destroy_space"):
            return kind, {"name": self.addr2name[a["address"]]}
        if kind in ("make_visible", "change_attributes"):
            attrs = a["attributes"]
            if isinstance(attrs, str):
                attrs = [attrs]
            return kind, {
                "space": self.addr2name[a["space"]],
                "target": self.addr2name[a["target"]],
                "attrs": [str(path) for path in attrs],
            }
        if kind == "make_invisible":
            return kind, {"space": self.addr2name[a["space"]],
                          "target": self.addr2name[a["target"]]}
        if kind == "purge":
            return kind, {"target": self.addr2name.get(a["target"], "?")}
        return kind, {}  # bind_capability: no observable directory effect

    # -- comparisons --------------------------------------------------------

    def _live_nodes(self, observables) -> list[int]:
        return [n for n in range(self.scenario.nodes)
                if n not in observables["crashed"]]

    def _compare_directories(self, index: int, observables) -> None:
        expected = self.model.export_directory()
        for node in self._live_nodes(observables):
            actual = {
                self.addr2name[space]: {
                    self.addr2name[target]: tuple(sorted(str(p) for p in attrs))
                    for target, attrs in registry.items()
                }
                for space, registry in observables["directories"][node].items()
            }
            if actual != expected:
                for space in sorted(set(actual) | set(expected)):
                    if actual.get(space) != expected.get(space):
                        self._diverge(
                            index, "directory",
                            f"node {node}, space {space!r}: runtime has "
                            f"{actual.get(space)!r}, model has "
                            f"{expected.get(space)!r}")
                        break

    def _compare_parked(self, index: int, observables) -> None:
        expected = self.model.export_parked()
        for node in self._live_nodes(observables):
            parked = observables["parked"][node]
            suspended = [_msg_of(env) for env in parked["suspended"]]
            if suspended != expected[node]["suspended"]:
                self._diverge(
                    index, "parked",
                    f"node {node} suspended: runtime {suspended}, "
                    f"model {expected[node]['suspended']} (§5.6)")
            persistent = sorted(
                (_msg_of(env), frozenset(self.addr2name[t] for t in delivered))
                for env, delivered in parked["persistent"]
            )
            want = sorted(expected[node]["persistent"])
            if persistent != want:
                self._diverge(
                    index, "parked",
                    f"node {node} persistent: runtime {persistent}, "
                    f"model {want}")

    def _compare_dead_letters(self, index: int, observables) -> None:
        actual = {
            node: sorted((_msg_of(l.envelope), self.addr2name[l.envelope.target])
                         for l in letters)
            for node, letters in observables["dead_letters"].items() if letters
        }
        expected = self.model.export_dead_letters()
        if actual != expected:
            self._diverge(index, "dead-letters",
                          f"runtime {actual!r}, model {expected!r}")

    def _exec_probe(self, index: int, cmd: dict) -> None:
        space = cmd.get("space", "ROOT")
        for node in range(self.scenario.nodes):
            if self.system.coordinators[node].crashed:
                continue
            found = run_visibility({**cmd, "node": node}, self.name2addr,
                                   self._call, _sink)
            actual = {self.addr2name[a] for a in found}
            expected = self.model.resolve_actors(cmd["pattern"], space, node)
            if actual != expected:
                self._diverge(
                    index, "resolution",
                    f"probe {cmd['pattern']!r}@{space} on node {node}: "
                    f"runtime {sorted(actual)}, model {sorted(expected)}")

    def _exec_gc(self, index: int) -> None:
        report = self.system.collect_garbage(delete=False)
        if report.kept_active:
            self._diverge(index, "gc",
                          f"actors active at quiescence: "
                          f"{sorted(self.addr2name.get(a, repr(a)) for a in report.kept_active)}")
        actual_actors = {self.addr2name[a] for a in report.collected_actors}
        actual_spaces = {self.addr2name[s] for s in report.collected_spaces}
        want_actors, want_spaces = self.model.gc_report()
        if actual_actors != want_actors:
            self._diverge(
                index, "gc",
                f"collected actors: runtime {sorted(actual_actors)}, "
                f"model {sorted(want_actors)} (§5.5)")
        if actual_spaces != want_spaces:
            self._diverge(
                index, "gc",
                f"collected spaces: runtime {sorted(actual_spaces)}, "
                f"model {sorted(want_spaces)} (§5.5)")

    def _compare_deliveries(self) -> None:
        actual = Counter({
            (msg, self.addr2name[target]): count
            for (msg, target), count in self.recorder.enqueued.items()
        })
        if actual != self.model.delivered:
            diff = (actual - self.model.delivered) + (self.model.delivered - actual)
            self._diverge(-1, "deliveries",
                          f"delivery multisets differ on {dict(diff)!r}")
        routed = Counter()
        for msg, targets in self.recorder.routes.items():
            for target in targets:
                routed[(msg, self.addr2name[target])] += 1
        if routed != self.model.routed:
            diff = (routed - self.model.routed) + (self.model.routed - routed)
            self._diverge(-1, "routing",
                          f"routing multisets differ on {dict(diff)!r}")


def check_scenario(scenario: Scenario, tiebreaker=None,
                   inject=None, shards: int = 1) -> ConformanceReport:
    """Run ``scenario`` against runtime and model; report divergences.

    ``tiebreaker`` optionally controls same-instant event ordering (see
    :mod:`repro.check.schedule`); ``inject`` optionally installs a bug
    (``inject(system) -> teardown``) for harness self-tests; ``shards``
    is the runtime side's stream count (co-located sequencers) while the
    model stays the single-order §5 reference.
    """
    return _Run(scenario, tiebreaker=tiebreaker, inject=inject,
                shards=shards).execute()
