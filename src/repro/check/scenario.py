"""Conformance scenarios: a command-trace format and a seeded generator.

A scenario is plain data — a config plus a list of command dicts — so it
round-trips through JSON (the ``.repro.json`` artifacts the shrinker
emits) and shrinks by deleting commands.  The oracle executes the same
trace against the runtime and the §5 reference model.

Command vocabulary (every command is a dict with an ``op`` key):

=============  ===============================================================
``actor``      ``{"op", "name", "node"}`` — create a sink actor
``space``      ``{"op", "name", "node", "attrs", "parent"}`` — create a space,
               optionally visible under ``attrs`` in ``parent`` (or ROOT)
``vis``        ``{"op", "target", "attrs", "space", "node"}`` — make_visible
``invis``      ``{"op", "target", "space", "node"}`` — make_invisible
``chattr``     ``{"op", "target", "attrs", "space", "node"}``
``destroy``    ``{"op", "target", "node"}`` — destroy a space
``send``       ``{"op", "pattern", "space", "space_pattern", "node", "msg",
               "ref"}`` — pattern send; ``ref`` optionally embeds an actor
               address in the payload (GC pin material)
``bcast``      same fields — pattern broadcast
``dsend``      ``{"op", "target", "node", "msg", "ref"}`` — direct send
``hold``       ``{"op", "target"}`` — pin as external GC root
``release``    ``{"op", "target"}`` — drop the external GC pin
``crash``      ``{"op", "node"}``
``recover``    ``{"op", "node"}``
``detector``   ``{"op", "duration"}`` — arm the failure detector
``probe``      ``{"op", "pattern", "space"}`` — compare resolution on every
               live replica against the model
``gc``         ``{"op"}`` — compare a non-destructive GC cycle
``settle``     ``{"op"}`` — explicit quiescence boundary (the executor also
               settles automatically between command classes, so deleting a
               ``settle`` never changes semantics — which keeps shrinking
               sound)
=============  ===============================================================

Names, not addresses: commands refer to actors/spaces by generated names
(``a0``, ``s1``, the root space is ``"ROOT"``), bound to runtime addresses
by the executor.  That keeps traces serializable and lets the shrinker
drop a creation command and every later reference to it via
:func:`repair_commands`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

#: Attribute-atom vocabulary: small on purpose, so generated patterns
#: collide, overlap, and exercise structured descent instead of missing.
ATOMS = ["svc", "db", "web", "img", "job", "aux"]

#: Which settle class each op belongs to.  The executor auto-settles when
#: the class changes ("vis" ops and "msg" sends never interleave inside
#: one burst), and always before a "ctl" command.  "free" ops are
#: transparent: purely local, no bus traffic, no messages.
COMMAND_CLASS = {
    "actor": "free", "hold": "free", "release": "free",
    "space": "vis", "vis": "vis", "invis": "vis", "chattr": "vis",
    "destroy": "vis",
    "send": "msg", "bcast": "msg", "dsend": "msg",
    "crash": "ctl", "recover": "ctl", "detector": "ctl", "probe": "ctl",
    "gc": "ctl", "settle": "ctl",
}


@dataclass
class Scenario:
    """One conformance run: fixed config plus an ordered command trace."""

    nodes: int
    bus: str
    seed: int
    unmatched: str  #: root-space policy: "suspend" | "persistent" | "discard"
    commands: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps({
            "nodes": self.nodes, "bus": self.bus, "seed": self.seed,
            "unmatched": self.unmatched, "commands": self.commands,
        }, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        data = json.loads(text)
        return cls(
            nodes=int(data["nodes"]), bus=data["bus"], seed=int(data["seed"]),
            unmatched=data.get("unmatched", "suspend"),
            commands=list(data["commands"]),
        )

    def with_commands(self, commands: list) -> "Scenario":
        return replace(self, commands=list(commands))

    def __len__(self) -> int:
        return len(self.commands)


# ---------------------------------------------------------------------------
# The visibility vocabulary, executed
# ---------------------------------------------------------------------------

#: The commands that create, place and look up: what a host's driver
#: verbs (:class:`repro.runtime.host.Host`) can be asked over any door.
VISIBILITY_OPS = ("actor", "space", "vis", "invis", "chattr", "destroy",
                  "probe")


def run_visibility(cmd: dict, names: dict, call, behavior):
    """Execute one :data:`VISIBILITY_OPS` command on a host.

    ``call(node, verb, **args)`` invokes driver verb ``verb`` at ``node``
    and returns its value — a method call on a simulator, a control
    request to a node process.  ``names`` binds scenario names to
    addresses (the caller seeds ``"ROOT"``) and gains the name a
    creation binds; ``behavior`` is what an ``actor`` runs.  A ``probe``
    resolves at ``cmd["node"]``: the caller asks once per replica.
    """
    op, node = cmd["op"], cmd["node"]
    if op == "actor":
        names[cmd["name"]] = call(node, "create_actor", behavior=behavior)
    elif op == "space":
        parent = cmd.get("parent")
        names[cmd["name"]] = call(
            node, "create_space", attributes=cmd.get("attrs"),
            parent=names[parent] if parent else None)
    elif op == "vis":
        call(node, "make_visible", target=names[cmd["target"]],
             attributes=cmd["attrs"], space=names[cmd["space"]])
    elif op == "invis":
        call(node, "make_invisible", target=names[cmd["target"]],
             space=names[cmd["space"]])
    elif op == "chattr":
        call(node, "change_attributes", target=names[cmd["target"]],
             attributes=cmd["attrs"], space=names[cmd["space"]])
    elif op == "destroy":
        call(node, "destroy_space", address=names[cmd["target"]])
    elif op == "probe":
        return call(node, "resolve", pattern=cmd["pattern"],
                    space=names[cmd.get("space", "ROOT")])
    else:
        raise ValueError(f"not a visibility command: {op!r}")


# ---------------------------------------------------------------------------
# Validity repair
# ---------------------------------------------------------------------------

def repair_commands(nodes: int, commands: list) -> list:
    """Drop commands made meaningless by earlier deletions.

    The shrinker deletes arbitrary command subsets; what remains must
    still be a well-formed trace (no references to never-created names,
    no recover without a crash, at most one concurrently crashed node, no
    command issued *from* a crashed node).  Repair is deterministic and
    order-preserving, so a repaired subset reproduces deterministically.
    """
    actors: set[str] = set()
    spaces: set[str] = {"ROOT"}
    alive: set[str] = {"ROOT"}
    crashed: set[int] = set()
    out: list = []

    def node_ok(cmd) -> bool:
        n = cmd.get("node", 0)
        return 0 <= n < nodes and n not in crashed

    for cmd in commands:
        op = cmd.get("op")
        keep = False
        if op == "actor":
            if node_ok(cmd) and cmd["name"] not in actors | spaces:
                actors.add(cmd["name"])
                keep = True
        elif op == "space":
            parent = cmd.get("parent")
            if (node_ok(cmd) and cmd["name"] not in actors | spaces
                    and (parent is None or parent in alive)):
                spaces.add(cmd["name"])
                alive.add(cmd["name"])
                keep = True
        elif op in ("vis", "invis", "chattr"):
            target = cmd["target"]
            keep = (node_ok(cmd) and cmd["space"] in alive
                    and (target in actors or target in alive))
        elif op == "destroy":
            if node_ok(cmd) and cmd["target"] in alive and cmd["target"] != "ROOT":
                alive.discard(cmd["target"])
                keep = True
        elif op in ("send", "bcast"):
            space = cmd.get("space")
            if node_ok(cmd) and (space is None or space in alive):
                cmd = dict(cmd)
                if cmd.get("ref") not in actors:
                    cmd["ref"] = None
                keep = True
        elif op == "dsend":
            if node_ok(cmd) and cmd["target"] in actors:
                cmd = dict(cmd)
                if cmd.get("ref") not in actors:
                    cmd["ref"] = None
                keep = True
        elif op in ("hold", "release"):
            keep = cmd["target"] in actors | spaces
        elif op == "crash":
            n = cmd.get("node", 0)
            if 0 <= n < nodes and n not in crashed and not crashed:
                crashed.add(n)
                keep = True
        elif op == "recover":
            n = cmd.get("node", 0)
            if n in crashed:
                crashed.discard(n)
                keep = True
        elif op == "detector":
            keep = cmd.get("duration", 0) > 0
        elif op == "probe":
            keep = cmd.get("space", "ROOT") in alive
        elif op == "gc":
            keep = not crashed
        elif op == "settle":
            keep = True
        if keep:
            out.append(cmd)
    return out


# ---------------------------------------------------------------------------
# Seeded generation
# ---------------------------------------------------------------------------

def _gen_path(rng: np.random.Generator, depth: int = 3) -> str:
    n = int(rng.integers(1, depth + 1))
    return "/".join(str(rng.choice(ATOMS)) for _ in range(n))


def _gen_attrs(rng: np.random.Generator) -> list[str]:
    return sorted({_gen_path(rng) for _ in range(int(rng.integers(1, 3)))})


def _gen_pattern(rng: np.random.Generator, used: list[str]) -> str:
    """A pattern biased toward (near-)hits on attributes already in play."""
    base = str(rng.choice(used)) if used and rng.random() < 0.85 else _gen_path(rng)
    atoms = base.split("/")
    roll = rng.random()
    if roll < 0.30:
        return base
    if roll < 0.50:
        atoms[int(rng.integers(0, len(atoms)))] = "*"
        return "/".join(atoms)
    if roll < 0.65:
        return atoms[0] + "/**" if rng.random() < 0.5 else "**/" + atoms[-1]
    if roll < 0.72:
        return "**"
    if roll < 0.84:
        atom = atoms[int(rng.integers(0, len(atoms)))]
        atoms[atoms.index(atom)] = atom[0] + "*"
        return "/".join(atoms)
    if roll < 0.92:
        return "~" + atoms[0][0] + ".*"
    return _gen_path(rng)  # likely miss: exercises the unmatched policy


def generate_scenario(
    seed: int,
    nodes: int | None = None,
    bus: str | None = None,
    faults: bool | None = None,
) -> Scenario:
    """Deterministically grow one interesting scenario from ``seed``.

    ``faults=None`` enables a crash/recover window for every fifth seed
    (``seed % 5 == 3``), so a default 50-seed sweep always includes
    crash/recover schedules.
    """
    rng = np.random.default_rng(seed)
    if nodes is None:
        nodes = int(rng.integers(2, 5))
    if bus is None:
        bus = "sequencer" if seed % 2 == 0 else "token-ring"
    if faults is None:
        faults = seed % 5 == 3
    unmatched = str(rng.choice(
        ["suspend", "persistent", "discard"], p=[0.6, 0.25, 0.15]
    ))

    commands: list = []
    actors: list[str] = []
    spaces: list[str] = ["ROOT"]
    used_attrs: list[str] = []
    crashed: int | None = None
    next_msg = 0
    names = iter(range(10_000))

    def live_node() -> int:
        choices = [n for n in range(nodes) if n != crashed]
        return int(rng.choice(choices))

    def add_actor() -> str:
        name = f"a{next(names)}"
        commands.append({"op": "actor", "name": name, "node": live_node()})
        actors.append(name)
        if rng.random() < 0.5:
            commands.append({"op": "release", "target": name})
        return name

    def add_space() -> str:
        name = f"s{next(names)}"
        parent = str(rng.choice(spaces)) if rng.random() < 0.4 else None
        attrs = _gen_attrs(rng) if rng.random() < 0.8 else None
        commands.append({"op": "space", "name": name, "node": live_node(),
                         "attrs": attrs, "parent": parent})
        if attrs:
            used_attrs.extend(attrs)
        spaces.append(name)
        if rng.random() < 0.3:
            commands.append({"op": "release", "target": name})
        return name

    def vis_burst(count: int) -> None:
        for _ in range(count):
            roll = rng.random()
            if roll < 0.55 and actors:
                attrs = _gen_attrs(rng)
                used_attrs.extend(attrs)
                commands.append({
                    "op": "vis", "target": str(rng.choice(actors)),
                    "attrs": attrs, "space": str(rng.choice(spaces)),
                    "node": live_node(),
                })
            elif roll < 0.70 and actors:
                commands.append({
                    "op": "chattr", "target": str(rng.choice(actors)),
                    "attrs": _gen_attrs(rng), "space": str(rng.choice(spaces)),
                    "node": live_node(),
                })
            elif roll < 0.82 and actors:
                commands.append({
                    "op": "invis", "target": str(rng.choice(actors)),
                    "space": str(rng.choice(spaces)), "node": live_node(),
                })
            elif roll < 0.94 and len(spaces) > 1:
                # Space-in-space visibility, including deliberate cycle
                # attempts — both sides must reject those identically.
                child, parent = rng.choice(spaces, size=2)
                attrs = _gen_attrs(rng)
                used_attrs.extend(attrs)
                commands.append({
                    "op": "vis", "target": str(child), "attrs": attrs,
                    "space": str(parent), "node": live_node(),
                })
            elif len(spaces) > 2:
                victim = str(rng.choice([s for s in spaces if s != "ROOT"]))
                commands.append({"op": "destroy", "target": victim,
                                 "node": live_node()})
                spaces.remove(victim)

    def msg_burst(count: int) -> None:
        nonlocal next_msg
        for _ in range(count):
            roll = rng.random()
            ref = str(rng.choice(actors)) if actors and rng.random() < 0.25 else None
            if roll < 0.55:
                op = "send"
            elif roll < 0.85:
                op = "bcast"
            else:
                op = "dsend"
            if op == "dsend" and actors:
                commands.append({"op": "dsend", "target": str(rng.choice(actors)),
                                 "node": live_node(), "msg": next_msg, "ref": ref})
            else:
                space = None
                if rng.random() < 0.35 and len(spaces) > 1:
                    space = str(rng.choice(spaces))
                commands.append({
                    "op": "send" if op == "dsend" else op,
                    "pattern": _gen_pattern(rng, used_attrs),
                    "space": space, "space_pattern": None,
                    "node": live_node(), "msg": next_msg, "ref": ref,
                })
            next_msg += 1

    # -- setup phase --------------------------------------------------------
    for _ in range(int(rng.integers(3, 7))):
        add_actor()
    for _ in range(int(rng.integers(1, 3))):
        add_space()
    vis_burst(int(rng.integers(3, 7)))
    commands.append({"op": "settle"})

    # -- main rounds --------------------------------------------------------
    rounds = int(rng.integers(3, 7))
    fault_round = int(rng.integers(0, rounds)) if faults else -1
    for round_no in range(rounds):
        if round_no == fault_round:
            victim = int(rng.integers(0, nodes))
            commands.append({"op": "detector",
                             "duration": 4.0 + float(rng.integers(0, 3))})
            commands.append({"op": "crash", "node": victim})
            crashed = victim
            msg_burst(int(rng.integers(2, 5)))
            if rng.random() < 0.5:
                vis_burst(int(rng.integers(1, 4)))
            commands.append({"op": "recover", "node": victim})
            crashed = None
            msg_burst(int(rng.integers(1, 4)))
            continue
        roll = rng.random()
        if roll < 0.35:
            if rng.random() < 0.3:
                add_actor()
            vis_burst(int(rng.integers(2, 6)))
        elif roll < 0.75:
            msg_burst(int(rng.integers(2, 6)))
        elif roll < 0.88:
            commands.append({
                "op": "probe", "pattern": _gen_pattern(rng, used_attrs),
                "space": str(rng.choice(spaces)),
            })
        else:
            commands.append({"op": "gc"})

    # -- closing audit ------------------------------------------------------
    commands.append({"op": "settle"})
    commands.append({"op": "probe", "pattern": "**", "space": "ROOT"})
    commands.append({"op": "gc"})

    return Scenario(nodes=nodes, bus=bus, seed=seed, unmatched=unmatched,
                    commands=repair_commands(nodes, commands))
