"""Conformance oracle over a *persisted* bus log.

The live conformance harness co-executes the runtime against the §5
reference model.  This module points the same model at what a node
wrote to disk: a data directory is re-driven op by op through the
coordinator's apply path, as recovery drives it, each op's
accept/reject outcome compared against the model's verdict and the
final directories diffed — so the durability layer's claim ("what we
persisted *is* the history") is itself checkable offline.

Two layers of checks:

* **Structural** — always run, on every shard's log: sequence numbers
  must be gap-free and duplicate-free, per-origin ``origin_seq`` must
  be FIFO in bus order, and no ``(origin_node, origin_seq)`` pair may be
  sequenced twice (the dedup invariant the remote bus enforces on the
  wire).
* **Semantic** — run when the log is one shard's and reaches back to
  seq 0 (i.e. it has not been truncated past genesis): translate each
  op to the model's name-keyed vocabulary with deterministic address
  naming and check every accept/reject and the final visibility state
  (the model is unsharded, and cannot start from a snapshot).  Ops the
  runtime rejects on *capability* grounds are skipped in the model,
  which deliberately does not model capabilities (they are checked by
  the live harness's recorded-outcome path instead).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.addresses import SpaceAddress
from ..core.errors import CapabilityError
from ..runtime.bus import OpKind, VisibilityOp
from ..runtime.system import ActorSpaceSystem
from ..store.recovery import apply_suffix
from .model import ReferenceModel

if TYPE_CHECKING:  # pragma: no cover
    from ..store.node_store import RecoveredState

#: The bootstrap root space every node shares (minted by node 0).
_ROOT = SpaceAddress(0, 0)


def _name_of(addr) -> str:
    if addr == _ROOT:
        return "ROOT"
    tag = "s" if isinstance(addr, SpaceAddress) else "a"
    return f"n{addr.node}{tag}{addr.serial}"


def _addr_key(name: str):
    if name == "ROOT":
        return (0, 0)
    body = name[1:]
    for tag in ("s", "a"):
        if tag in body:
            node_text, _, serial_text = body.partition(tag)
            try:
                return (int(node_text), int(serial_text))
            except ValueError:
                break
    return (1 << 60, name)


def _attr_strings(attributes) -> list[str]:
    if isinstance(attributes, (str,)) or not hasattr(attributes, "__iter__"):
        return [str(attributes)]
    return [str(a) for a in attributes]


def translate_op(op: VisibilityOp) -> tuple[str, dict] | None:
    """A persisted op in the model's vocabulary; None for no-directory-
    effect ops (bind_capability)."""
    a = op.args
    if op.kind is OpKind.ADD_SPACE:
        return "add_space", {"name": _name_of(a["address"])}
    if op.kind is OpKind.DESTROY_SPACE:
        return "destroy_space", {"name": _name_of(a["address"])}
    if op.kind is OpKind.MAKE_VISIBLE:
        return "make_visible", {
            "space": _name_of(a["space"]), "target": _name_of(a["target"]),
            "attrs": _attr_strings(a["attributes"]),
        }
    if op.kind is OpKind.MAKE_INVISIBLE:
        return "make_invisible", {
            "space": _name_of(a["space"]), "target": _name_of(a["target"]),
        }
    if op.kind is OpKind.CHANGE_ATTRIBUTES:
        return "change_attributes", {
            "space": _name_of(a["space"]), "target": _name_of(a["target"]),
            "attrs": _attr_strings(a["attributes"]),
        }
    if op.kind is OpKind.PURGE:
        return "purge", {"target": _name_of(a["target"])}
    if op.kind is OpKind.BIND_CAPABILITY:
        return None
    raise AssertionError(f"unknown op kind {op.kind}")


def _structural_problems(ops: dict[int, VisibilityOp]) -> list[str]:
    problems: list[str] = []
    seqs = sorted(ops)
    for prev, cur in zip(seqs, seqs[1:]):
        if cur != prev + 1:
            problems.append(
                f"sequence gap: seq {prev} is followed by {cur} "
                f"({cur - prev - 1} op(s) missing)")
    seen: dict[tuple[int, int], int] = {}
    last_origin_seq: dict[int, int] = {}
    for seq in seqs:
        op = ops[seq]
        key = (op.origin_node, op.origin_seq)
        if key in seen:
            problems.append(
                f"duplicate origin pair {key} sequenced at both "
                f"{seen[key]} and {seq}")
        seen[key] = seq
        prev = last_origin_seq.get(op.origin_node)
        if prev is not None and op.origin_seq <= prev:
            problems.append(
                f"origin FIFO violated for node {op.origin_node}: "
                f"origin_seq {op.origin_seq} at seq {seq} after {prev}")
        last_origin_seq[op.origin_node] = op.origin_seq
    return problems


def check_ops(ops: dict[int, VisibilityOp]) -> list[str]:
    """The §5 model's verdict on every op of a one-shard log that reaches
    back to genesis, applied the way recovery applies it."""
    problems: list[str] = []
    model = ReferenceModel(
        nodes=max((op.origin_node for op in ops.values()), default=0) + 1,
        unmatched="suspend", addr_key=_addr_key)
    for op in ops.values():
        if op.kind is OpKind.ADD_SPACE:
            model.note_space(_name_of(op.args["address"]),
                             op.args.get("node", op.origin_node))
    coordinator = ActorSpaceSystem().coordinators[0]
    for _shard, seq, op, error in apply_suffix(coordinator, {0: ops}):
        translated = translate_op(op)
        if translated is None or isinstance(error, CapabilityError):
            continue  # the model does not track capabilities
        kind, args = translated
        model_applied = model._apply_op(kind, args)
        if (error is None) != model_applied:
            runtime = "applied" if error is None \
                else f"rejected ({type(error).__name__})"
            problems.append(
                f"seq {seq} ({kind}): runtime {runtime} but the model "
                f"{'applied' if model_applied else 'rejected'}")
    model_dir = {
        name: {t: list(attrs) for t, attrs in sorted(registry.items())}
        for name, registry in model.export_directory().items()
    }
    named_runtime = _rename_runtime_directory(coordinator.directory)
    if named_runtime != model_dir:
        extra = set(named_runtime) - set(model_dir)
        missing = set(model_dir) - set(named_runtime)
        diffs = [
            space for space in set(named_runtime) & set(model_dir)
            if named_runtime[space] != model_dir[space]
        ]
        problems.append(
            f"final directory mismatch: runtime-only spaces {sorted(extra)}, "
            f"model-only {sorted(missing)}, differing {sorted(diffs)}")
    return problems


def _rename_runtime_directory(directory) -> dict:
    out = {}
    for addr, registry in directory.snapshot().items():
        out[_name_of(addr)] = {
            _name_of(target): sorted(str(p) for p in attrs)
            for target, attrs in registry.items()
        }
    return out


def check_recovered(recovered: "RecoveredState",
                    shard_ops: "dict[int, dict] | None" = None,
                    until: int | None = None) -> list[str]:
    """Check a data directory read as ``(recovered, shard_ops)``; returns
    problem strings.

    The structural checks run on every shard's log, each problem
    prefixed with its shard.  The model check runs only on a one-shard
    log that reaches genesis: the model speaks names, not addresses, so
    it cannot be seeded from a snapshot, and it is unsharded, so it has
    no order to hold a plane of several streams to.  ``until`` cuts
    every shard after its op ``until``.
    """
    if shard_ops is None:
        shard_ops = {0: recovered.ops}
    cut = {k: {s: op for s, op in ops.items() if until is None or s <= until}
           for k, ops in shard_ops.items()}
    problems = [f"shard {k}: {problem}" for k, ops in sorted(cut.items())
                for problem in _structural_problems(ops)]
    if list(cut) == [0] and 0 in cut[0]:
        problems += check_ops(cut[0])
    return problems
