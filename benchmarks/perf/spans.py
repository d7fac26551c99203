"""Span recorder and the table of calls it wraps, one entry per layer.

The program under test carries no span code.  ``install`` wraps the
*public* functions of each layer from out here (class methods by
assignment on the class, module functions in every ``repro`` module
that imported them, event actions by their ``schedule(tag=...)`` label)
and a :class:`Recorder` keeps what they see:

* a **span** per wrapped call — id, name, start, end, parent id and the
  envelope/op id it worked on — with *self time* (duration minus the
  time its child spans cover) summed per name;
* **waits** — intervals between two calls that are nobody's self time
  (mailbox deliver→next_ready, bus submit→apply at the origin);
* **counts** of things that are neither.

Wrapped functions are synchronous, so the open-span stack is exact even
in the asyncio node processes: a coroutine can only be suspended
between wrapped calls, never inside one.  Time spent in the wrappers
themselves lands in the parent's self time; ``harness.trace_overhead_
ratio`` says how much that distorts a traced run.
"""

from __future__ import annotations

import json
import sys
import time

#: Layer name of an event action, by the first element of its
#: ``EventQueue.schedule(tag=...)`` label (the queue's public way of
#: saying what an event does).
EVENT_LAYERS = {
    "deliver": "runtime.coordinator.deliver",
    "process": "runtime.coordinator.process",
    "bus": "runtime.bus.deliver",
    "bus_seq": "runtime.bus.sequence",
    "bus_ctl": "runtime.bus.redrive",
}
UNTAGGED_EVENT = "runtime.events.other"

#: Raw spans kept per recording window; aggregates stay exact beyond it.
KEEP_SPANS = 100_000
#: Wait samples shipped out of a process per wait name.
KEEP_WAIT_SAMPLES = 20_000


class Recorder:
    """In-memory spans, waits and counts for one process."""

    def __init__(self, keep: int = KEEP_SPANS):
        self.enabled = False
        self.keep = keep
        #: Open spans, innermost last: [span id, child ns, ident].
        self._stack: list[list] = []
        self.reset()

    def reset(self) -> None:
        """Start a fresh recording window (open spans are abandoned)."""
        self._stack.clear()
        self._next_id = 0
        #: name -> [calls, self ns, inclusive ns]
        self.stats: dict[str, list[int]] = {}
        #: (id, name, start ns, end ns, parent id or -1, ident or None)
        self.spans: list[tuple] = []
        self.waits: dict[str, list[int]] = {}
        self._marks: dict[str, dict] = {}
        self.counts: dict[str, int] = {}

    # -- recording ---------------------------------------------------------------

    def wrap(self, fn, name: str, ident=None):
        """``fn`` with a span named ``name`` around every call.

        ``ident(args)`` extracts the envelope/op id; without one a span
        inherits its parent's.
        """
        rec = self
        clock = time.perf_counter_ns

        def spanned(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            stack = rec._stack
            parent = stack[-1] if stack else None
            if ident is not None:
                tag = ident(args)
            else:
                tag = parent[2] if parent is not None else None
            frame = [rec._next_id, 0, tag]
            rec._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                # ``reset`` may have run inside the call (the control
                # actor's own invocation): then the frame is gone.
                if stack and stack[-1] is frame:
                    stack.pop()
                    duration = end - start
                    if parent is not None:
                        parent[1] += duration
                    entry = rec.stats.get(name)
                    if entry is None:
                        entry = rec.stats[name] = [0, 0, 0]
                    entry[0] += 1
                    entry[1] += duration - frame[1]
                    entry[2] += duration
                    if len(rec.spans) < rec.keep:
                        rec.spans.append(
                            (frame[0], name, start, end,
                             parent[0] if parent is not None else -1, tag))

        spanned.__wrapped__ = fn
        spanned.__name__ = getattr(fn, "__name__", name)
        return spanned

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def mark(self, name: str, key) -> None:
        """Open the wait ``name`` for ``key`` (closed by :meth:`waited`)."""
        marks = self._marks.get(name)
        if marks is None:
            marks = self._marks[name] = {}
        marks[key] = time.perf_counter_ns()

    def waited(self, name: str, key) -> None:
        marks = self._marks.get(name)
        started = marks.pop(key, None) if marks else None
        if started is not None:
            self.waits.setdefault(name, []).append(
                time.perf_counter_ns() - started)

    # -- reading -----------------------------------------------------------------

    def summary(self) -> dict:
        """Plain data (wire- and JSON-encodable) for this window."""
        waits = {}
        for name, samples in self.waits.items():
            stride = max(1, len(samples) // KEEP_WAIT_SAMPLES)
            waits[name] = {"count": len(samples), "total_ns": sum(samples),
                           "samples_ns": samples[::stride]}
        return {"spans": {k: list(v) for k, v in self.stats.items()},
                "waits": waits, "counts": dict(self.counts)}

    def dump(self, path: str) -> None:
        """Write the kept raw spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as out:
            for sid, name, start, end, parent, tag in self.spans:
                out.write(json.dumps({"id": sid, "name": name, "start_ns": start,
                                      "end_ns": end, "parent": parent,
                                      "op": tag}) + "\n")


def merge_summaries(summaries: list[dict]) -> dict:
    """Sum per-process summaries into one (waits pool their samples)."""
    merged: dict = {"spans": {}, "waits": {}, "counts": {}}
    for summary in summaries:
        for name, (calls, self_ns, incl_ns) in summary["spans"].items():
            entry = merged["spans"].setdefault(name, [0, 0, 0])
            entry[0] += calls
            entry[1] += self_ns
            entry[2] += incl_ns
        for name, wait in summary["waits"].items():
            entry = merged["waits"].setdefault(
                name, {"count": 0, "total_ns": 0, "samples_ns": []})
            entry["count"] += wait["count"]
            entry["total_ns"] += wait["total_ns"]
            entry["samples_ns"].extend(wait["samples_ns"])
        for name, n in summary["counts"].items():
            merged["counts"][name] = merged["counts"].get(name, 0) + n
    return merged


# -- the wrap table ----------------------------------------------------------------

def _envelope_id(args):
    return args[1].envelope_id


def _op_id(args):
    return args[1].op_id


def _patch_method(rec: Recorder, cls, attr: str, name: str, ident=None) -> None:
    setattr(cls, attr, rec.wrap(cls.__dict__[attr], name, ident))


def _patch_function(rec: Recorder, module, attr: str, name: str) -> None:
    """Wrap ``module.attr`` wherever a loaded repro module refers to it."""
    original = getattr(module, attr)
    wrapped = rec.wrap(original, name)
    for mod in list(sys.modules.values()):
        if mod is None or not getattr(mod, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)


def install(rec: Recorder) -> None:
    """Wrap every layer's public entry points (once per process)."""
    import os
    import selectors

    from repro.core import matching
    from repro.core.mailbox import Mailbox
    from repro.core.visibility import Directory
    from repro.interp.actor_interface import InterpretedBehavior
    from repro.interp.evaluator import Evaluator
    from repro.interp.vm import VM
    from repro.net import codec
    from repro.net.codec import FrameDecoder
    from repro.net.peer import PeerHub
    from repro.net.remote import RemoteSequencerBus
    from repro.net.runtime import NodeRuntime
    from repro.runtime.bus import SequencerBus
    from repro.runtime.coordinator import Coordinator
    from repro.runtime.events import EventQueue
    from repro.runtime.system import ActorSpaceSystem
    from repro.shard.map import ShardMap
    from repro.shard.router import ShardRouter
    from repro.store.node_store import NodeStore

    # core.matching — both resolve functions; the destination resolver
    # reaches resolve_spaces through the module global patched here.
    _patch_function(rec, matching, "resolve_actors", "core.matching.resolve")
    _patch_function(rec, matching, "resolve_spaces", "core.matching.resolve")

    for attr in ("make_visible", "make_invisible", "change_attributes"):
        _patch_method(rec, Directory, attr, "core.visibility.apply")

    # core.mailbox — spans plus the deliver→next_ready wait.
    deliver = rec.wrap(Mailbox.__dict__["deliver"], "core.mailbox.deliver",
                       _envelope_id)
    next_ready = rec.wrap(Mailbox.__dict__["next_ready"],
                          "core.mailbox.next_ready")

    def mailbox_deliver(self, envelope):
        shed = deliver(self, envelope)
        if rec.enabled:
            rec.mark("core.mailbox.wait", envelope.envelope_id)
        return shed

    def mailbox_next_ready(self):
        envelope = next_ready(self)
        if envelope is not None and rec.enabled:
            rec.waited("core.mailbox.wait", envelope.envelope_id)
        return envelope

    Mailbox.deliver = mailbox_deliver
    Mailbox.next_ready = mailbox_next_ready

    # runtime.events — queue work itself, and every event action as a
    # span of the layer its tag names.
    push = rec.wrap(EventQueue.__dict__["schedule"], "runtime.events.queue")

    def schedule(self, time, action, priority=0, tag=None):
        if rec.enabled:
            layer = EVENT_LAYERS.get(tag[0], UNTAGGED_EVENT) \
                if isinstance(tag, tuple) and tag else UNTAGGED_EVENT
            action = rec.wrap(action, layer)
        return push(self, time, action, priority, tag)

    EventQueue.schedule = schedule
    _patch_method(rec, EventQueue, "pop", "runtime.events.queue")
    _patch_method(rec, ActorSpaceSystem, "run", "runtime.system.run")

    # runtime.coordinator — the three send primitives, the visibility
    # calls, and the apply path with the submit→apply-at-origin wait.
    for attr in ("send_pattern", "send_direct", "broadcast_pattern"):
        _patch_method(rec, Coordinator, attr, "runtime.coordinator.send",
                      _envelope_id)
    for attr in ("make_visible", "make_invisible", "change_attributes"):
        _patch_method(rec, Coordinator, attr, "runtime.coordinator.vis_call")
    apply = rec.wrap(Coordinator.__dict__["on_bus_delivery"],
                     "runtime.coordinator.apply", lambda args: args[2].op_id)

    def on_bus_delivery(self, seq, op):
        apply(self, seq, op)
        if rec.enabled and op.origin_node == self.node_id:
            rec.waited("bus.submit_to_apply", op.op_id)

    Coordinator.on_bus_delivery = on_bus_delivery

    def bus_submit(cls, name):
        spanned = rec.wrap(cls.__dict__["submit"], name, _op_id)

        def submit(self, op):
            if rec.enabled:
                rec.mark("bus.submit_to_apply", op.op_id)
                if getattr(self, "runtime", None) is not None \
                        and self.sequencer_node != self.runtime.node_id:
                    rec.count("net.remote.forwarded")
            return spanned(self, op)

        cls.submit = submit

    bus_submit(SequencerBus, "runtime.bus.submit")
    bus_submit(RemoteSequencerBus, "net.remote.submit")
    for attr in ("on_submit", "on_op", "on_sync_req"):
        _patch_method(rec, RemoteSequencerBus, attr, f"net.remote.{attr}")

    # behavior.invoke / interp — the script language's behaviour class
    # here; the benchmark's own native behaviours wrap themselves.
    _patch_method(rec, InterpretedBehavior, "receive", "behavior.invoke")
    _patch_method(rec, Evaluator, "run_body", "interp.tree")
    _patch_method(rec, VM, "run", "interp.vm")

    # shard
    _patch_method(rec, ShardRouter, "shard_for_op", "shard.router.route")
    _patch_method(rec, ShardMap, "owner_of", "shard.map.owner")
    is_fanned = ShardRouter.__dict__["is_fanned"]

    def counted_is_fanned(self, kind):
        fanned = is_fanned(self, kind)
        if rec.enabled:
            rec.count("shard.router.routed")
            if fanned:
                rec.count("shard.router.fanned")
        return fanned

    ShardRouter.is_fanned = counted_is_fanned

    # store — fsync is the one stdlib call wrapped: it is the disk.
    _patch_method(rec, NodeStore, "append_op", "store.node_store.append")
    _patch_method(rec, NodeStore, "commit", "store.node_store.commit")
    os.fsync = rec.wrap(os.fsync, "store.segment.fsync")

    # net — codec, the hub's send side, the runtime's two directions
    # (``on_frame`` is the callback the hub is constructed with), and the
    # selector wait, so idle time is a named row instead of "unaccounted".
    _patch_function(rec, codec, "encode_frame", "net.codec.encode")
    _patch_method(rec, FrameDecoder, "feed", "net.codec.decode")
    for attr in ("send_link", "broadcast"):
        _patch_method(rec, PeerHub, attr, "net.peer.send")
    _patch_method(rec, NodeRuntime, "forward_envelope", "net.runtime.forward",
                  _envelope_id)
    hub_init = PeerHub.__dict__["__init__"]

    def init_with_spanned_on_frame(self, node_id, ports, on_frame, **kwargs):
        hub_init(self, node_id, ports,
                 rec.wrap(on_frame, "net.runtime.on_frame"), **kwargs)

    PeerHub.__init__ = init_with_spanned_on_frame
    for name in ("EpollSelector", "PollSelector", "SelectSelector"):
        selector = getattr(selectors, name, None)
        if selector is not None and "select" in selector.__dict__:
            _patch_method(rec, selector, "select", "host.idle")


def wrap_receive(rec: Recorder, *behavior_classes) -> None:
    """Span the benchmark's own native behaviours as ``behavior.invoke``."""
    for cls in behavior_classes:
        _patch_method(rec, cls, "receive", "behavior.invoke")
