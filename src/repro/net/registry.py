"""Cluster behavior registry + wire-type registrations.

A launcher cannot ship Python callables over the control connection, so
actors are created by *name*: the launcher asks for ``("pool_worker",
params)`` and the node process builds the behavior locally from this
registry.  Both sides import this module, which also registers the
application payload dataclasses (e.g. the process pool's ``Job``) with
the wire codec — keeping the codec's closed world property while letting
shipped examples run across real sockets unchanged.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.apps.process_pool import Job, PoolClient, PoolWorker
from repro.core.actor import ActorContext, Behavior
from repro.core.messages import Message

from .codec import WireError, register_wire_type

register_wire_type(Job)

#: name -> factory(params) -> Behavior
BEHAVIORS: dict[str, Callable[[dict], Behavior]] = {}


def register_behavior(name: str, factory: Callable[[dict], Behavior]) -> None:
    """Make ``name`` creatable via the cluster control plane."""
    BEHAVIORS[name] = factory


def build_behavior(name: str, params: dict | None) -> Behavior:
    """Instantiate a registered behavior from control-plane arguments."""
    factory = BEHAVIORS.get(name)
    if factory is None:
        raise WireError(
            f"unknown behavior {name!r}; registered: {sorted(BEHAVIORS)}"
        )
    return factory(dict(params or {}))


# -- built-in behaviors ---------------------------------------------------------

class CounterBehavior(Behavior):
    """Counts messages; keeps the most recent payloads for inspection."""

    def __init__(self, keep: int = 8):
        self.count = 0
        self.keep = keep
        self.recent: list = []

    def receive(self, ctx: ActorContext, message: Message) -> None:
        self.count += 1
        self.recent.append(message.payload)
        del self.recent[:-self.keep]


class ReplicaBehavior(Behavior):
    """A replicated-service worker: acknowledge each request (E11 shape)."""

    def __init__(self, name: str = "replica"):
        self.name = name
        self.count = 0

    def receive(self, ctx: ActorContext, message: Message) -> None:
        self.count += 1
        if message.reply_to is not None:
            ctx.send_to(message.reply_to, ("ok", self.name, self.count))


class LoadSinkBehavior(Behavior):
    """Acknowledges ``("req", i)`` with ``("ack", i)`` — a correlatable sink.

    Unlike :class:`ReplicaBehavior` the ack carries the request index, so
    a closed-loop driver can match each reply to its send timestamp and
    measure per-message round-trip latency.
    """

    def __init__(self):
        self.count = 0

    def receive(self, ctx: ActorContext, message: Message) -> None:
        self.count += 1
        payload = message.payload
        if (message.reply_to is not None and isinstance(payload, tuple)
                and payload and payload[0] == "req"):
            ctx.send_to(message.reply_to, ("ack", payload[1]))


class LoadPumpBehavior(Behavior):
    """Closed-loop load generator: keep ``window`` requests outstanding.

    On ``("go",)`` it launches ``window`` requests at ``target`` (a
    :class:`LoadSinkBehavior`), then fires one replacement per ack until
    ``total`` round trips complete.  Offered load is therefore controlled
    by the window size, not a send-rate guess — the canonical closed-loop
    shape.  Results land as plain attributes (``done``, ``throughput``,
    ``p50_ms``, ``p99_ms``) that a launcher reads via the ``actor_state``
    control command; RTTs use ``time.monotonic`` so simulator and TCP
    runs are measured identically (host wall time).
    """

    def __init__(self, target, total: int, window: int):
        self.target = target
        self.total = int(total)
        self.window = max(1, int(window))
        self.sent = 0
        self.received = 0
        self.done = False
        self.throughput = 0.0
        self.p50_ms = 0.0
        self.p99_ms = 0.0
        self.elapsed_s = 0.0
        self._started_at = 0.0
        self._pending: dict[int, float] = {}
        self._rtts_ms: list[float] = []

    def _launch(self, ctx: ActorContext) -> None:
        index = self.sent
        self.sent += 1
        self._pending[index] = time.monotonic()
        ctx.send_to(self.target, ("req", index), reply_to=ctx.self_address)

    def receive(self, ctx: ActorContext, message: Message) -> None:
        payload = message.payload
        if payload == ("go",):
            self._started_at = time.monotonic()
            for _ in range(min(self.window, self.total)):
                self._launch(ctx)
            return
        if not (isinstance(payload, tuple) and payload
                and payload[0] == "ack"):
            return
        now = time.monotonic()
        sent_at = self._pending.pop(payload[1], None)
        if sent_at is not None:
            self._rtts_ms.append((now - sent_at) * 1000.0)
        self.received += 1
        if self.sent < self.total:
            self._launch(ctx)
        elif self.received >= self.total:
            self.elapsed_s = now - self._started_at
            if self.elapsed_s > 0:
                self.throughput = self.total / self.elapsed_s
            rtts = sorted(self._rtts_ms)
            if rtts:
                self.p50_ms = rtts[len(rtts) // 2]
                self.p99_ms = rtts[min(len(rtts) - 1,
                                       int(len(rtts) * 0.99))]
            self.done = True


class OverloadSinkBehavior(Behavior):
    """Counts arrivals; optionally burns ``busy_ms`` per message.

    The busy-wait sets a hard per-actor service capacity (1000/busy_ms
    messages per second), which is what the overload drill floods past.
    Acks only when asked (``reply_to`` set), so an open-loop pump can
    flood it without generating a return wave.
    """

    def __init__(self, busy_ms: float = 0.0):
        self.busy_ms = float(busy_ms)
        self.count = 0

    def receive(self, ctx: ActorContext, message: Message) -> None:
        self.count += 1
        if self.busy_ms > 0:
            deadline = time.monotonic() + self.busy_ms / 1000.0
            while time.monotonic() < deadline:
                pass
        payload = message.payload
        if (message.reply_to is not None and isinstance(payload, tuple)
                and payload and payload[0] == "req"):
            ctx.send_to(message.reply_to, ("ack", payload[1]))


class OverloadPumpBehavior(Behavior):
    """Open-loop flood generator: ``burst`` sends per tick, no feedback.

    Unlike :class:`LoadPumpBehavior` (closed-loop: offered load tracks
    service rate by construction) this pump keeps offering at a fixed
    rate regardless of how the sink is doing — the defining shape of an
    overload drill.  On ``("go",)`` it self-schedules every ``tick``
    seconds and fires ``burst`` messages at ``target`` each tick until
    ``total`` have been sent; ``sent``/``done`` are readable via the
    ``actor_state`` control command.  Self-scheduling works identically
    on virtual and wall clocks, so one behavior drives both sweeps.
    """

    def __init__(self, target, total: int, burst: int, tick: float = 0.01):
        self.target = target
        self.total = int(total)
        self.burst = max(1, int(burst))
        self.tick = float(tick)
        self.sent = 0
        self.ticks = 0
        self.done = False

    def receive(self, ctx: ActorContext, message: Message) -> None:
        payload = message.payload
        if payload not in (("go",), ("tick",)):
            return
        self.ticks += payload == ("tick",)
        for _ in range(min(self.burst, self.total - self.sent)):
            ctx.send_to(self.target, ("req", self.sent))
            self.sent += 1
        if self.sent < self.total:
            ctx.schedule(self.tick, ("tick",))
        else:
            self.done = True


register_behavior("counter",
                  lambda params: CounterBehavior(keep=int(params.get("keep", 8))))
register_behavior("replica",
                  lambda params: ReplicaBehavior(name=params.get("name", "replica")))
register_behavior("load_sink", lambda params: LoadSinkBehavior())
register_behavior("overload_sink", lambda params: OverloadSinkBehavior(
    busy_ms=float(params.get("busy_ms", 0.0))))
register_behavior("overload_pump", lambda params: OverloadPumpBehavior(
    params["target"], total=int(params["total"]),
    burst=int(params.get("burst", 32)),
    tick=float(params.get("tick", 0.01)),
))
register_behavior("load_pump", lambda params: LoadPumpBehavior(
    params["target"], total=int(params["total"]),
    window=int(params.get("window", 1)),
))
register_behavior("pool_worker", lambda params: PoolWorker(
    params["pool"],
    grain=int(params.get("grain", 64)),
    fanout=int(params.get("fanout", 4)),
    cost_per_item=float(params.get("cost_per_item", 0.001)),
))
register_behavior("pool_client", lambda params: PoolClient(
    params["pool"], Job(int(params["lo"]), int(params["hi"]))
))
