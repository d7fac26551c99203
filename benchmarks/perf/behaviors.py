"""The benchmark's native actors: all load is generated inside the runtime.

Every load generator is **closed-loop**: it keeps a fixed window of
requests outstanding and launches the next only when one completes, so
offered load follows the system's own service rate and a slow system
simply receives less.  The harness never sits on the measured path — it
sends one ``("go", ops, window)`` message per slice and reads plain
attributes back when ``runs`` has advanced.

A *slice* is a fixed number of completed operations; a generator stamps
``time.perf_counter()`` when it starts and finishes one and keeps a
latency sample per operation.  The same classes run in the simulator
(constructed directly) and in TCP node processes (registered by name in
:mod:`node_main`).
"""

from __future__ import annotations

import time

from repro.core.actor import ActorContext, Behavior
from repro.core.messages import Destination, Message

from stats import percentile


class SinkBehavior(Behavior):
    """Counts arrivals; acknowledges ``("req", i)`` to ``reply_to`` by address."""

    def __init__(self):
        self.count = 0

    def receive(self, ctx: ActorContext, message: Message) -> None:
        self.count += 1
        if message.reply_to is not None:
            ctx.send_to(message.reply_to, ("ack", message.payload[1]))


class _SlicedLoad(Behavior):
    """Shared bookkeeping of the closed-loop generators: one slice per ``go``."""

    def __init__(self):
        #: Completed ``go`` commands; the harness waits for it to advance.
        self.runs = 0
        self._reset(0)

    def _reset(self, ops: int) -> None:
        self._total = ops
        self.sent = 0
        self.completed = 0
        #: Replies that matched no outstanding request (a failure each).
        self.bad_acks = 0
        self._latencies: list[float] = []
        # The two instants are on the system-wide monotonic clock, so
        # loops in different processes can be lined up against each other.
        self.started_at = time.perf_counter()
        self.finished_at = 0.0
        self.unacked = 0
        self.p50_ms = 0.0

    @property
    def latencies_ms(self) -> list[float]:
        """Every latency sample of the last slice, in completion order."""
        return [latency * 1e3 for latency in self._latencies]

    def _complete(self, latency_s: float, now: float, outstanding: int) -> bool:
        """Record one finished operation; True when the slice is over."""
        self._latencies.append(latency_s)
        self.completed += 1
        if self.completed < self._total:
            return False
        self.finished_at = now
        self.p50_ms = percentile(sorted(self._latencies), 0.5) * 1e3
        self.unacked = outstanding
        self.runs += 1
        return True


class PumpBehavior(_SlicedLoad):
    """Pattern-directed request/ack load: ``send`` or ``broadcast``.

    Requests go to ``destinations`` in rotation as ``pattern@space`` text
    — resolved by the coordinator on every send, which is the point —
    and carry the pump as ``reply_to``; sinks ack by address.  With
    ``fanout`` > 1 (broadcast) a request completes when that many acks
    have arrived, and its latency is that of the slowest.
    """

    def __init__(self, destinations: list[str], mode: str = "send",
                 fanout: int = 1):
        super().__init__()
        if mode not in ("send", "broadcast"):
            raise ValueError(f"unknown pump mode {mode!r}")
        self.destinations = list(destinations)
        self.broadcast = mode == "broadcast"
        self.fanout = int(fanout)
        #: request index -> [sent at, acks still expected]
        self._pending: dict[int, list] = {}

    def _launch(self, ctx: ActorContext) -> None:
        index = self.sent
        self.sent += 1
        destination = self.destinations[index % len(self.destinations)]
        self._pending[index] = [time.perf_counter(), self.fanout]
        if self.broadcast:
            ctx.broadcast(destination, ("req", index),
                          reply_to=ctx.self_address)
        else:
            ctx.send(destination, ("req", index), reply_to=ctx.self_address)

    def receive(self, ctx: ActorContext, message: Message) -> None:
        payload = message.payload
        if payload[0] == "ack":
            now = time.perf_counter()
            entry = self._pending.get(payload[1])
            if entry is None:
                self.bad_acks += 1
                return
            entry[1] -= 1
            if entry[1] > 0:
                return
            del self._pending[payload[1]]
            if not self._complete(now - entry[0], now, len(self._pending)) \
                    and self.sent < self._total:
                self._launch(ctx)
        elif payload[0] == "go":
            _, ops, window = payload
            self._reset(ops)
            self._pending.clear()
            for _ in range(min(window, self._total)):
                self._launch(ctx)


class VisChurnBehavior(_SlicedLoad):
    """Visibility write-then-probe loop on the actor's own entry.

    Each operation rebinds the actor's attributes in ``space`` and at
    once sends a probe to the *new* attribute.  Until the change has
    been sequenced, persisted and applied at this node the probe matches
    nothing and is suspended (paper §5.6); its arrival is the moment the
    actor became reachable under the new name.
    """

    #: Attribute names rotate over a small set so nothing grows without
    #: bound; consecutive operations always differ.
    NAMES = 8

    def __init__(self, space, prefix: str):
        super().__init__()
        self.space = space
        self.prefix = prefix
        self._op_started_at = 0.0

    def _step(self, ctx: ActorContext) -> None:
        index = self.sent
        self.sent += 1
        attribute = f"{self.prefix}/v{index % self.NAMES}"
        self._op_started_at = time.perf_counter()
        ctx.change_attributes(ctx.self_address, attribute, self.space)
        ctx.send(Destination(attribute, self.space), ("probe", index))

    def receive(self, ctx: ActorContext, message: Message) -> None:
        payload = message.payload
        if payload[0] == "probe":
            now = time.perf_counter()
            if payload[1] != self.sent - 1:
                self.bad_acks += 1
                return
            if not self._complete(now - self._op_started_at, now, 0):
                self._step(ctx)
        elif payload[0] == "go":
            self._reset(payload[1])
            self._step(ctx)


class SpanControlBehavior(Behavior):
    """Lets the harness drive a node process's span recorder by message.

    ``("trace", on)`` switches recording, ``("reset",)`` opens a fresh
    window, ``("report", token)`` publishes the window's summary as
    ``summary`` and then ``token`` (read back through ``actor_state``),
    ``("dump", path)`` writes the kept raw spans.
    """

    def __init__(self, recorder):
        self._recorder = recorder
        self.token = 0
        self.summary: dict = {}

    def receive(self, ctx: ActorContext, message: Message) -> None:
        payload = message.payload
        recorder = self._recorder
        if payload[0] == "trace":
            recorder.enabled = bool(payload[1])
        elif payload[0] == "reset":
            recorder.reset()
        elif payload[0] == "report":
            self.summary = recorder.summary()
            self.token = payload[1]
        elif payload[0] == "dump":
            recorder.dump(payload[1])
