"""ShardedBus: the simulator's visibility plane, one bus per shard.

Every plane is a :class:`ShardMap` of ``n >= 1`` shards, and this facade
runs one total-order bus per shard (a :class:`SequencerBus` by default;
any :class:`~repro.runtime.bus.Bus` class at one shard).  Each shard
carries a gap-free sequence of its own; there is no global sequence
number.  Cross-shard order is reconstructed three ways:

* **online, per replica** — coordinators apply each shard's stream through
  its own hold-back cursor, parking ops whose containing space is not yet
  known (see ``Coordinator``); end states converge even though transient
  interleavings may differ between replicas;
* **online, for conformance** — a shared *journal* of ``(shard, seq)``
  pairs records the exact fan-out order at the sequencing node(s); when
  all shard sequencers are co-located (check mode) every replica observes
  precisely this order and the oracle replays it;
* **offline** — with more than one stream to merge, every sequenced op is
  stamped with a node-local monotonic *tick* from a shared counter,
  persisted with the op, and ``repro.shard.merge`` sorts by
  ``(tick, shard, seq)`` — a valid linear extension of all per-shard
  orders.  One stream is its own order and stamps nothing.

Coordinators submit straight to the owning stream
(``bus.shards[op.shard]``); the facade carries what spans streams —
failure notifications, state transfer, rebalancing, accounting.
Delivery callbacks receive per-shard sequence numbers and recover the
shard from ``op.shard``.
"""

from __future__ import annotations

import itertools
from typing import Callable

from repro.runtime.bus import Bus, SequencerBus, VisibilityOp
from repro.runtime.clock import VirtualClock
from repro.runtime.events import EventQueue
from repro.runtime.transport import Transport

from .map import ShardMap


class ShardedBus:
    """One ``bus_class`` instance per shard plus shared ordering metadata.

    ``deliver``/``event_log``/``tracer`` are the system's wiring, handed
    to every shard's bus; ``bus_kwargs`` go to each ``bus_class``
    constructor.  The seat of shard ``k`` is the map's
    (``shard_map.sequencer_for(k)``); a protocol without a seat (the
    token ring) ignores it.
    """

    # No per-stream attribute lives here: a stray ``bus.store = ...`` or
    # ``bus.log`` must fail loudly, not land on the facade and be ignored.
    __slots__ = ("map", "journal", "shards")

    def __init__(
        self,
        nodes: list[int],
        events: EventQueue,
        clock: VirtualClock,
        transport: Transport,
        shard_map: ShardMap,
        bus_class: type[Bus] = SequencerBus,
        deliver: Callable[[int, int, VisibilityOp], None] | None = None,
        event_log=None,
        tracer=None,
        **bus_kwargs,
    ):
        self.map = shard_map
        #: Cross-shard sequencing journal: (shard, per-shard seq) in the
        #: order ops were fanned out.  With co-located sequencers this is
        #: the exact order every replica applies, which is what the
        #: conformance oracle replays.
        self.journal: list[tuple[int, int]] = []
        # The tick is the offline merge key across streams: stamped (and
        # persisted) only when there is more than one stream to merge.
        tick_counter = itertools.count() if shard_map.n_shards > 1 else None
        self.shards: dict[int, Bus] = {}
        for k in range(shard_map.n_shards):
            inner = bus_class(nodes, events, clock, transport, **bus_kwargs)
            inner.sequencer_node = shard_map.sequencer_for(k)
            inner.shard_id = k
            inner.journal = self.journal
            inner.tick_counter = tick_counter
            inner.deliver = deliver
            inner.event_log = event_log
            inner.tracer = tracer
            self.shards[k] = inner

    def attach_store(self, make_store) -> None:
        """Attach one store per shard.

        ``make_store`` is a callable ``shard -> NodeStore`` so the caller
        chooses the on-disk layout (``repro.shard.merge.shard_dir`` by
        convention — ``shard_dirs`` discovers it).
        """
        for k, inner in self.shards.items():
            inner.store = make_store(k)

    # -- bus surface -------------------------------------------------------------

    def on_node_down(self, node: int) -> None:
        for inner in self.shards.values():
            inner.on_node_down(node)

    def on_node_recovered(self, node: int) -> None:
        for inner in self.shards.values():
            inner.on_node_recovered(node)

    def replay_to(self, node: int, cursors: dict[int, int]) -> int:
        """State transfer for a recovering replica, one shard at a time.

        ``cursors`` maps shard -> first per-shard sequence number the
        replica has *not* applied.  Each shard replays independently from
        its own log (or its own store namespace when no live replica can
        source the transfer) — a corrupted shard store never blocks
        recovery of the others.
        """
        total = 0
        for k, inner in self.shards.items():
            total += inner.replay_to(node, cursors.get(k, 0))
        return total

    def rebalance(self, shard: int, node: int) -> int:
        """Move ``shard``'s sequencer role to ``node``, live.

        Sequencing state is modelled as shared bus state (a real
        deployment rebuilds it from the replicated per-shard log during
        handoff), so the new sequencer continues the gap-free per-shard
        order; unacked submissions are re-driven immediately.  Returns the
        new shard-map version.
        """
        inner = self.shards[shard]
        inner.sequencer_node = node
        inner._schedule_redrive(0.0)
        return self.map.assign(shard, node)

    # -- aggregate accounting ----------------------------------------------------

    @property
    def protocol_messages(self) -> int:
        return sum(b.protocol_messages for b in self.shards.values())

    @property
    def ops_sequenced(self) -> int:
        return sum(b.ops_sequenced for b in self.shards.values())

    @property
    def failovers(self) -> int:
        return sum(b.failovers for b in self.shards.values())

    @property
    def disk_replays(self) -> int:
        return sum(b.disk_replays for b in self.shards.values())

    def __repr__(self):
        seats = ",".join(
            f"{k}@n{b.sequencer_node}" for k, b in sorted(self.shards.items())
        )
        return f"<ShardedBus {seats}>"
