"""ShardedBus: a host's visibility plane, one total-order stream per shard.

Every plane is a :class:`ShardMap` of ``n >= 1`` shards, and this facade
holds one stream per shard — a simulator bus
(:class:`~repro.runtime.bus.SequencerBus` by default, any
:class:`~repro.runtime.bus.Bus` at one shard) or a node process's
:class:`~repro.net.remote.RemoteSequencerBus`; the host says which by
passing ``make_stream``.  Each shard carries a gap-free sequence of its
own; there is no global sequence number, and no order across shards is
promised.  Cross-shard order is reconstructed two ways:

* **per replica** — coordinators apply each shard's stream through its
  own hold-back cursor, parking ops whose containing space is not yet
  known (see ``Coordinator``); end states converge even though transient
  interleavings may differ between replicas.  Recovery and offline
  replay do the same over the persisted logs, merged by ``(seq, shard)``
  (``repro.store.recovery.apply_suffix``);
* **for conformance** — the simulator's shared *journal* of
  ``(shard, seq)`` pairs records the exact order ops were sequenced in;
  when all shard sequencers are co-located (check mode) every replica
  observes precisely this order and the oracle replays it.

Coordinators submit straight to the owning stream
(``bus.shards[op.shard]``) and a node's inbound frames are dispatched
the same way; the facade carries what spans streams — failure
notifications, rebalancing, accounting.
"""

from __future__ import annotations

from typing import Any, Callable

from .map import ShardMap


class ShardedBus:
    """``make_stream(shard, seat)`` per shard of ``shard_map``.

    The seat of shard ``k`` is the map's (``shard_map.sequencer_for(k)``);
    a protocol without a seat (the token ring) ignores it.
    """

    # No per-stream attribute lives here: a stray ``bus.store = ...`` or
    # ``bus.log`` must fail loudly, not land on the facade and be ignored.
    __slots__ = ("map", "shards")

    def __init__(self, shard_map: ShardMap,
                 make_stream: Callable[[int, int], Any]):
        self.map = shard_map
        self.shards = {k: make_stream(k, shard_map.sequencer_for(k))
                       for k in range(shard_map.n_shards)}

    # -- every stream ------------------------------------------------------------

    def on_node_down(self, node: int) -> None:
        for stream in self.shards.values():
            stream.on_node_down(node)

    def on_node_recovered(self, node: int) -> None:
        for stream in self.shards.values():
            stream.on_node_recovered(node)

    def rebalance(self, shard: int, node: int) -> int:
        """Move ``shard``'s sequencer seat to ``node``, live; the seat
        re-elects and unacked submissions are re-driven.  Returns the new
        shard-map version."""
        self.shards[shard].rebalance(node)
        return self.map.assign(shard, node)

    def status(self) -> dict[int, dict]:
        """Per-stream counters, shard -> plain dict."""
        return {k: stream.status() for k, stream in sorted(self.shards.items())}

    def _total(self, counter: str) -> int:
        return sum(getattr(s, counter) for s in self.shards.values())

    protocol_messages = property(lambda self: self._total("protocol_messages"))
    ops_sequenced = property(lambda self: self._total("ops_sequenced"))
    failovers = property(lambda self: self._total("failovers"))

    # -- host-specific -----------------------------------------------------------

    @property
    def journal(self) -> list[tuple[int, int]]:
        """The simulator's cross-shard sequencing journal, shared by its
        streams: (shard, per-shard seq) in the order ops were sequenced.
        With co-located sequencers this is the exact order every replica
        applies, which is what the conformance oracle replays."""
        return self.shards[0].journal

    def apply_map(self, manifest: dict) -> bool:
        """Adopt a gossiped shard map if its version is newer."""
        if not self.map.apply_if_newer(manifest):
            return False
        for k, stream in self.shards.items():
            stream.rebalance(self.map.sequencer_for(k))
        return True

    def on_peer_up(self, node: int) -> None:
        """A node process's link to ``node`` registered."""
        for stream in self.shards.values():
            stream.on_peer_up(node)

    def __repr__(self):
        seats = ",".join(f"{k}@n{s.sequencer_node}"
                         for k, s in sorted(self.shards.items()))
        return f"<ShardedBus {seats}>"
