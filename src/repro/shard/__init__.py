"""Sharding the visibility plane: partitioned sequencing for actorSpaces.

The paper's coherence protocol (§7.3) totally orders *all* visibility
operations through one logical bus, so that every node has the same
view of visibility (broadcasts to actors stay unordered, §5.3).  A
node's view of one space depends only on the operations that touch that
space; nothing relates operations on unrelated spaces.  This package
exploits that slack:

* :class:`ShardMap` partitions actorSpaces across N shards by the hash
  of the space's root attribute atom (path-prefix affinity: nested
  spaces co-locate with their parent), and assigns each shard a
  sequencer node, versioned so assignments can move at runtime.
* :class:`ShardedBus` runs one :class:`~repro.runtime.bus.SequencerBus`
  per shard in the simulator, each with its own failover election and
  its own store namespace, plus a cross-shard sequencing journal that
  gives the conformance oracle a happens-before-consistent linear
  extension without re-introducing a global sequencer.
* :class:`ShardRouter` fronts pattern dispatch: literal first atoms pin
  an owning shard (sends can be forwarded to the shard's authority
  node); glob/regex first atoms that pin nothing fan out across all
  shard partitions and merge.
* ``merge`` names each shard's store namespace on disk; recovery and
  offline replay read them all and merge by node-local monotonic ticks
  (``repro.store.recovery.apply_suffix``).

Ordering contract under sharding (documented in TUTORIAL §17): ops on
the same space are totally ordered (one home shard per space); space
creation/destruction and space-in-space visibility (the containment
DAG) are totally ordered on shard 0, keeping §5.7 cycle checks
deterministic; ops on spaces homed on different shards are concurrent.
"""

from .bus import ShardedBus
from .map import ShardMap
from .router import ShardRouter

__all__ = ["ShardMap", "ShardedBus", "ShardRouter"]
