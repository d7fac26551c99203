"""ShardRouter: which shard sequences which visibility operation.

The partition rules keep every ordering obligation §5 actually imposes
while splitting the rest:

* **Topology ops go to shard 0.**  ``ADD_SPACE`` / ``DESTROY_SPACE`` and
  every visibility op whose *target is a space* (the containment edges of
  the visibility DAG) are sequenced on shard 0, so the §5.7 acyclicity
  check — which walks only containment edges — sees one totally ordered
  edge set and decides identically at every replica.

* **Actor ops go to the containing space's home shard.**
  ``MAKE_VISIBLE`` / ``MAKE_INVISIBLE`` / ``CHANGE_ATTRIBUTES`` with an
  actor target mutate exactly one registry; §5 requires ordering only
  per-space, so the op is sequenced by the shard that owns that space.

* **Cross-cutting ops fan.**  ``BIND_CAPABILITY`` and ``PURGE`` touch
  state any shard's stream may depend on, so the submitter emits one copy
  per shard (``fan_of`` marks the copies); ``PURGE`` copies are *sliced*
  at apply time to registries homed on their own shard, preserving the
  invariant that a registry is mutated only by its home shard's stream or
  shard 0, so every replica applies one registry's mutations in one
  order.

A space's home shard is fixed at creation: hash of its root attribute
atom when it is created with attributes, else inherited from its parent
(path-prefix affinity — nested spaces co-locate), else hashed from its
address.  The choice is stamped into the ``ADD_SPACE`` args so every
replica records the same home shard.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.addresses import SpaceAddress
from repro.core.atoms import as_paths
from repro.runtime.bus import OpKind

from .map import ShardMap

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.visibility import Directory


class ShardRouter:
    """Maps visibility operations and spaces to their owning shard."""

    def __init__(self, shard_map: ShardMap):
        self.map = shard_map
        #: Origin-side shard hints for spaces whose ``ADD_SPACE`` has not
        #: applied locally yet (the creator knows the home shard the
        #: instant it mints the address; replicas learn it at apply time
        #: from the stamped op args).
        self.hints: dict[SpaceAddress, int] = {}

    def note_space(self, address: SpaceAddress, shard: int) -> None:
        self.hints[address] = shard

    def home_shard_for_new_space(
        self, address: SpaceAddress, attributes=None,
        parent: "SpaceAddress | None" = None,
        directory: "Directory | None" = None,
    ) -> int:
        """Decide (and remember) the home shard of a space being created."""
        root_atom = None
        if attributes is not None:
            paths = sorted(as_paths(attributes), key=str)
            if paths:
                root_atom = paths[0].atoms[0]
        parent_shard = None
        if root_atom is None and parent is not None:
            parent_shard = self.shard_of_space(parent, directory)
        shard = self.map.shard_for_space(
            root_atom=root_atom, parent_shard=parent_shard, address=address
        )
        self.note_space(address, shard)
        return shard

    def shard_of_space(
        self, address: SpaceAddress, directory: "Directory | None" = None
    ) -> int:
        """The home shard of ``address``: replica record, hint, or hash."""
        if directory is not None:
            rec = directory._spaces.get(address)  # tombstones keep their shard
            if rec is not None:
                return rec.shard
        hinted = self.hints.get(address)
        if hinted is not None:
            return hinted
        return self.map.shard_for_space(address=address)

    def shard_for_op(self, kind: OpKind, args: dict,
                     directory: "Directory | None" = None) -> int:
        """The shard that sequences one (non-fanned) op.

        Every submitted op passes through here and :meth:`is_fanned`, so
        kinds are compared by identity: hashing an ``Enum`` member for a
        set lookup is a Python-level call.
        """
        if kind is OpKind.ADD_SPACE or kind is OpKind.DESTROY_SPACE:
            return 0  # topology ops: pinned regardless of arguments
        if isinstance(args.get("target"), SpaceAddress):
            return 0  # containment edge: totally ordered on the topology shard
        space = args.get("space")
        if space is not None:
            return self.shard_of_space(space, directory)
        return 0

    def is_fanned(self, kind: OpKind) -> bool:
        """Does the submitter replicate ``kind`` once per shard stream?"""
        return kind is OpKind.BIND_CAPABILITY or kind is OpKind.PURGE

    def __repr__(self):
        return f"<ShardRouter shards={self.map.n_shards} hints={len(self.hints)}>"
