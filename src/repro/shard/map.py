"""The shard map: which shard owns a space, and which node runs it.

Two independent mappings live here:

* **space -> shard** (:meth:`ShardMap.owner_of` /
  :meth:`ShardMap.shard_for_space`): stable content hashing of the
  space's *root attribute atom* — ``crc32`` of the interned atom text,
  never Python's salted ``hash()``, so every process and every run
  agrees.  Spaces created without attributes inherit their parent's
  shard (path-prefix affinity) or fall back to hashing their address,
  which is likewise identical at every node.
* **shard -> sequencer node** (:meth:`sequencer_for` /
  :meth:`assign`): a versioned assignment table.  Rebalancing bumps
  ``version`` and is gossiped through the control plane; receivers
  apply strictly newer versions only, so a late duplicate can never
  roll an assignment back.
"""

from __future__ import annotations

import zlib
from typing import Iterable


class ShardMap:
    """Versioned shard -> sequencer-node assignment plus the space hash."""

    __slots__ = ("n_shards", "nodes", "version", "assignment", "_atom_shards")

    def __init__(self, n_shards: int = 1, nodes: "Iterable[int] | None" = None,
                 assignment: "dict[int, int] | None" = None, version: int = 0):
        if n_shards < 1:
            raise ValueError("need at least one shard")
        self.n_shards = n_shards
        self.nodes = list(nodes) if nodes is not None else [0]
        if assignment is not None:
            self.assignment = dict(assignment)
        else:
            # Default spread: shard k sequences at node k round-robin.
            self.assignment = {
                k: self.nodes[k % len(self.nodes)] for k in range(n_shards)
            }
        self.version = version
        #: Memo of atom -> shard.  Atoms are interned at parse time
        #: (``core.atoms.check_atom``), so the common case is a dict hit
        #: that short-circuits on pointer identity.
        self._atom_shards: dict[str, int] = {}

    @classmethod
    def for_plane(cls, n_shards: int, nodes: Iterable[int],
                  seat: "int | None" = None) -> "ShardMap":
        """The map a host boots with: seats spread round-robin, or — with
        ``seat`` — all co-located on that node (conformance mode: one
        node orders every shard, so all replicas see one arrival order)."""
        return cls(n_shards, nodes,
                   None if seat is None
                   else dict.fromkeys(range(n_shards), seat))

    # -- space -> shard -----------------------------------------------------

    def owner_of(self, atom: str) -> int:
        """The shard owning spaces rooted at ``atom`` (stable across runs)."""
        shard = self._atom_shards.get(atom)
        if shard is None:
            shard = zlib.crc32(atom.encode("utf-8")) % self.n_shards
            self._atom_shards[atom] = shard
        return shard

    def shard_for_space(self, root_atom: "str | None" = None,
                        parent_shard: "int | None" = None,
                        address=None) -> int:
        """Home shard for a new space.

        Precedence: root attribute atom (content affinity) > parent's
        shard (nested spaces co-locate) > stable hash of the address.
        """
        if root_atom is not None:
            return self.owner_of(root_atom)
        if parent_shard is not None:
            return parent_shard % self.n_shards
        if address is not None:
            return zlib.crc32(repr(address).encode("utf-8")) % self.n_shards
        return 0

    # -- shard -> node ------------------------------------------------------

    def sequencer_for(self, shard: int) -> int:
        return self.assignment[shard % self.n_shards]

    def assign(self, shard: int, node: int) -> int:
        """Move ``shard``'s sequencer role to ``node``; returns the new version."""
        if shard < 0 or shard >= self.n_shards:
            raise ValueError(f"no such shard: {shard}")
        self.assignment[shard] = node
        self.version += 1
        return self.version

    def apply_if_newer(self, manifest: dict) -> bool:
        """Adopt a gossiped assignment iff it is strictly newer."""
        if manifest.get("version", 0) <= self.version or \
                manifest.get("n_shards") != self.n_shards:
            return False
        self.assignment = {int(k): int(v)
                           for k, v in manifest["assignment"].items()}
        self.version = int(manifest["version"])
        return True

    # -- persistence (cluster.json manifest) --------------------------------

    def to_manifest(self) -> dict:
        return {
            "n_shards": self.n_shards,
            "nodes": list(self.nodes),
            "version": self.version,
            "assignment": {str(k): v for k, v in self.assignment.items()},
        }

    @classmethod
    def from_manifest(cls, manifest: dict) -> "ShardMap":
        return cls(
            n_shards=int(manifest["n_shards"]),
            nodes=[int(n) for n in manifest.get("nodes", [0])],
            assignment={int(k): int(v)
                        for k, v in manifest.get("assignment", {}).items()},
            version=int(manifest.get("version", 0)),
        )

    def __repr__(self):
        return (f"<ShardMap {self.n_shards} shards v{self.version} "
                f"{self.assignment}>")
