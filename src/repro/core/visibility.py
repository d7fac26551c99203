"""The visibility directory: all spaces, their registries, and the DAG.

This module is the single-copy semantics of ActorSpace visibility.  The
distributed runtime replicates one :class:`Directory` per node coordinator
and keeps the replicas coherent by applying visibility operations in the
total order imposed by the coordinator bus (paper section 7.3); the logic
here is deliberately independent of the replication machinery so it can be
tested exhaustively on its own.

Responsibilities:

* track every actorSpace record, and which entities are visible where;
* enforce capability checks on ``make_visible`` / ``make_invisible`` /
  ``change_attributes`` (section 5.4);
* enforce acyclicity of the space-visibility relation (section 5.7): "we
  do not allow an actorSpace to be made visible in itself, or recursively
  in any contained actorSpace.  This avoids cycles in the directed acyclic
  graph defined by the visibility relation";
* answer reverse queries (which spaces contain X?) for garbage collection.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from .actorspace import RegistryEntry, SpaceRecord
from .addresses import MailAddress, SpaceAddress, is_space_address
from .atoms import AttributePath
from .capabilities import Capability, authorize
from .errors import (
    CapabilityError,
    SpaceDestroyedError,
    UnknownAddressError,
    VisibilityCycleError,
)


class Directory:
    """All actorSpace registries plus the visibility DAG over spaces."""

    __slots__ = ("_spaces", "_containers", "_known_capabilities", "_op_count",
                 "_quarantined")

    def __init__(self):
        self._spaces: dict[SpaceAddress, SpaceRecord] = {}
        #: Reverse index: target address -> set of spaces it is visible in.
        self._containers: dict[MailAddress, set[SpaceAddress]] = {}
        #: Capability required to change each *entity's* own visibility,
        #: recorded at creation time (section 5.4 binds capabilities to
        #: actors and spaces, not only to spaces).
        self._known_capabilities: dict[MailAddress, Capability | None] = {}
        self._op_count = 0
        #: Nodes whose actor entries are masked from resolution (failure
        #: quarantine).  The mask is an overlay: the underlying entries —
        #: and therefore :meth:`snapshot` — are untouched, so replicas
        #: stay comparable while their quarantine views differ.
        self._quarantined: set[int] = set()

    # -- space lifecycle ---------------------------------------------------------

    def add_space(self, record: SpaceRecord) -> None:
        """Register a newly created actorSpace."""
        if record.address in self._spaces:
            raise ValueError(f"duplicate space {record.address!r}")
        self._spaces[record.address] = record
        self._known_capabilities.setdefault(record.address, record.capability)
        self._op_count += 1

    def bind_capability(self, target: MailAddress, capability: Capability | None) -> None:
        """Record the capability bound to ``target`` at its creation."""
        self._known_capabilities[target] = capability

    def capability_bindings(self) -> Iterator[tuple[MailAddress, Capability | None]]:
        """Every known (target, capability) binding, for persistence.

        Includes the implicit bindings seeded by :meth:`add_space`;
        restoring them with :meth:`bind_capability` reproduces the
        authorization state exactly.
        """
        return iter(self._known_capabilities.items())

    def space(self, address: SpaceAddress) -> SpaceRecord:
        """Look up a live space record.

        Raises
        ------
        UnknownAddressError / SpaceDestroyedError
        """
        rec = self._spaces.get(address)
        if rec is None:
            raise UnknownAddressError(f"no such actorSpace: {address!r}")
        if rec.destroyed:
            raise SpaceDestroyedError(f"{address!r} has been destroyed")
        return rec

    def has_space(self, address: SpaceAddress) -> bool:
        rec = self._spaces.get(address)
        return rec is not None and not rec.destroyed

    def knows_space(self, address: SpaceAddress) -> bool:
        """Known live *or* tombstoned.

        The partitioned plane's dependency check: an op referencing a
        space this replica has never heard of must park until the
        space's ``ADD_SPACE`` arrives on the topology shard's stream; one
        referencing a tombstone applies (and rejects) immediately.
        """
        return address in self._spaces

    def spaces(self) -> Iterator[SpaceRecord]:
        """Iterate over live space records."""
        return (r for r in self._spaces.values() if not r.destroyed)

    def destroy_space(self, address: SpaceAddress) -> None:
        """Explicitly destroy a space (section 7.1); members survive."""
        rec = self.space(address)
        for entry in rec.destroy():
            holders = self._containers.get(entry.target)
            if holders:
                holders.discard(address)
                if not holders:
                    # Empty holder sets would otherwise accumulate forever
                    # under space churn.
                    del self._containers[entry.target]
        # The space may itself have been visible elsewhere; evict it.
        for holder in list(self._containers.get(address, ())):
            holder_rec = self._spaces.get(holder)
            if holder_rec is not None and not holder_rec.destroyed:
                holder_rec.unregister(address)
        self._containers.pop(address, None)
        # The destroyed space can never authenticate again; keeping its
        # capability binding would leak memory under churn.
        self._known_capabilities.pop(address, None)
        self._op_count += 1

    # -- capability discipline ------------------------------------------------------

    def _authorize(self, target: MailAddress, space_rec: SpaceRecord,
                   capability: Capability | None) -> None:
        """Validate a visibility operation on ``target`` within ``space_rec``.

        The presented capability must satisfy *both* keys that apply: the
        one bound to the target entity at creation, and the one bound to
        the space (authenticating operations in that space, section 5.2).
        Unprotected entities/spaces (no bound key) impose no requirement.
        """
        target_key = self._known_capabilities.get(target)
        if not authorize(capability, target_key):
            raise CapabilityError(
                f"capability does not authorize visibility change of {target!r}"
            )
        if not authorize(capability, space_rec.capability):
            raise CapabilityError(
                f"capability does not authorize operations in {space_rec.address!r}"
            )

    # -- the DAG -------------------------------------------------------------------

    def contained_spaces(self, space: SpaceAddress) -> Iterator[SpaceAddress]:
        """Spaces directly visible inside ``space``."""
        rec = self._spaces.get(space)
        if rec is None or rec.destroyed:
            return iter(())
        return (e.target for e in rec.space_entries())  # type: ignore[misc]

    def reaches(self, start: SpaceAddress, goal: SpaceAddress) -> bool:
        """True when ``goal`` is ``start`` or transitively visible inside it."""
        if start == goal:
            return True
        seen = {start}
        stack = [start]
        while stack:
            current = stack.pop()
            for child in self.contained_spaces(current):
                if child == goal:
                    return True
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        return False

    def would_cycle(self, target: MailAddress, space: SpaceAddress) -> bool:
        """Would making ``target`` visible in ``space`` create a cycle?

        Only space targets can create cycles; actors are leaves.
        """
        if not is_space_address(target):
            return False
        return self.reaches(target, space)  # type: ignore[arg-type]

    def find_cycle(self) -> list[SpaceAddress] | None:
        """Search the visibility relation for a containment cycle.

        Returns one cycle as ``[s0, s1, ..., s0]`` or ``None`` when the
        relation is acyclic.  §5.7 promises the answer is always ``None``
        — this is the audit the property tests run after arbitrary op
        sequences; it is not on any hot path.
        """
        colors: dict[SpaceAddress, int] = {}  # 1 = on stack, 2 = done

        def visit(space: SpaceAddress, trail: list[SpaceAddress]):
            colors[space] = 1
            trail.append(space)
            for child in self.contained_spaces(space):
                state = colors.get(child)
                if state == 1:
                    return trail[trail.index(child):] + [child]
                if state is None:
                    found = visit(child, trail)
                    if found is not None:
                        return found
            trail.pop()
            colors[space] = 2
            return None

        for rec in list(self.spaces()):
            if rec.address not in colors:
                found = visit(rec.address, [])
                if found is not None:
                    return found
        return None

    # -- visibility operations --------------------------------------------------------

    def make_visible(
        self,
        target: MailAddress,
        attributes: "Iterable[AttributePath | str] | AttributePath | str",
        space: SpaceAddress,
        capability: Capability | None = None,
        now: float = 0.0,
        check_cycles: bool = True,
    ) -> RegistryEntry:
        """Subject ``target`` to pattern matching in ``space``.

        Raises :class:`CapabilityError` on bad keys and
        :class:`VisibilityCycleError` when the operation would make a space
        visible in itself or in a space it (transitively) contains.
        ``check_cycles=False`` selects the message-tagging alternative of
        section 5.7 (cycles tolerated here, trapped at routing time) — used
        by the E7 ablation via a customized manager.
        """
        rec = self.space(space)
        self._authorize(target, rec, capability)
        if check_cycles and self.would_cycle(target, space):
            raise VisibilityCycleError(target, space)
        before = rec.epoch
        entry = rec.register(target, attributes, now)
        self._containers.setdefault(target, set()).add(space)
        if rec.epoch != before:
            self._op_count += 1
        return entry

    def restore_entry(
        self,
        target: MailAddress,
        attributes: "Iterable[AttributePath | str] | AttributePath | str",
        space: SpaceAddress,
        now: float = 0.0,
    ) -> RegistryEntry:
        """Recovery-only rebuild of a registration.

        Bypasses capability and cycle checks: both were enforced when
        the op originally applied, and re-checking would require the
        original *presented* capability, which is deliberately not
        persisted (only the bindings needed to verify future ops are).
        """
        rec = self.space(space)
        before = rec.epoch
        entry = rec.register(target, attributes, now)
        self._containers.setdefault(target, set()).add(space)
        if rec.epoch != before:
            self._op_count += 1
        return entry

    def make_invisible(
        self,
        target: MailAddress,
        space: SpaceAddress,
        capability: Capability | None = None,
    ) -> bool:
        """Remove ``target`` from pattern matching in ``space``.

        Removing visibility in a space also removes it from "any other
        enclosing actorSpace" (section 5.4) in the sense that structured
        patterns entering through ``space`` no longer reach the target;
        entries the target holds in *other* spaces are untouched.
        """
        rec = self.space(space)
        self._authorize(target, rec, capability)
        removed = rec.unregister(target)
        if removed:
            holders = self._containers.get(target)
            if holders:
                holders.discard(space)
                if not holders:
                    del self._containers[target]
            # Only an actual mutation moves the epoch; a no-op removal
            # must not invalidate caches or skew the coherence counter.
            self._op_count += 1
        return removed

    def change_attributes(
        self,
        target: MailAddress,
        attributes: "Iterable[AttributePath | str] | AttributePath | str",
        space: SpaceAddress,
        capability: Capability | None = None,
        now: float = 0.0,
    ) -> RegistryEntry:
        """Replace the attributes of an existing registration (section 5.4).

        Raises
        ------
        UnknownAddressError
            If ``target`` is not currently visible in ``space``.
        """
        rec = self.space(space)
        self._authorize(target, rec, capability)
        if target not in rec:
            raise UnknownAddressError(
                f"{target!r} is not visible in {space!r}; make_visible first"
            )
        before = rec.epoch
        entry = rec.register(target, attributes, now)
        if rec.epoch != before:
            self._op_count += 1
        return entry

    # -- reverse queries (GC support) ------------------------------------------------

    def containers_of(self, target: MailAddress) -> frozenset[SpaceAddress]:
        """The spaces in which ``target`` is currently visible."""
        return frozenset(self._containers.get(target, ()))

    def is_visible_anywhere(self, target: MailAddress) -> bool:
        return bool(self._containers.get(target))

    def purge_target(self, target: MailAddress, shard: int = 0) -> int:
        """Remove ``target``'s registrations homed on ``shard`` (used when
        it is collected).

        The purge is fanned across the plane's shards as one slice per
        stream, preserving the invariant that a registry is mutated only
        by its home shard's stream (so every replica applies one space's
        ops in one order); on a one-shard plane the shard-0 slice is
        everything.

        Returns the number of registries it was removed from.
        """
        holders = {
            s for s in self._containers.get(target, ())
            if (rec := self._spaces.get(s)) is not None
            and rec.shard == shard
        }
        n = 0
        for space in holders:
            rec = self._spaces[space]
            if not rec.destroyed and rec.unregister(target):
                n += 1
        remaining = self._containers.get(target)
        if remaining is not None:
            remaining -= holders
            if not remaining:
                del self._containers[target]
        # The capability binding goes with the last slice to leave the
        # target registered anywhere; the shard-0 slice also covers
        # targets that were never registered at all.
        if target not in self._containers and (shard == 0 or holders):
            self._known_capabilities.pop(target, None)
        if n:
            self._op_count += 1
        return n

    # -- failure quarantine ----------------------------------------------------------

    def _touch_spaces_hosting(self, node: int) -> int:
        """Bump the epoch of every live registry with actor entries on ``node``.

        Returns the number of masked/unmasked entries.  Bumping only the
        *hosting* registries keeps the resolution cache's path check
        sound: a cached walk that never saw an entry from ``node`` stays
        valid, one that did is invalidated.
        """
        touched = 0
        for rec in self._spaces.values():
            if rec.destroyed:
                continue
            hosted = sum(
                1 for e in rec.entries()
                if not e.is_space and e.target.node == node
            )
            if hosted:
                rec.touch()
                touched += hosted
        return touched

    def quarantine_node(self, node: int) -> int:
        """Mask every actor entry homed on ``node`` from resolution.

        Called when a failure detector confirms the node down: sends and
        broadcasts stop resolving to its (unreachable) actors without
        mutating the replicated registries.  Bumps the directory epoch
        and the epoch of each hosting registry so cached resolutions
        invalidate.  Returns the number of entries masked; idempotent.
        """
        if node in self._quarantined:
            return 0
        self._quarantined.add(node)
        masked = self._touch_spaces_hosting(node)
        self._op_count += 1
        return masked

    def unquarantine_node(self, node: int) -> int:
        """Lift the mask on ``node`` (recovery); returns entries unmasked."""
        if node not in self._quarantined:
            return 0
        self._quarantined.discard(node)
        unmasked = self._touch_spaces_hosting(node)
        self._op_count += 1
        return unmasked

    def is_masked(self, target: MailAddress) -> bool:
        """Is ``target`` hidden from resolution by a node quarantine?

        Only actor entries are masked: spaces are replicated state that
        every live replica still holds, so structured-pattern descent
        through a crashed node's spaces keeps working.
        """
        return (
            target.node in self._quarantined
            and not is_space_address(target)
        )

    @property
    def quarantined_nodes(self) -> frozenset[int]:
        return frozenset(self._quarantined)

    @property
    def op_count(self) -> int:
        """Number of mutating operations applied (replica coherence checks)."""
        return self._op_count

    @property
    def epoch(self) -> int:
        """Directory-wide cache epoch: moves iff some resolution may have.

        Derived from :attr:`op_count`, which — after the no-op audit —
        is bumped only by operations that actually mutate visibility
        state.  A resolution cached at epoch ``e`` is trivially still
        valid while ``epoch == e``.
        """
        return self._op_count

    def last_change(
        self, address: SpaceAddress
    ) -> "tuple[int, MailAddress] | None":
        """``(epoch, actor)`` of the registry's latest mutation when it
        touched one actor entry, else ``None`` (see
        :attr:`SpaceRecord.last_change`)."""
        rec = self._spaces.get(address)
        return rec.last_change if rec is not None else None

    def space_epoch(self, address: SpaceAddress) -> int:
        """The per-registry epoch of ``address``; ``-1`` if never known.

        Destroyed spaces keep their (final, bumped-at-destroy) epoch so a
        cached resolution that saw the live space is correctly
        invalidated.  Epochs are comparable only for the same address.
        """
        rec = self._spaces.get(address)
        return rec.epoch if rec is not None else -1

    def snapshot(self) -> dict:
        """Deep value snapshot of all registries, for replica comparison."""
        return {
            addr: rec.snapshot()
            for addr, rec in self._spaces.items()
            if not rec.destroyed
        }

    def __repr__(self):
        live = sum(1 for r in self._spaces.values() if not r.destroyed)
        return f"<Directory {live} live spaces, {self._op_count} ops>"
