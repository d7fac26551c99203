"""ActorSpace records: passive containers with attribute registries.

"An actorSpace is a computationally passive container of actors and acts
as a context for matching patterns" (paper section 5.2).  A space holds no
code and sends no messages; all it owns is a *registry* mapping the mail
addresses of visible actors and actorSpaces to the attributes under which
they are visible — the "mailing list" of the paper's second metaphor.

Entries are keyed by mail address; each entry carries a ``frozenset`` of
:class:`~repro.core.atoms.AttributePath` (a property list: an actor may be
visible under several attributes at once, and a pattern matches the entry
if it matches *any* of them).  Registration records also remember the
registration's virtual time, which feeds the tracing layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .addresses import MailAddress, SpaceAddress, is_space_address
from .atoms import AttributePath, as_paths
from .capabilities import Capability
from .errors import SpaceDestroyedError


@dataclass(frozen=True)
class RegistryEntry:
    """One visible entity in one actorSpace."""

    target: MailAddress
    attributes: frozenset[AttributePath]
    registered_at: float = 0.0

    @property
    def is_space(self) -> bool:
        return is_space_address(self.target)


class SpaceRecord:
    """The runtime record of one actorSpace.

    Parameters
    ----------
    address:
        The space's unique mail address.
    capability:
        If not ``None``, visibility operations *inside* this space must
        present this capability (checked by the space's manager).
    node:
        The node on which the space was created (spaces are replicated
        state, but creation placement matters for accounting).
    created_at:
        Virtual creation time.
    """

    __slots__ = (
        "address",
        "capability",
        "node",
        "created_at",
        "shard",
        "_entries",
        "_by_first_atom",
        "destroyed",
        "epoch",
        "last_change",
    )

    def __init__(
        self,
        address: SpaceAddress,
        capability: Capability | None = None,
        node: int = 0,
        created_at: float = 0.0,
        shard: int = 0,
    ):
        self.address = address
        self.capability = capability
        self.node = node
        self.created_at = created_at
        #: Home shard of this space on the visibility plane (always 0 on
        #: a one-shard plane): actor-visibility ops inside the space are
        #: sequenced by this shard's sequencer.
        self.shard = shard
        self._entries: dict[MailAddress, RegistryEntry] = {}
        #: first atom of an attribute -> {target: entry}.  Lets literal-
        #: prefixed patterns resolve without scanning the whole registry
        #: (ablated in experiment E10c).
        self._by_first_atom: dict[str, dict[MailAddress, RegistryEntry]] = {}
        self.destroyed = False
        #: Monotonic counter bumped on every *mutation* of this registry
        #: (register with changed attributes, successful unregister,
        #: destroy).  Resolution caches key their validity on it.
        self.epoch = 0
        #: ``(epoch, target)`` when the latest mutation re-registered or
        #: removed the one *actor* entry ``target``; ``None`` after any
        #: other (a space entry, :meth:`touch`, :meth:`destroy`).  Lets a
        #: cached resolution one mutation behind be repaired, not re-walked.
        self.last_change: tuple[int, MailAddress] | None = None

    # -- registry ---------------------------------------------------------------

    def _check_alive(self) -> None:
        if self.destroyed:
            raise SpaceDestroyedError(f"{self.address!r} has been destroyed")

    def register(
        self, target: MailAddress, attributes, now: float = 0.0
    ) -> RegistryEntry:
        """Insert or replace the entry for ``target``.

        ``attributes`` accepts a single path/str or an iterable of them.
        Replacement (rather than union) matches ``change_attributes``
        semantics; callers that want additive registration read the old
        entry first.

        Re-registering a target under its *current* attribute set is a
        no-op: the existing entry is returned unchanged and the registry
        epoch does not move (spurious epoch bumps would invalidate
        resolution caches for nothing).
        """
        self._check_alive()
        paths = as_paths(attributes)
        old = self._entries.get(target)
        if old is not None:
            if old.attributes == paths:
                return old
            self._unindex(old)
        entry = RegistryEntry(target, paths, now)
        self._entries[target] = entry
        for path in entry.attributes:
            self._by_first_atom.setdefault(path.atoms[0], {})[target] = entry
        self._mutated(entry)
        return entry

    def unregister(self, target: MailAddress) -> bool:
        """Remove ``target``; returns ``True`` if it was present."""
        self._check_alive()
        entry = self._entries.pop(target, None)
        if entry is None:
            return False
        self._unindex(entry)
        self._mutated(entry)
        return True

    def _mutated(self, entry: RegistryEntry) -> None:
        self.epoch += 1
        self.last_change = None if entry.is_space else (self.epoch, entry.target)

    def _unindex(self, entry: RegistryEntry) -> None:
        for path in entry.attributes:
            bucket = self._by_first_atom.get(path.atoms[0])
            if bucket is not None:
                bucket.pop(entry.target, None)
                if not bucket:
                    del self._by_first_atom[path.atoms[0]]

    def touch(self) -> None:
        """Bump the epoch without mutating entries.

        Used by quarantine masking: the registry's *effective* contents
        (what resolution may return) changed even though the stored
        entries did not, so cached resolutions through it must
        invalidate.
        """
        self.epoch += 1
        self.last_change = None

    def lookup(self, target: MailAddress) -> RegistryEntry | None:
        """The entry for ``target``, or ``None``."""
        return self._entries.get(target)

    def __contains__(self, target: MailAddress) -> bool:
        return target in self._entries

    def entries(self) -> Iterator[RegistryEntry]:
        """Iterate over all entries (actors and spaces)."""
        return iter(self._entries.values())

    def entries_with_first_atom(self, atom: str) -> Iterator[RegistryEntry]:
        """Entries having at least one attribute starting with ``atom``.

        The index behind the literal-prefix fast path: a pattern whose
        first matcher is the literal ``atom`` can only match these.
        """
        return iter(self._by_first_atom.get(atom, {}).values())

    def entries_matching_first(self, matcher) -> Iterator[RegistryEntry]:
        """Entries whose some attribute's first atom satisfies ``matcher``.

        Extension of the first-atom index to *selective* non-literal
        matchers (globs, regex atoms): instead of scanning every entry,
        test the matcher once per distinct first atom and only walk the
        matching buckets.  Entries visible under several matching first
        atoms are deduplicated.  With ``k`` distinct first atoms over
        ``n`` entries this costs ``O(k + matching bucket sizes)`` instead
        of ``O(n)`` — the win E10c/E10d measure.
        """
        buckets = [
            bucket
            for atom, bucket in self._by_first_atom.items()
            if matcher.matches(atom)
        ]
        if len(buckets) == 1:
            return iter(buckets[0].values())
        seen: set[MailAddress] = set()
        out: list[RegistryEntry] = []
        for bucket in buckets:
            for target, entry in bucket.items():
                if target not in seen:
                    seen.add(target)
                    out.append(entry)
        return iter(out)

    def actor_entries(self) -> Iterator[RegistryEntry]:
        """Iterate over entries whose target is an actor."""
        return (e for e in self._entries.values() if not e.is_space)

    def space_entries(self) -> Iterator[RegistryEntry]:
        """Iterate over entries whose target is a nested actorSpace."""
        return (e for e in self._entries.values() if e.is_space)

    @property
    def size(self) -> int:
        """Number of visible entities in this space."""
        return len(self._entries)

    def destroy(self) -> list[RegistryEntry]:
        """Explicitly destroy the space (paper section 7.1).

        Members are *not* deleted — "when an actorSpace is garbage
        collected, the actors contained in that actorSpace themselves are
        not deleted" (section 5.5) — they merely stop being visible through
        it.  Returns the entries that were evicted, for bookkeeping.
        """
        evicted = list(self._entries.values())
        self._entries.clear()
        self._by_first_atom.clear()
        self.destroyed = True
        self.epoch += 1
        self.last_change = None
        return evicted

    def snapshot(self) -> dict[MailAddress, frozenset[AttributePath]]:
        """An immutable view of the registry (used by coherence checks)."""
        return {t: e.attributes for t, e in self._entries.items()}

    def __repr__(self):
        state = "destroyed" if self.destroyed else f"{len(self._entries)} entries"
        return f"<SpaceRecord {self.address!r} {state}>"
