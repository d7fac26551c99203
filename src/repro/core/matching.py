"""Scoped pattern resolution, including nested-space descent.

"Abstractly, each actorSpace maps a pattern to a set of actor mail
addresses by matching on its list of registered attributes of visible
actors" (paper section 5.1).  With nesting, "the attributes of actorSpaces
and actors may be combined to form a structured attribute (with a special
combination operator '/')" (section 7.1) — so a pattern ``a/b/c`` resolved
in space ``S`` matches:

* an actor visible in ``S`` under attribute ``a/b/c`` itself, or
* an actor visible under ``b/c`` inside a space visible in ``S`` under
  ``a``, and so on recursively.

The resolver works with *residual patterns*: descending into a space
visible under attribute prefix ``p`` rewrites the pattern to the set of
residuals ``pattern.after_prefix(p)`` (several may arise from ``**``).
Because the visibility relation over spaces is a DAG (section 5.7), the
descent terminates; a visited-set additionally dedupes shared substructure
so each ``(space, residual)`` pair is expanded once.

The same machinery resolves pattern-based *space* specifications: "the
actorSpace specification ... may itself be pattern based" (section 5.3).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable

from .addresses import ActorAddress, MailAddress, SpaceAddress
from .messages import Destination
from .patterns import AnyAtom, AnySequence, LiteralAtom, Pattern, parse_pattern
from .visibility import Directory

#: Address order as a C-level sort key: the triple ``MailAddress.__lt__``
#: compares.  Computed on a cache miss, not stored per address — every
#: logged op keeps its addresses alive, so a slot there is resident memory.
_address_order = attrgetter("kind", "node", "serial")


class MatchStats:
    """Counters filled in by a resolution (feeds experiment E10)."""

    __slots__ = (
        "entries_examined",
        "spaces_descended",
        "residuals_generated",
        "cache_hits",
        "cache_misses",
        "cache_invalidations",
    )

    def __init__(self):
        self.entries_examined = 0
        self.spaces_descended = 0
        self.residuals_generated = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_invalidations = 0

    def __repr__(self):
        return (
            f"<MatchStats examined={self.entries_examined} "
            f"descended={self.spaces_descended} residuals={self.residuals_generated} "
            f"cache={self.cache_hits}h/{self.cache_misses}m/{self.cache_invalidations}i>"
        )


class ResolutionCache:
    """Memoized ``resolve_actors``/``resolve_spaces`` results with epoch
    invalidation.

    A result is the group as a tuple in address order — the form
    arbitration indexes and fan-out iterates — and a hit returns that very
    object.  Beside it each cached resolution records the directory
    epoch at fill time and the per-space epoch of every space *visited*
    during the walk (its resolution path, including spaces that turned
    out to be missing, recorded with epoch ``-1``).  Validity is checked
    in two tiers:

    1. **Global**: the directory epoch has not moved — nothing changed
       anywhere, the entry is valid (one integer compare; this is the
       stable-visibility fast path that E10d measures).
    2. **Shard vector** (partitioned visibility plane only): the global
       epoch moved, but none of the *shards* whose spaces this walk
       crossed did — the mutation was sequenced on an unrelated shard.
       A handful of integer compares (one per shard touched, plus the
       quarantine-mask epoch) instead of one per visited space.  This
       is the per-shard generalization of the single directory epoch:
       under sharding the global epoch moves on every op anywhere, so
       tier 1 alone would degrade to a per-op invalidation storm.
    3. **Path**: some touched shard moved, but no space on the entry's
       resolution path did — the mutation happened somewhere this
       resolution never looked, so the result is still exact.  The
       global epoch is refreshed so the next lookup takes tier 1.

    Why the path check is sound: the walk descends into a space only
    through a registry entry of an already-visited space, and only when
    the pattern has residuals for that edge's attributes.  Any mutation
    that could alter the result therefore either edits a visited
    registry (bumping its epoch) or is unreachable by this pattern from
    this scope.  Spaces the walk *skipped* (no residuals) cannot
    contribute matches no matter what is registered inside them, and a
    skipped edge's attributes can only change by re-registering the
    child in the visited parent.

    Entries are evicted least-recently-used once ``max_entries`` is
    exceeded.  The cache is a per-replica structure (one per coordinator
    in the runtime): replicas apply visibility ops independently, so
    epochs are replica-local values.
    """

    __slots__ = ("max_entries", "hits", "misses", "invalidations",
                 "shard_hits", "_entries")

    def __init__(self, max_entries: int = 4096):
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        #: Hits that needed the shard-vector tier (tier 1 failed because
        #: an op landed somewhere, but not on any shard this walk saw).
        self.shard_hits = 0
        #: (kind, space, pattern) ->
        #:   [result, dir_epoch, {space: epoch}, shard_vector | None]
        #: where shard_vector is [{shard: epoch}, mask_epoch] under a
        #: partitioned plane and None otherwise.
        self._entries: dict[tuple, list] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> dict[str, int]:
        """Counter snapshot (surfaced by the runtime's tracer)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "shard_hits": self.shard_hits,
            "entries": len(self._entries),
        }

    # -- protocol used by the resolve functions ---------------------------------

    def lookup(
        self,
        kind: str,
        space: SpaceAddress,
        pattern: Pattern,
        directory: Directory,
        stats: MatchStats | None = None,
    ) -> "tuple | None":
        key = (kind, space, pattern)
        entry = self._entries.get(key)
        if entry is not None:
            result, dir_epoch, path_epochs, shard_vector = entry
            valid = dir_epoch == directory.epoch
            if not valid and shard_vector is not None:
                shard_epochs, mask_epoch = shard_vector
                if mask_epoch == directory.mask_epoch and all(
                    directory.shard_epoch(k) == e
                    for k, e in shard_epochs.items()
                ):
                    valid = True
                    self.shard_hits += 1
            if valid or all(
                directory.space_epoch(s) == e for s, e in path_epochs.items()
            ):
                entry[1] = directory.epoch
                # Refresh LRU position.
                del self._entries[key]
                self._entries[key] = entry
                self.hits += 1
                if stats is not None:
                    stats.cache_hits += 1
                return result
            del self._entries[key]
            self.invalidations += 1
            if stats is not None:
                stats.cache_invalidations += 1
        self.misses += 1
        if stats is not None:
            stats.cache_misses += 1
        return None

    def store(
        self,
        kind: str,
        space: SpaceAddress,
        pattern: Pattern,
        directory: Directory,
        path_spaces: "Iterable[SpaceAddress]",
        result: tuple,
    ) -> None:
        while len(self._entries) >= self.max_entries:
            self._entries.pop(next(iter(self._entries)))
        path_spaces = list(path_spaces)
        path_epochs = {s: directory.space_epoch(s) for s in path_spaces}
        shard_vector = None
        if directory.sharded:
            # Which shard streams can mutate the spaces this walk saw?
            # A registry is only ever mutated by its home shard's stream
            # or by shard 0 (space lifecycle + containment edges are
            # always sequenced there), so those epochs — plus the mask
            # epoch, because quarantine changes arrive outside any shard
            # stream — validate the entry with a handful of integer
            # compares (tier 2).  Shard 0 also covers spaces the walk
            # found missing: their eventual ADD_SPACE lands on shard 0.
            shard_epochs = {
                k: directory.shard_epoch(k)
                for k in directory.shards_of(path_spaces) | {0}
            }
            shard_vector = [shard_epochs, directory.mask_epoch]
        self._entries[(kind, space, pattern)] = [
            result, directory.epoch, path_epochs, shard_vector,
        ]

    def __repr__(self):
        return (
            f"<ResolutionCache {len(self._entries)} entries "
            f"{self.hits}h/{self.misses}m/{self.invalidations}i>"
        )


def resolve_actors(
    directory: Directory,
    pattern: "Pattern | str",
    space: SpaceAddress,
    stats: MatchStats | None = None,
    cache: ResolutionCache | None = None,
) -> tuple[ActorAddress, ...]:
    """All actor mail addresses matching ``pattern`` in ``space``, as a
    tuple in address order.

    This is the group-membership function behind both ``send`` (which then
    picks one member) and ``broadcast`` (which fans out to all).  With a
    ``cache``, a previously computed resolution is reused while its epoch
    evidence holds (see :class:`ResolutionCache`): the same tuple, uncopied.
    """
    pattern = parse_pattern(pattern)
    if cache is not None:
        cached = cache.lookup("actors", space, pattern, directory, stats)
        if cached is not None:
            return cached
    results: set[ActorAddress] = set()
    visited: set[tuple[SpaceAddress, Pattern]] = set()
    _walk(directory, pattern, space, results, None, visited, stats)
    group = tuple(sorted(results, key=_address_order))
    if cache is not None:
        cache.store(
            "actors", space, pattern, directory, {s for s, _ in visited}, group
        )
    return group


def resolve_spaces(
    directory: Directory,
    pattern: "Pattern | str",
    space: SpaceAddress,
    stats: MatchStats | None = None,
    cache: ResolutionCache | None = None,
) -> tuple[SpaceAddress, ...]:
    """All actorSpace addresses matching ``pattern`` in ``space``, as a
    tuple in address order.

    Used to resolve the ``@space`` part of a destination when it is itself
    a pattern; matching considers spaces visible in ``space``, recursively
    through structured attributes, exactly like actor resolution.
    """
    pattern = parse_pattern(pattern)
    if cache is not None:
        cached = cache.lookup("spaces", space, pattern, directory, stats)
        if cached is not None:
            return cached
    results: set[SpaceAddress] = set()
    visited: set[tuple[SpaceAddress, Pattern]] = set()
    _walk(directory, pattern, space, None, results, visited, stats)
    group = tuple(sorted(results, key=_address_order))
    if cache is not None:
        cache.store(
            "spaces", space, pattern, directory, {s for s, _ in visited}, group
        )
    return group


def _walk(
    directory: Directory,
    pattern: Pattern,
    space: SpaceAddress,
    actor_results: set[ActorAddress] | None,
    space_results: set[SpaceAddress] | None,
    visited: set[tuple[SpaceAddress, Pattern]],
    stats: MatchStats | None,
) -> None:
    """Expand one ``(space, pattern)`` state of the descent."""
    key = (space, pattern)
    if key in visited:
        return
    visited.add(key)
    if not directory.has_space(space):
        return
    rec = directory.space(space)
    # First-atom index fast paths (E10c measures the saving):
    # * literal first atom — only entries indexed under that atom can match;
    # * selective first matcher (glob/regex) — test it once per distinct
    #   first atom and walk only the matching buckets;
    # * `*` accepts every first atom and `**` may absorb none, so both
    #   fall back to the full registry scan.
    first = pattern.matchers[0]
    if isinstance(first, LiteralAtom):
        candidates = rec.entries_with_first_atom(first.text)
    elif isinstance(first, (AnyAtom, AnySequence)):
        candidates = rec.entries()
    else:
        candidates = rec.entries_matching_first(first)
    for entry in candidates:
        if stats is not None:
            stats.entries_examined += 1
        if entry.is_space:
            target_space: SpaceAddress = entry.target  # type: ignore[assignment]
            for attr in entry.attributes:
                # Direct match on the space itself (space-valued queries).
                if space_results is not None and pattern.matches(attr):
                    space_results.add(target_space)
                # Descend with residual patterns through this attribute.
                residuals = pattern.after_prefix(attr)
                if stats is not None:
                    stats.residuals_generated += len(residuals)
                for residual in residuals:
                    if stats is not None:
                        stats.spaces_descended += 1
                    _walk(
                        directory,
                        residual,
                        target_space,
                        actor_results,
                        space_results,
                        visited,
                        stats,
                    )
        else:
            if (
                actor_results is not None
                and any(pattern.matches(attr) for attr in entry.attributes)
                and not directory.is_masked(entry.target)
            ):
                actor_results.add(entry.target)  # type: ignore[arg-type]


def resolve_destination_spaces(
    directory: Directory,
    destination: Destination,
    host_space: SpaceAddress,
    cache: ResolutionCache | None = None,
) -> tuple[SpaceAddress, ...]:
    """Resolve the ``@space`` part of a destination to concrete spaces
    (in address order).

    * explicit :class:`SpaceAddress` — used as is;
    * ``None`` — the sender's host space (section 7.1 default);
    * a pattern — every matching space visible from the host space.

    Destroyed/unknown explicit spaces yield an empty tuple (the message
    will be handled by the manager's unmatched policy).
    """
    spec = destination.space
    if spec is None:
        return (host_space,) if directory.has_space(host_space) else ()
    if isinstance(spec, SpaceAddress):
        return (spec,) if directory.has_space(spec) else ()
    assert isinstance(spec, Pattern)
    return resolve_spaces(directory, spec, host_space, cache=cache)


def resolve_destination(
    directory: Directory,
    destination: Destination,
    host_space: SpaceAddress,
    stats: MatchStats | None = None,
    cache: ResolutionCache | None = None,
) -> set[ActorAddress]:
    """Full destination resolution: spaces first, then actors in each."""
    spaces = resolve_destination_spaces(directory, destination, host_space, cache=cache)
    return set().union(*(resolve_actors(directory, destination.pattern, space, stats,
                                        cache=cache) for space in spaces))


def group_size(
    directory: Directory, pattern: "Pattern | str", space: SpaceAddress
) -> int:
    """Convenience: how many actors currently form the group ``pattern@space``."""
    return len(resolve_actors(directory, pattern, space))
