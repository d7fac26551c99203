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
        "cache_repairs",
    )

    def __init__(self):
        self.entries_examined = 0
        self.spaces_descended = 0
        self.residuals_generated = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_invalidations = 0
        self.cache_repairs = 0

    def __repr__(self):
        return (
            f"<MatchStats examined={self.entries_examined} "
            f"descended={self.spaces_descended} residuals={self.residuals_generated} "
            f"cache={self.cache_hits}h/{self.cache_misses}m/"
            f"{self.cache_invalidations}i/{self.cache_repairs}r>"
        )


class ResolutionCache:
    """Memoized ``resolve_actors``/``resolve_spaces`` results with epoch
    invalidation and one-entry repair.

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
    2. **Path**: the global epoch moved, but no space on the entry's
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

    Where both fail, an ``"actors"`` entry whose walk expanded one state
    (its scope under its own pattern: no descent) is **repaired** when the
    scope moved by exactly one mutation of one actor entry
    (:attr:`SpaceRecord.last_change`).  That walk's answer is the scope's
    actor entries some attribute matches and no mask hides; space entries
    and masks on the scope's actors did not change (either would bump it
    with no ``last_change``), so re-testing the one target with the same
    predicate is exact: the same tuple if membership held, else one with
    the target added or dropped.  Anything else — two mutations behind, a
    space entry, a quarantine ``touch``, a destroyed scope, a walk over
    several states, a ``"spaces"`` entry — walks.  A repair counts as a
    miss and an invalidation (a hit is a tuple served as stored) and as a
    ``repair``.

    Entries are evicted least-recently-used once ``max_entries`` is
    exceeded.  The cache is a per-replica structure (one per coordinator
    in the runtime): replicas apply visibility ops independently, so
    epochs are replica-local values.
    """

    __slots__ = ("max_entries", "hits", "misses", "invalidations",
                 "repairs", "_entries")

    def __init__(self, max_entries: int = 4096):
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.repairs = 0
        #: (kind, space, pattern) ->
        #:   [result, dir_epoch, {space: epoch}, repairable]
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
            "repairs": self.repairs,
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
        # Popped and re-inserted when kept: that is the LRU refresh.
        entry = self._entries.pop(key, None)
        result = None
        if entry is not None:
            epoch = directory.epoch
            if entry[1] == epoch or all(
                directory.space_epoch(s) == e for s, e in entry[2].items()
            ):
                entry[1] = epoch
                self._entries[key] = entry
                self.hits += 1
                if stats is not None:
                    stats.cache_hits += 1
                return entry[0]
            self.invalidations += 1
            if stats is not None:
                stats.cache_invalidations += 1
            if entry[3]:
                result = self._repair(entry, space, pattern, directory)
            if result is not None:
                self._entries[key] = entry
                self.repairs += 1
                if stats is not None:
                    stats.cache_repairs += 1
        self.misses += 1
        if stats is not None:
            stats.cache_misses += 1
        return result

    def _repair(self, entry: list, space: SpaceAddress, pattern: Pattern,
                directory: Directory) -> "tuple | None":
        """Carry ``entry`` past the one actor-entry mutation its scope has
        seen since it was stored; ``None`` when that is not the case."""
        change = directory.last_change(space)
        if change is None or change[0] != entry[2][space] + 1:
            return None
        epoch, target = change
        now = directory.space(space).lookup(target)
        member = now is not None and not directory.is_masked(target) and any(
            pattern.matches(attr) for attr in now.attributes)
        group = entry[0]
        if member != (target in group):
            group = (tuple(sorted(group + (target,), key=_address_order))
                     if member else tuple(a for a in group if a != target))
        entry[0:3] = group, directory.epoch, {space: epoch}
        return group

    def store(
        self,
        kind: str,
        space: SpaceAddress,
        pattern: Pattern,
        directory: Directory,
        visited: "set[tuple[SpaceAddress, Pattern]]",
        result: tuple,
    ) -> None:
        while len(self._entries) >= self.max_entries:
            self._entries.pop(next(iter(self._entries)))
        path_epochs = {s: directory.space_epoch(s) for s, _ in visited}
        self._entries[(kind, space, pattern)] = [
            result, directory.epoch, path_epochs,
            kind == "actors" and len(visited) == 1,
        ]

    def __repr__(self):
        return (f"<ResolutionCache {len(self._entries)} entries {self.hits}h/"
                f"{self.misses}m/{self.invalidations}i/{self.repairs}r>")


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
        cache.store("actors", space, pattern, directory, visited, group)
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
        cache.store("spaces", space, pattern, directory, visited, group)
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
