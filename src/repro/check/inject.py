"""Deliberate bugs for harness self-tests.

The conformance oracle is only trustworthy if it *catches* the failure
classes it claims to cover.  Each injection here installs a plausible
implementation bug — of a kind this codebase has actually had — and the
self-test (CI job, ``--inject`` flag, test suite) asserts the oracle
flags it and the shrinker reduces it to a few-command trace.

An injection is ``inject(system) -> teardown``: it may monkey-patch
shared classes, so the teardown must restore them even when the check
raises (the oracle guarantees that with ``finally``).
"""

from __future__ import annotations

from repro.core.manager import SpaceManager
from repro.core.matching import ResolutionCache


def inject_arbitration_stale(system):
    """Arbitration remembers candidates: a §5.3 violation.

    ``choose_receiver`` keeps the previous candidate group per manager
    and, when any formerly legal receiver has dropped out of the current
    group, routes to it anyway — the classic stale-snapshot arbitration
    bug.  The oracle catches it as a choice outside the legal group (or
    as a delivery-multiset mismatch).
    """
    original = SpaceManager.choose_receiver
    memory: dict[int, list] = {}

    def remembering(self, candidates, rng, load_of=None):
        previous = memory.get(id(self), [])
        current = list(candidates)
        memory[id(self)] = current
        stale = [c for c in previous if c not in current]
        if stale:
            return stale[0]
        return original(self, candidates, rng, load_of)

    SpaceManager.choose_receiver = remembering
    return lambda: setattr(SpaceManager, "choose_receiver", original)


def inject_stale_resolution(system):
    """Resolution cache trusts hits blindly: a missed-invalidation bug.

    ``ResolutionCache.lookup`` normally validates a hit against the
    directory epoch and the epochs of every space the cached walk
    visited.  This injection skips the validation, so resolution keeps
    answering from snapshots that ``make_invisible``/``chattr``/destroy
    have outdated — the bug family PR 1's epoch machinery exists to
    prevent.  The oracle catches it through probes, misdelivery, or
    park-set drift.
    """
    original = ResolutionCache.lookup

    def blind(self, kind, space, pattern, directory, stats=None):
        entry = self._entries.get((kind, space, pattern))
        if entry is not None:
            return entry[0]
        return original(self, kind, space, pattern, directory, stats)

    ResolutionCache.lookup = blind
    return lambda: setattr(ResolutionCache, "lookup", original)


def inject_repair_keeps_stale(system):
    """The one-entry repair forgets to re-test the entry it repairs.

    ``ResolutionCache._repair`` moves the epochs forward but hands back
    the cached tuple, so a member hidden (or an actor shown) right after
    a resolution stays in (or out of) the group until a second mutation
    of the space forces a walk.
    """
    original = ResolutionCache._repair

    def trusting(self, entry, space, pattern, directory):
        stale = entry[0]
        if original(self, entry, space, pattern, directory) is None:
            return None
        entry[0] = stale
        return stale

    ResolutionCache._repair = trusting
    return lambda: setattr(ResolutionCache, "_repair", original)


#: Name -> injection, for ``python -m repro check --inject NAME``.
INJECTIONS = {
    "arbitration-stale": inject_arbitration_stale,
    "stale-resolution": inject_stale_resolution,
    "repair-keeps-stale": inject_repair_keeps_stale,
}
