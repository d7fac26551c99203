"""Unit + randomized tests: the epoch-invalidated resolution cache.

The cache memoizes ``resolve_actors``/``resolve_spaces`` keyed on
``(space, pattern)`` and revalidates on two tiers of epoch evidence:
the directory-wide epoch (nothing changed at all) and the per-space
epochs of the resolution path (nothing changed *where this resolution
looked*); an entry one actor-entry mutation behind in its only space is
repaired instead of re-walked.  These tests pin the hit/miss/invalidation
protocol, every invalidation rule, each fallback of the repair, and —
via randomized op sequences — equivalence with a fresh uncached walk.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.actorspace import SpaceRecord
from repro.core.addresses import ActorAddress, SpaceAddress
from repro.core.errors import ActorSpaceError
from repro.core.matching import (
    MatchStats,
    ResolutionCache,
    resolve_actors,
    resolve_destination,
    resolve_spaces,
)
from repro.core.messages import Destination
from repro.core.patterns import parse_pattern
from repro.core.visibility import Directory


def make_directory(n_spaces=3):
    d = Directory()
    spaces = [SpaceAddress(0, i) for i in range(n_spaces)]
    for s in spaces:
        d.add_space(SpaceRecord(s))
    return d, spaces


class TestHitMissProtocol:
    def test_repeat_resolution_hits(self):
        d, (root, *_r) = make_directory()
        a = ActorAddress(1, 0)
        d.make_visible(a, "svc/print", root)
        cache = ResolutionCache()
        stats = MatchStats()
        first = resolve_actors(d, "svc/*", root, stats, cache=cache)
        second = resolve_actors(d, "svc/*", root, stats, cache=cache)
        assert first == (a,) and second is first  # a hit copies nothing
        assert (cache.hits, cache.misses, cache.invalidations) == (1, 1, 0)
        assert stats.cache_hits == 1 and stats.cache_misses == 1

    def test_hit_does_not_rewalk(self):
        d, (root, *_r) = make_directory()
        for i in range(20):
            d.make_visible(ActorAddress(1, i), f"svc/inst{i}", root)
        cache = ResolutionCache()
        resolve_actors(d, "svc/*", root, cache=cache)
        stats = MatchStats()
        resolve_actors(d, "svc/*", root, stats, cache=cache)
        assert stats.entries_examined == 0

    def test_cached_result_is_a_copy(self):
        # The property this protects — a caller cannot corrupt the cached
        # group — now holds by type: the result is the cached tuple itself.
        d, (root, *_r) = make_directory()
        a = ActorAddress(1, 0)
        d.make_visible(a, "x", root)
        cache = ResolutionCache()
        got = resolve_actors(d, "x", root, cache=cache)
        assert type(got) is tuple
        with pytest.raises(TypeError):
            got[0] = ActorAddress(9, 9)
        assert got == (a,)
        assert resolve_actors(d, "x", root, cache=cache) is got

    def test_distinct_patterns_and_scopes_cached_separately(self):
        d, (s0, s1, _s2) = make_directory()
        a, b = ActorAddress(1, 0), ActorAddress(1, 1)
        d.make_visible(a, "x", s0)
        d.make_visible(b, "x", s1)
        cache = ResolutionCache()
        assert set(resolve_actors(d, "x", s0, cache=cache)) == {a}
        assert set(resolve_actors(d, "x", s1, cache=cache)) == {b}
        assert set(resolve_actors(d, "*", s0, cache=cache)) == {a}
        assert cache.misses == 3 and cache.hits == 0
        assert len(cache) == 3

    def test_actor_and_space_resolutions_do_not_collide(self):
        d, (root, _s1, _s2) = make_directory()
        sub = SpaceAddress(0, 9)
        d.add_space(SpaceRecord(sub))
        d.make_visible(sub, "x", root)
        d.make_visible(ActorAddress(1, 0), "x", root)
        cache = ResolutionCache()
        assert set(resolve_actors(d, "x", root, cache=cache)) == {ActorAddress(1, 0)}
        assert set(resolve_spaces(d, "x", root, cache=cache)) == {sub}

    def test_lru_eviction_bounds_entries(self):
        d, (root, *_r) = make_directory()
        d.make_visible(ActorAddress(1, 0), "a", root)
        cache = ResolutionCache(max_entries=4)
        for i in range(10):
            resolve_actors(d, f"p{i}", root, cache=cache)
        assert len(cache) == 4
        # Oldest entries were evicted: re-resolving them misses again.
        before = cache.misses
        resolve_actors(d, "p0", root, cache=cache)
        assert cache.misses == before + 1


class TestInvalidationRules:
    def _cached(self, d, root, pattern="svc/*"):
        cache = ResolutionCache()
        resolve_actors(d, pattern, root, cache=cache)
        return cache

    def test_make_visible_on_path_invalidates(self):
        d, (root, *_r) = make_directory()
        a, b = ActorAddress(1, 0), ActorAddress(1, 1)
        d.make_visible(a, "svc/a", root)
        cache = self._cached(d, root)
        d.make_visible(b, "svc/b", root)
        assert set(resolve_actors(d, "svc/*", root, cache=cache)) == {a, b}
        assert cache.invalidations == 1

    def test_make_invisible_on_path_invalidates(self):
        d, (root, *_r) = make_directory()
        a = ActorAddress(1, 0)
        d.make_visible(a, "svc/a", root)
        cache = self._cached(d, root)
        d.make_invisible(a, root)
        assert set(resolve_actors(d, "svc/*", root, cache=cache)) == set()

    def test_change_attributes_on_path_invalidates(self):
        d, (root, *_r) = make_directory()
        a = ActorAddress(1, 0)
        d.make_visible(a, "svc/a", root)
        cache = self._cached(d, root)
        d.change_attributes(a, "other/a", root)
        assert set(resolve_actors(d, "svc/*", root, cache=cache)) == set()

    def test_destroy_space_on_path_invalidates(self):
        d, (root, _s1, _s2) = make_directory()
        sub = SpaceAddress(0, 9)
        d.add_space(SpaceRecord(sub))
        d.make_visible(sub, "dept", root)
        a = ActorAddress(1, 0)
        d.make_visible(a, "kind/a", sub)
        cache = ResolutionCache()
        assert set(resolve_actors(d, "dept/kind/*", root, cache=cache)) == {a}
        d.destroy_space(sub)
        assert set(resolve_actors(d, "dept/kind/*", root, cache=cache)) == set()

    def test_mutation_in_nested_space_invalidates_outer_scope(self):
        d, (root, _s1, _s2) = make_directory()
        sub = SpaceAddress(0, 9)
        d.add_space(SpaceRecord(sub))
        d.make_visible(sub, "dept", root)
        cache = ResolutionCache()
        assert set(resolve_actors(d, "dept/**", root, cache=cache)) == set()
        # The mutation touches only `sub`, but `sub` is on the path.
        a = ActorAddress(1, 0)
        d.make_visible(a, "kind/a", sub)
        assert set(resolve_actors(d, "dept/**", root, cache=cache)) == {a}

    def test_space_added_after_dangling_reference_invalidates(self):
        # A space entry may reference an address the directory has not
        # seen yet (bus races); resolution through it finds nothing.
        # Creating the space later must invalidate, even though no
        # *visited live* registry changed.
        d, (root, *_r) = make_directory()
        ghost = SpaceAddress(7, 7)
        d.make_visible(ghost, "dept", root)
        cache = ResolutionCache()
        assert set(resolve_actors(d, "dept/*", root, cache=cache)) == set()
        d.add_space(SpaceRecord(ghost))
        a = ActorAddress(1, 0)
        d.make_visible(a, "svc", ghost)
        assert set(resolve_actors(d, "dept/*", root, cache=cache)) == {a}

    def test_unrelated_space_mutation_revalidates_without_rewalk(self):
        d, (root, other, _s2) = make_directory()
        a = ActorAddress(1, 0)
        d.make_visible(a, "svc/a", root)
        cache = self._cached(d, root)
        # Mutate a space the cached walk never visited.
        d.make_visible(ActorAddress(1, 1), "noise", other)
        stats = MatchStats()
        assert set(resolve_actors(d, "svc/*", root, stats, cache=cache)) == {a}
        assert stats.cache_hits == 1
        assert stats.entries_examined == 0
        assert cache.invalidations == 0
        # The global epoch was refreshed: the next lookup is tier-1 again.
        stats2 = MatchStats()
        resolve_actors(d, "svc/*", root, stats2, cache=cache)
        assert stats2.cache_hits == 1

    def test_noop_make_invisible_keeps_cache_valid(self):
        d, (root, *_r) = make_directory()
        a = ActorAddress(1, 0)
        d.make_visible(a, "svc/a", root)
        cache = self._cached(d, root)
        epoch = d.epoch
        d.make_invisible(ActorAddress(9, 9), root)  # absent: no-op
        assert d.epoch == epoch
        stats = MatchStats()
        resolve_actors(d, "svc/*", root, stats, cache=cache)
        assert stats.cache_hits == 1 and cache.invalidations == 0

    def test_noop_change_attributes_keeps_cache_valid(self):
        d, (root, *_r) = make_directory()
        a = ActorAddress(1, 0)
        d.make_visible(a, "svc/a", root)
        cache = self._cached(d, root)
        epoch = d.epoch
        d.change_attributes(a, "svc/a", root)  # identical attributes
        assert d.epoch == epoch
        stats = MatchStats()
        resolve_actors(d, "svc/*", root, stats, cache=cache)
        assert stats.cache_hits == 1 and cache.invalidations == 0


class TestDestinationResolution:
    def test_pattern_space_spec_uses_cache(self):
        d, (root, _s1, _s2) = make_directory()
        sub = SpaceAddress(0, 9)
        d.add_space(SpaceRecord(sub))
        d.make_visible(sub, "pool", root)
        a = ActorAddress(1, 0)
        d.make_visible(a, "worker", sub)
        dest = Destination(parse_pattern("*"), parse_pattern("pool"))
        cache = ResolutionCache()
        assert resolve_destination(d, dest, root, cache=cache) == {a}
        hits_before = cache.hits
        assert resolve_destination(d, dest, root, cache=cache) == {a}
        # Both the space-spec and the per-space actor resolutions hit.
        assert cache.hits >= hits_before + 2


PANEL = [
    parse_pattern(p)
    for p in ("a", "a/b", "a/*", "*/b", "**", "a/**", "**/c", "*", "a/*/c",
              "[ab]", "[ab]/c", "{a,b}/*")
]


class TestRandomizedEquivalence:
    """Cached resolution must equal a fresh walk after *any* op sequence."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_ops_cached_equals_fresh(self, seed):
        rng = random.Random(seed)
        d = Directory()
        spaces = [SpaceAddress(0, i) for i in range(4)]
        actors = [ActorAddress(1, i) for i in range(6)]
        alive = []
        for s in spaces:
            d.add_space(SpaceRecord(s))
            alive.append(s)
        cache = ResolutionCache()
        atoms = ["a", "b", "c"]

        def random_attr():
            return "/".join(
                rng.choice(atoms) for _ in range(rng.randint(1, 3))
            )

        for _step in range(120):
            op = rng.random()
            try:
                if op < 0.45:
                    d.make_visible(rng.choice(actors), random_attr(),
                                   rng.choice(alive))
                elif op < 0.65:
                    d.make_invisible(rng.choice(actors), rng.choice(alive))
                elif op < 0.80:
                    d.make_visible(rng.choice(spaces), random_attr(),
                                   rng.choice(alive))
                elif op < 0.90:
                    d.change_attributes(rng.choice(actors), random_attr(),
                                        rng.choice(alive))
                elif op < 0.95 and len(alive) > 1:
                    victim = rng.choice(alive)
                    d.destroy_space(victim)
                    alive.remove(victim)
                else:
                    fresh = SpaceAddress(0, len(spaces) + _step)
                    d.add_space(SpaceRecord(fresh))
                    spaces.append(fresh)
                    alive.append(fresh)
            except Exception:
                # Cycle/capability/unknown errors are fine: the point is
                # the cache, not the op's preconditions.
                pass
            pattern = rng.choice(PANEL)
            scope = rng.choice(alive)
            cached = resolve_actors(d, pattern, scope, cache=cache)
            fresh_result = resolve_actors(d, pattern, scope)
            assert cached == fresh_result, (
                f"step {_step}: {pattern} @ {scope}: "
                f"cached={cached} fresh={fresh_result}"
            )
            cached_spaces = resolve_spaces(d, pattern, scope, cache=cache)
            fresh_spaces = resolve_spaces(d, pattern, scope)
            assert cached_spaces == fresh_spaces
            # Both come back as values in arbitration (address) order,
            # and a repeat while the epochs hold is the stored object.
            for group, again in (
                (cached, resolve_actors(d, pattern, scope, cache=cache)),
                (cached_spaces, resolve_spaces(d, pattern, scope, cache=cache)),
            ):
                assert type(group) is tuple
                assert group == tuple(sorted(set(group)))
                assert again is group
        assert cache.hits > 0  # the scenario actually exercised reuse


def resolve_counted(d, pattern, scope, cache):
    """A cached resolution and the :class:`MatchStats` it filled."""
    stats = MatchStats()
    return resolve_actors(d, pattern, scope, stats, cache=cache), stats


class TestRepair:
    """One actor-entry mutation behind, in the only space the walk saw:
    re-test that entry; anything else walks."""

    def _warm(self, pattern="svc/*", n=3):
        d, (root, other, _s2) = make_directory()
        members = [ActorAddress(1, i) for i in range(n)]
        for a in members:
            d.make_visible(a, f"svc/{a.serial}", root)
        cache = ResolutionCache()
        group = resolve_actors(d, pattern, root, cache=cache)
        assert group == tuple(members)
        return d, root, other, members, cache, group

    def test_repair_admits_a_member(self):
        d, root, _o, members, cache, group = self._warm()
        newcomer = ActorAddress(0, 7)  # sorts first: node 0
        d.make_visible(newcomer, "svc/new", root)
        got, stats = resolve_counted(d, "svc/*", root, cache)
        assert got == (newcomer, *members)
        assert stats.entries_examined == 0 and stats.cache_repairs == 1
        assert (cache.hits, cache.misses, cache.invalidations,
                cache.repairs) == (0, 2, 1, 1)
        # The repaired tuple is stored with fresh epochs: a plain hit now.
        again, stats = resolve_counted(d, "svc/*", root, cache)
        assert again is got and stats.cache_hits == 1

    def test_repair_drops_a_member(self):
        d, root, _o, members, cache, _group = self._warm()
        d.make_invisible(members[1], root)
        got, stats = resolve_counted(d, "svc/*", root, cache)
        assert got == (members[0], members[2])
        assert stats.entries_examined == 0 and cache.repairs == 1
        d.change_attributes(members[0], "other/x", root)
        got, stats = resolve_counted(d, "svc/*", root, cache)
        assert got == (members[2],) and cache.repairs == 2

    def test_repair_keeps_the_tuple_when_membership_holds(self):
        d, root, _o, members, cache, group = self._warm()
        d.change_attributes(members[0], "svc/renamed", root)
        got, _stats = resolve_counted(d, "svc/*", root, cache)
        assert got is group
        d.make_visible(ActorAddress(2, 0), "noise", root)  # never matches
        got, _stats = resolve_counted(d, "svc/*", root, cache)
        assert got is group and cache.repairs == 2 and cache.hits == 0

    def test_two_mutations_behind_walks(self):
        d, root, _o, members, cache, _group = self._warm()
        d.make_invisible(members[0], root)
        d.make_invisible(members[1], root)
        got, stats = resolve_counted(d, "svc/*", root, cache)
        assert got == (members[2],)
        assert stats.entries_examined > 0 and cache.repairs == 0
        assert cache.invalidations == 1

    def test_space_entry_registered_or_changed_walks(self):
        d, root, _o, members, cache, _group = self._warm()
        sub = SpaceAddress(0, 9)
        d.add_space(SpaceRecord(sub))
        d.make_visible(sub, "pool", root)  # a space entry in the scope
        got, stats = resolve_counted(d, "svc/*", root, cache)
        assert got == tuple(members)
        assert stats.entries_examined > 0 and cache.repairs == 0
        d.change_attributes(sub, "dept", root)
        got, stats = resolve_counted(d, "svc/*", root, cache)
        assert got == tuple(members)
        assert stats.entries_examined > 0 and cache.repairs == 0

    def test_quarantine_touch_walks(self):
        d, root, _o, members, cache, _group = self._warm()
        d.quarantine_node(1)  # hosts every member: touches the scope
        got, stats = resolve_counted(d, "svc/*", root, cache)
        assert got == ()
        assert stats.entries_examined > 0 and cache.repairs == 0
        d.unquarantine_node(1)
        got, stats = resolve_counted(d, "svc/*", root, cache)
        assert got == tuple(members)
        assert stats.entries_examined > 0 and cache.repairs == 0
        # A touch right behind an actor change: the touch is the latest
        # mutation, so the recorded actor change no longer describes it.
        newcomer = ActorAddress(2, 0)
        d.make_visible(newcomer, "svc/new", root)
        d.quarantine_node(1)
        got, stats = resolve_counted(d, "svc/*", root, cache)
        assert got == (newcomer,) and cache.repairs == 0

    def test_a_masked_newcomer_is_not_admitted(self):
        d, root, _o, members, cache, group = self._warm()
        d.quarantine_node(5)  # no entry on node 5 in scope: no touch
        d.make_visible(ActorAddress(5, 0), "svc/masked", root)
        got, stats = resolve_counted(d, "svc/*", root, cache)
        assert got is group and cache.repairs == 1

    def test_destroyed_space_walks(self):
        d, root, other, _members, cache, _group = self._warm()
        a = ActorAddress(1, 9)
        d.make_visible(a, "svc/a", other)
        assert resolve_actors(d, "svc/*", other, cache=cache) == (a,)
        d.make_visible(ActorAddress(1, 10), "svc/b", other)  # one behind
        d.destroy_space(other)  # ... and then the space goes
        got, stats = resolve_counted(d, "svc/*", other, cache)
        assert got == () and cache.repairs == 0
        assert stats.cache_invalidations == 1

    def test_multi_space_path_walks(self):
        d, (root, *_r) = make_directory()
        sub = SpaceAddress(0, 9)
        d.add_space(SpaceRecord(sub))
        d.make_visible(sub, "dept", root)
        a, b = ActorAddress(1, 0), ActorAddress(1, 1)
        d.make_visible(a, "dept/x", root)
        cache = ResolutionCache()
        assert resolve_actors(d, "dept/*", root, cache=cache) == (a,)
        d.make_visible(b, "dept/y", root)  # one actor entry in the scope
        got, stats = resolve_counted(d, "dept/*", root, cache)
        assert got == (a, b)
        assert stats.entries_examined > 0 and cache.repairs == 0

    def test_space_resolutions_are_never_repaired(self):
        d, (root, *_r) = make_directory()
        cache = ResolutionCache()
        assert resolve_spaces(d, "svc/*", root, cache=cache) == ()
        d.make_visible(ActorAddress(1, 0), "svc/a", root)
        assert resolve_spaces(d, "svc/*", root, cache=cache) == ()
        assert cache.repairs == 0 and cache.invalidations == 1


# -- repaired answers equal walked answers ----------------------------------

REPAIR_ATOMS = ["a", "b"]
REPAIR_PANEL = [parse_pattern(p) for p in ("a", "b", "a/*", "*", "**", "a/b",
                                           "[ab]/b")]
attr_text = st.lists(st.sampled_from(REPAIR_ATOMS), min_size=1,
                     max_size=2).map("/".join)
REPAIR_OPS = st.one_of(
    st.tuples(st.just("show"), st.integers(0, 5), st.integers(0, 4),
              st.lists(attr_text, min_size=1, max_size=2)),
    st.tuples(st.just("hide"), st.integers(0, 5), st.integers(0, 4)),
    st.tuples(st.just("chattr"), st.integers(0, 5), st.integers(0, 4),
              attr_text),
    st.tuples(st.just("nest"), st.integers(0, 4), st.integers(0, 4),
              attr_text),
    st.tuples(st.just("unnest"), st.integers(0, 4), st.integers(0, 4)),
    st.tuples(st.just("renest"), st.integers(0, 4), st.integers(0, 4),
              attr_text),
    st.tuples(st.just("purge"), st.integers(0, 5)),
    st.tuples(st.just("quarantine"), st.integers(1, 2)),
    st.tuples(st.just("unquarantine"), st.integers(1, 2)),
    st.tuples(st.just("destroy"), st.integers(1, 4)),
)

def apply_op(d, spaces, actors, op, args):
    """One drawn op; a refused one (cycle, unknown entry, destroyed space)
    changes nothing."""
    try:
        if op == "show":
            d.make_visible(actors[args[0]], args[2], spaces[args[1]])
        elif op == "hide":
            d.make_invisible(actors[args[0]], spaces[args[1]])
        elif op == "chattr":
            d.change_attributes(actors[args[0]], args[2], spaces[args[1]])
        elif op == "nest":
            d.make_visible(spaces[args[0]], args[2], spaces[args[1]])
        elif op == "unnest":
            d.make_invisible(spaces[args[0]], spaces[args[1]])
        elif op == "renest":
            d.change_attributes(spaces[args[0]], args[2], spaces[args[1]])
        elif op == "purge":
            d.purge_target(actors[args[0]])
        elif op == "quarantine":
            d.quarantine_node(args[0])
        elif op == "unquarantine":
            d.unquarantine_node(args[0])
        else:
            d.destroy_space(spaces[args[0]])
    except ActorSpaceError:
        pass


def test_repaired_answers_equal_walked_answers():
    repaired = Counter()  # repairs seen, by whether the group changed

    @settings(max_examples=300, deadline=None)
    @given(steps=st.lists(st.tuples(REPAIR_OPS, st.booleans()), max_size=30))
    def repaired_equals_walked(steps):
        d = Directory()
        spaces = [SpaceAddress(0, i) for i in range(5)]
        for s in spaces:
            d.add_space(SpaceRecord(s))
        d.make_visible(spaces[1], "a", spaces[0])  # a nested start
        d.make_visible(spaces[2], "b", spaces[1])
        # Actors on nodes 1 and 2, so a quarantine masks some of them.
        actors = [ActorAddress(1 + i % 2, i) for i in range(6)]
        cache = ResolutionCache()
        last: dict = {}
        for (op, *args), look in steps:
            apply_op(d, spaces, actors, op, args)
            if not look:  # let entries fall several mutations behind
                continue
            for scope in spaces:
                for pattern in REPAIR_PANEL:
                    got, stats = resolve_counted(d, pattern, scope, cache)
                    want = resolve_actors(d, pattern, scope)
                    assert got == want, (op, args, pattern, scope, got, want)
                    assert type(got) is tuple
                    assert got == tuple(sorted(set(got)))
                    before = last.get((pattern, scope))
                    if stats.cache_repairs:
                        assert stats.entries_examined == 0
                        repaired["same" if got == before else "changed"] += 1
                    if (stats.cache_hits or stats.cache_repairs) \
                            and got == before:
                        assert got is before
                    last[(pattern, scope)] = got

    repaired_equals_walked()
    # Not vacuous: repairs > 0, both keeping and changing the group.
    assert repaired["same"] > 0 and repaired["changed"] > 0
