"""Unit tests: scoped resolution, nested descent, structured attributes."""

import pytest

from repro.core.actorspace import SpaceRecord
from repro.core.addresses import ActorAddress, SpaceAddress
from repro.core.matching import (
    MatchStats,
    group_size,
    resolve_actors,
    resolve_destination,
    resolve_destination_spaces,
    resolve_spaces,
)
from repro.core.messages import Destination
from repro.core.visibility import Directory


def build(n_spaces=4):
    d = Directory()
    spaces = [SpaceAddress(0, i) for i in range(n_spaces)]
    for s in spaces:
        d.add_space(SpaceRecord(s))
    return d, spaces


def actor(i):
    return ActorAddress(1, i)


class TestFlatResolution:
    def test_literal_and_wildcards(self):
        d, (root, *_r) = build()
        d.make_visible(actor(1), "services/print", root)
        d.make_visible(actor(2), "services/scan", root)
        d.make_visible(actor(3), "misc", root)
        assert set(resolve_actors(d, "services/print", root)) == {actor(1)}
        assert set(resolve_actors(d, "services/*", root)) == {actor(1), actor(2)}
        assert set(resolve_actors(d, "**", root)) == {actor(1), actor(2), actor(3)}
        assert set(resolve_actors(d, "nothing/here", root)) == set()

    def test_multi_attribute_entries_match_on_any(self):
        d, (root, *_r) = build()
        d.make_visible(actor(1), ["a/b", "c/d"], root)
        assert set(resolve_actors(d, "c/*", root)) == {actor(1)}
        assert set(resolve_actors(d, "a/*", root)) == {actor(1)}

    def test_unknown_space_resolves_empty(self):
        d, _ = build()
        assert set(resolve_actors(d, "x", SpaceAddress(9, 9))) == set()

    def test_group_size(self):
        d, (root, *_r) = build()
        for i in range(5):
            d.make_visible(actor(i), f"w/n{i}", root)
        assert group_size(d, "w/*", root) == 5


class TestNestedDescent:
    def test_structured_attribute_through_one_level(self):
        """Pattern a/b/c finds an actor with b/c inside a space visible as a."""
        d, (root, sub, *_r) = build()
        d.make_visible(sub, "dept", root)
        d.make_visible(actor(1), "print/color", sub)
        assert set(resolve_actors(d, "dept/print/color", root)) == {actor(1)}
        assert set(resolve_actors(d, "dept/print/*", root)) == {actor(1)}
        assert set(resolve_actors(d, "dept/**", root)) == {actor(1)}

    def test_descent_two_levels(self):
        d, (root, a, b, _c) = build()
        d.make_visible(a, "org", root)
        d.make_visible(b, "team", a)
        d.make_visible(actor(7), "alice", b)
        assert set(resolve_actors(d, "org/team/alice", root)) == {actor(7)}
        assert set(resolve_actors(d, "**/alice", root)) == {actor(7)}

    def test_actor_in_space_not_directly_visible_outside(self):
        d, (root, sub, *_r) = build()
        d.make_visible(sub, "dept", root)
        d.make_visible(actor(1), "print", sub)
        # Pattern "print" in root does NOT see the nested actor; the
        # structured path "dept/print" is required.
        assert set(resolve_actors(d, "print", root)) == set()

    def test_invisible_space_hides_members(self):
        d, (root, sub, *_r) = build()
        d.make_visible(actor(1), "x", sub)
        assert set(resolve_actors(d, "**", root)) == set()  # sub not visible in root

    def test_overlapping_spaces_reach_same_actor(self):
        d, (root, a, b, _c) = build()
        d.make_visible(a, "left", root)
        d.make_visible(b, "right", root)
        d.make_visible(actor(1), "shared", a)
        d.make_visible(actor(1), "shared", b)
        assert set(resolve_actors(d, "*/shared", root)) == {actor(1)}
        assert set(resolve_actors(d, "left/shared", root)) == {actor(1)}

    def test_space_visible_under_multiple_attributes(self):
        d, (root, sub, *_r) = build()
        d.make_visible(sub, ["alias-a", "alias-b"], root)
        d.make_visible(actor(1), "x", sub)
        assert set(resolve_actors(d, "alias-a/x", root)) == {actor(1)}
        assert set(resolve_actors(d, "alias-b/x", root)) == {actor(1)}

    def test_multi_atom_space_attribute(self):
        d, (root, sub, *_r) = build()
        d.make_visible(sub, "eu/west", root)
        d.make_visible(actor(1), "db", sub)
        assert set(resolve_actors(d, "eu/west/db", root)) == {actor(1)}
        assert set(resolve_actors(d, "eu/*/db", root)) == {actor(1)}


class TestSpaceResolution:
    def test_resolve_spaces_matches_space_attributes(self):
        d, (root, a, b, _c) = build()
        d.make_visible(a, "pools/main", root)
        d.make_visible(b, "pools/backup", root)
        assert set(resolve_spaces(d, "pools/*", root)) == {a, b}
        assert set(resolve_spaces(d, "pools/main", root)) == {a}

    def test_nested_space_resolution(self):
        d, (root, a, b, _c) = build()
        d.make_visible(a, "org", root)
        d.make_visible(b, "pool", a)
        assert set(resolve_spaces(d, "org/pool", root)) == {b}


class TestDestinationResolution:
    def test_none_space_uses_host(self):
        d, (root, *_r) = build()
        d.make_visible(actor(1), "x", root)
        dest = Destination("x")
        assert list(resolve_destination_spaces(d, dest, root)) == [root]
        assert resolve_destination(d, dest, root) == {actor(1)}

    def test_explicit_space_address(self):
        d, (root, sub, *_r) = build()
        d.make_visible(actor(1), "x", sub)
        dest = Destination("x", sub)
        assert resolve_destination(d, dest, root) == {actor(1)}

    def test_pattern_space_spec(self):
        """Section 5.3: the actorSpace specification may itself be a pattern."""
        d, (root, a, b, _c) = build()
        d.make_visible(a, "pools/one", root)
        d.make_visible(b, "pools/two", root)
        d.make_visible(actor(1), "w", a)
        d.make_visible(actor(2), "w", b)
        dest = Destination("w", "pools/*")
        assert resolve_destination(d, dest, root) == {actor(1), actor(2)}

    def test_destroyed_space_resolves_empty(self):
        d, (root, sub, *_r) = build()
        d.make_visible(actor(1), "x", sub)
        d.destroy_space(sub)
        assert resolve_destination(d, Destination("x", sub), root) == set()


class TestStats:
    def test_stats_count_work(self):
        d, (root, sub, *_r) = build()
        d.make_visible(sub, "s", root)
        for i in range(10):
            d.make_visible(actor(i), f"a{i}", sub)
        stats = MatchStats()
        resolve_actors(d, "s/**", root, stats)
        assert stats.entries_examined >= 11
        assert stats.spaces_descended >= 1
