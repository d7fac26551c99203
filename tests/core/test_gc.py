"""Unit + property tests: garbage collection (section 5.5)."""

import collections
import types
from collections.abc import Mapping
from dataclasses import dataclass, fields, is_dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.actorspace import SpaceRecord
from repro.core.addresses import ActorAddress, MailAddress, SpaceAddress
from repro.core.gc import GarbageCollector, scan_addresses
from repro.core.visibility import Directory


def actors(n):
    return [ActorAddress(0, i) for i in range(n)]


def directory_with(spaces):
    d = Directory()
    for s in spaces:
        d.add_space(SpaceRecord(s))
    return d


class TestScanAddresses:
    def test_finds_addresses_in_containers(self):
        a, b = ActorAddress(0, 1), SpaceAddress(0, 2)
        payload = {"x": [a, (1, {b})], 2: "noise"}
        assert set(scan_addresses(payload)) == {a, b}

    def test_dataclass_fields_scanned(self):
        @dataclass
        class Carrier:
            dest: ActorAddress
            note: str

        a = ActorAddress(0, 5)
        assert set(scan_addresses(Carrier(a, "hi"))) == {a}

    def test_addresses_hook_honoured(self):
        a = ActorAddress(0, 9)

        class Opaque:
            def __addresses__(self):
                return [a]

        assert set(scan_addresses(Opaque())) == {a}

    def test_opaque_without_hook_yields_nothing(self):
        assert list(scan_addresses(object())) == []

    def test_depth_bounded(self):
        nested = ActorAddress(0, 1)
        for _ in range(50):
            nested = [nested]
        assert list(scan_addresses(nested)) == []  # beyond depth cap


def reference_scan(payload, _depth=0):
    """The recursive, ``isinstance``-only walk ``scan_addresses`` was until
    its exact-type loop: the specification the loop must keep answering."""
    if _depth > 32:
        return
    if isinstance(payload, MailAddress):
        yield payload
        return
    if isinstance(payload, Mapping):
        for k, v in payload.items():
            yield from reference_scan(k, _depth + 1)
            yield from reference_scan(v, _depth + 1)
        return
    if isinstance(payload, (list, tuple, set, frozenset)):
        for item in payload:
            yield from reference_scan(item, _depth + 1)
        return
    if is_dataclass(payload) and not isinstance(payload, type):
        for f in fields(payload):
            yield from reference_scan(getattr(payload, f.name), _depth + 1)
        return
    hook = getattr(payload, "__addresses__", None)
    if callable(hook):
        for item in hook():
            if isinstance(item, MailAddress):
                yield item


Pair = collections.namedtuple("Pair", "left right")


class Tagged(list):
    """A sequence subclass: not an exact builtin type."""


class PeerAddress(ActorAddress):
    """An address subclass: found by ``isinstance``, not by exact type."""

    __slots__ = ()


@dataclass
class Carrier:
    dest: object
    note: str = "n"


class Opaque:
    def __init__(self, *held):
        self.held = held

    def __addresses__(self):
        return list(self.held) + ["not an address"]


addresses = st.one_of(
    st.builds(ActorAddress, st.integers(0, 3), st.integers(0, 9)),
    st.builds(SpaceAddress, st.integers(0, 3), st.integers(0, 9)),
    st.builds(PeerAddress, st.integers(0, 3), st.integers(0, 9)),
)
hashable_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 5), st.floats(allow_nan=False),
    st.text(max_size=3), st.binary(max_size=3), addresses,
)


def containers(children):
    keyed = st.dictionaries(hashable_leaves, children, max_size=3)
    return st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.lists(children, max_size=3).map(Tagged),
        st.sets(hashable_leaves, max_size=3),
        st.frozensets(hashable_leaves, max_size=3),
        keyed,  # addresses as dict keys included
        keyed.map(collections.OrderedDict),
        keyed.map(lambda d: collections.defaultdict(list, d)),
        keyed.map(types.MappingProxyType),
        st.builds(Pair, children, children),
        st.builds(Carrier, children),
        st.lists(addresses, max_size=2).map(lambda held: Opaque(*held)),
    )


payloads = st.recursive(hashable_leaves, containers, max_leaves=12)


class TestScanLoopEqualsRecursiveWalk:
    @given(payloads)
    @settings(max_examples=300, deadline=None)
    def test_same_addresses_in_the_same_order(self, payload):
        assert list(scan_addresses(payload)) == list(reference_scan(payload))

    @pytest.mark.parametrize("wrap", [
        lambda x: [x], lambda x: (x,), lambda x: {"k": x},
        lambda x: frozenset([x]), lambda x: Tagged([x]), lambda x: Pair(x, 0),
        lambda x: Carrier(x), lambda x: types.MappingProxyType({"k": x}),
    ])
    def test_depth_cap_respected_on_both_paths(self, wrap):
        a = ActorAddress(1, 1)
        for depth in (31, 32, 33, 34):
            nested = a
            for _ in range(depth):
                nested = wrap(nested)
            found = list(scan_addresses(nested))
            assert found == list(reference_scan(nested))
            assert found == ([a] if depth <= 32 else []), depth

    def test_starting_depth_is_honoured(self):
        a = ActorAddress(1, 1)
        assert list(scan_addresses([a], 31)) == [a]
        assert list(scan_addresses([a], 32)) == []
        assert list(scan_addresses(a, 33)) == []


class TestMark:
    def test_roots_and_acquaintances_are_live(self):
        a = actors(4)
        d = directory_with([])
        gc = GarbageCollector(d, {a[0]: {a[1]}, a[1]: {a[2]}})
        live, _spaces = gc.mark(roots=[a[0]])
        assert live == {a[0], a[1], a[2]}

    def test_visible_members_of_live_space_are_live(self):
        a = actors(2)
        s = SpaceAddress(0, 100)
        d = directory_with([s])
        d.make_visible(a[0], "x", s)
        gc = GarbageCollector(d, {})
        live, spaces = gc.mark(roots=[s])
        assert a[0] in live and s in spaces
        assert a[1] not in live

    def test_nested_spaces_propagate(self):
        a = actors(1)
        s0, s1 = SpaceAddress(0, 100), SpaceAddress(0, 101)
        d = directory_with([s0, s1])
        d.make_visible(s1, "sub", s0)
        d.make_visible(a[0], "x", s1)
        gc = GarbageCollector(d, {})
        live, spaces = gc.mark(roots=[s0])
        assert spaces == {s0, s1}
        assert live == {a[0]}

    def test_in_flight_messages_pin(self):
        a = actors(2)
        gc = GarbageCollector(directory_with([]), {})
        live, _ = gc.mark(roots=[], in_flight=[a[1]])
        assert a[1] in live


class TestCollect:
    def test_unreachable_inactive_actor_collected(self):
        a = actors(3)
        gc = GarbageCollector(directory_with([]), {a[0]: {a[1]}})
        report = gc.collect(roots=[a[0]], all_actors=a)
        assert report.collected_actors == {a[2]}
        assert a[1] in report.live_actors

    def test_active_actor_reaching_live_computation_kept(self):
        """Section 5.5's refinement: unreachable-but-active actors that can
        still send into the live computation are retained."""
        a = actors(3)
        # a2 is unreachable from the root but knows a1 (which is live) and
        # has pending work.
        gc = GarbageCollector(directory_with([]), {a[0]: {a[1]}, a[2]: {a[1]}})
        report = gc.collect(roots=[a[0]], all_actors=a, active_actors=[a[2]])
        assert a[2] in report.kept_active
        assert a[2] not in report.collected_actors

    def test_active_actor_with_no_route_to_live_collected(self):
        a = actors(3)
        gc = GarbageCollector(directory_with([]), {a[0]: {a[1]}, a[2]: set()})
        report = gc.collect(roots=[a[0]], all_actors=a, active_actors=[a[2]])
        assert a[2] in report.collected_actors

    def test_unreachable_space_collected_without_inverse_reachability(self):
        s_live, s_dead = SpaceAddress(0, 100), SpaceAddress(0, 101)
        d = directory_with([s_live, s_dead])
        gc = GarbageCollector(d, {})
        report = gc.collect(roots=[s_live], all_actors=[])
        assert report.collected_spaces == {s_dead}

    def test_visible_actor_pinned_until_container_dies(self):
        a = actors(1)
        s = SpaceAddress(0, 100)
        d = directory_with([s])
        d.make_visible(a[0], "x", s)
        gc = GarbageCollector(d, {})
        # Space is a root: the actor is pinned.
        assert gc.collect(roots=[s], all_actors=a).collected_actors == set()
        # Space unreferenced: both go.
        report = gc.collect(roots=[], all_actors=a)
        assert report.collected_actors == {a[0]}
        assert report.collected_spaces == {s}


# -- property test: GC soundness -------------------------------------------------


@given(
    st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=30),
    st.sets(st.integers(0, 9), max_size=3),
)
@settings(max_examples=200)
def test_gc_never_collects_reachable(edges, root_ids):
    """No actor reachable from a root is ever collected."""
    a = actors(10)
    acquaintances: dict = {}
    for src, dst in edges:
        acquaintances.setdefault(a[src], set()).add(a[dst])
    gc = GarbageCollector(directory_with([]), acquaintances)
    roots = [a[i] for i in root_ids]
    report = gc.collect(roots=roots, all_actors=a)

    # Independent reachability computation.
    reachable = set(roots)
    frontier = list(roots)
    while frontier:
        node = frontier.pop()
        for nxt in acquaintances.get(node, ()):
            if nxt not in reachable:
                reachable.add(nxt)
                frontier.append(nxt)
    assert reachable.isdisjoint(report.collected_actors)
    assert reachable <= report.live_actors


# -- a behavior's acquaintance scan: the ``__addresses__`` hook -------------------


def vars_walk(behavior):
    """``runtime/coordinator.py::_behavior_addresses`` as it was before
    it honoured ``__addresses__`` on a behavior: the reference the hook's
    answer must be a superset of."""
    if hasattr(behavior, "__dict__"):
        yield from scan_addresses(vars(behavior))
    for slot in getattr(type(behavior), "__slots__", ()):
        yield from scan_addresses(getattr(behavior, slot, None))
    fn = getattr(behavior, "fn", None)
    closure = getattr(fn, "__closure__", None)
    if closure:
        for cell in closure:
            try:
                yield from scan_addresses(cell.cell_contents)
            except ValueError:  # empty cell
                continue


class CountedBody(list):
    """A method body form that counts how often it is walked."""

    walks = 0

    def __iter__(self):
        type(self).walks += 1
        return super().__iter__()


def scripted(body, n_state=0):
    """A library with one hand-built definition ``held``: method ``m``
    has ``body``, method ``again`` becomes ``held`` with the same state."""
    from repro.interp import BehaviorDef, BehaviorLibrary, MethodDef
    from repro.interp.parser import parse_one

    params = tuple(f"p{i}" for i in range(n_state))
    again = parse_one("(become held " + " ".join(params) + ")")
    library = BehaviorLibrary()
    library._defs["held"] = BehaviorDef("held", params, {
        "m": MethodDef("m", (), tuple(body)),
        "again": MethodDef("again", (), (again,))})
    return library


class TestBehaviorAddresses:
    @given(st.lists(payloads, max_size=3), st.sampled_from(["tree", "bytecode"]))
    @settings(max_examples=200, deadline=None)
    def test_the_hook_never_finds_fewer_than_the_walk(self, state, engine):
        from repro.interp import InterpretedBehavior
        from repro.runtime.coordinator import _behavior_addresses

        literal = ActorAddress(7, 7)
        library = scripted([["list", literal]], len(state))
        behavior = InterpretedBehavior(library, library.get("held"), state,
                                       engine=engine)
        found = set(_behavior_addresses(behavior))
        assert found >= set(vars_walk(behavior)) >= {literal}

    @pytest.mark.parametrize("engine", ["tree", "bytecode"])
    def test_an_address_literal_in_a_hand_built_body_still_pins(self, engine):
        from repro.interp import InterpretedBehavior
        from repro.runtime.system import ActorSpaceSystem

        system = ActorSpaceSystem(seed=0)
        target = system.create_actor(lambda ctx, m: None)
        library = scripted([["list", target]])
        held = system.create_actor(InterpretedBehavior(
            library, library.get("held"), [], engine=engine))
        coordinator = system.coordinators[held.node]
        assert target in coordinator.acquaintances[held]
        system.send_to(held, ["again"])
        system.run()
        assert system.actor_record(held).behavior.ports.behavior == 1
        assert target in coordinator.acquaintances[held]

    def test_create_and_become_do_not_rewalk_the_program(self):
        from repro.interp import InterpretedBehavior
        from repro.runtime.system import ActorSpaceSystem

        system = ActorSpaceSystem(seed=0)
        library = scripted([CountedBody(["list", 1, 2])])
        CountedBody.walks = 0
        actors_made = [system.create_actor(InterpretedBehavior(
            library, library.get("held"), [])) for _ in range(100)]
        for actor in actors_made:
            system.send_to(actor, ["again"])
        system.run()
        assert all(system.actor_record(actor).behavior.ports.behavior == 1
                   for actor in actors_made)
        assert CountedBody.walks <= 1

    def test_a_native_behavior_is_walked_as_before(self):
        from repro.core.actor import FunctionBehavior
        from repro.runtime.coordinator import _behavior_addresses

        a, b, c = actors(3)

        class Slotted:
            __slots__ = ("peer",)

            def __init__(self):
                self.peer = b

            def receive(self, ctx, message):
                pass

        class Plain:
            def __init__(self):
                self.peers = {"k": [a, (b,)]}

            def receive(self, ctx, message):
                pass

        captured = c
        closure = FunctionBehavior(lambda ctx, m: captured)
        for behavior in (Slotted(), Plain(), closure):
            assert list(_behavior_addresses(behavior)) == list(
                vars_walk(behavior))
        assert list(_behavior_addresses(Plain())) == [a, b]
        assert list(_behavior_addresses(closure)) == [c]
