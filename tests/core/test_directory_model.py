"""Model-based test: Directory + matcher against a brute-force reference.

A hypothesis ``RuleBasedStateMachine`` drives random sequences of
visibility operations against both the real :class:`Directory` and a
naive reference model (dicts + recursive enumeration).  After every step
it checks that scoped resolution agrees for a panel of patterns.  This is
the strongest correctness artillery in the suite: any divergence between
the optimized matcher (residual patterns, first-atom index) and the
obvious semantics fails here.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.actorspace import SpaceRecord
from repro.core.addresses import ActorAddress, SpaceAddress
from repro.core.errors import VisibilityCycleError
from repro.core.matching import ResolutionCache, resolve_actors
from repro.core.patterns import parse_pattern
from repro.core.visibility import Directory

N_SPACES = 4
N_ACTORS = 6
ATOMS = ["a", "b", "c"]

PANEL = [
    parse_pattern(p)
    for p in ("a", "a/b", "a/*", "*/b", "**", "a/**", "**/c", "*", "a/*/c")
]


class ReferenceModel:
    """The obvious semantics: dicts and exhaustive recursive matching."""

    def __init__(self):
        # space -> {target: set of attribute tuples}
        self.spaces: dict[SpaceAddress, dict] = {}

    def add_space(self, s):
        self.spaces[s] = {}

    def make_visible(self, target, attrs, space):
        self.spaces[space][target] = set(attrs)

    def make_invisible(self, target, space):
        self.spaces[space].pop(target, None)

    def would_cycle(self, target, space) -> bool:
        if not isinstance(target, SpaceAddress):
            return False
        # Does `space` occur within target's transitive contents (or equal)?
        seen = set()

        def reaches(src):
            if src == space:
                return True
            if src in seen:
                return False
            seen.add(src)
            return any(
                isinstance(t, SpaceAddress) and reaches(t)
                for t in self.spaces.get(src, {})
            )

        return reaches(target)

    def resolve(self, pattern, space, _depth=0) -> set:
        """Exhaustive structured-attribute enumeration, then plain match."""
        out = set()
        for path, target in self._structured(space, (), set()):
            if isinstance(target, ActorAddress) and pattern.matches(list(path)):
                out.add(target)
        return out

    def _structured(self, space, prefix, on_path):
        """Yield (attribute-path-atoms, actor) pairs reachable from space."""
        if space in on_path:
            return
        on_path = on_path | {space}
        for target, attrs in self.spaces.get(space, {}).items():
            for attr in attrs:
                full = prefix + tuple(attr)
                if isinstance(target, ActorAddress):
                    yield full, target
                else:
                    yield from self._structured(target, full, on_path)


class DirectoryMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.directory = Directory()
        self.model = ReferenceModel()
        #: One long-lived cache across every op the machine performs:
        #: a stale entry surviving an op it should not survive shows up
        #: as a divergence from the reference model.
        self.cache = ResolutionCache()
        self.spaces = [SpaceAddress(0, i) for i in range(N_SPACES)]
        self.actors = [ActorAddress(1, i) for i in range(N_ACTORS)]
        for s in self.spaces:
            self.directory.add_space(SpaceRecord(s))
            self.model.add_space(s)

    targets = st.integers(0, N_ACTORS - 1)
    space_idx = st.integers(0, N_SPACES - 1)
    attr = st.lists(st.sampled_from(ATOMS), min_size=1, max_size=3)
    attrs = st.lists(
        st.lists(st.sampled_from(ATOMS), min_size=1, max_size=3),
        min_size=1, max_size=2,
    )

    @rule(t=targets, s=space_idx, a=attrs)
    def show_actor(self, t, s, a):
        paths = ["/".join(p) for p in a]
        self.directory.make_visible(self.actors[t], paths, self.spaces[s])
        self.model.make_visible(self.actors[t], [tuple(p) for p in a],
                                self.spaces[s])

    @rule(t=targets, s=space_idx)
    def hide_actor(self, t, s):
        self.directory.make_invisible(self.actors[t], self.spaces[s])
        self.model.make_invisible(self.actors[t], self.spaces[s])

    @rule(child=space_idx, parent=space_idx, a=attr)
    def nest_space(self, child, parent, a):
        path = "/".join(a)
        expect_cycle = self.model.would_cycle(self.spaces[child],
                                              self.spaces[parent])
        try:
            self.directory.make_visible(self.spaces[child], path,
                                        self.spaces[parent])
            assert not expect_cycle, "directory accepted a cycle"
            self.model.make_visible(self.spaces[child], {tuple(a)},
                                    self.spaces[parent])
        except VisibilityCycleError:
            assert expect_cycle, "directory rejected an acyclic edge"

    @rule(child=space_idx, parent=space_idx)
    def unnest_space(self, child, parent):
        self.directory.make_invisible(self.spaces[child], self.spaces[parent])
        self.model.make_invisible(self.spaces[child], self.spaces[parent])

    @invariant()
    def resolution_agrees(self):
        for pattern in PANEL:
            for space in self.spaces:
                got = resolve_actors(self.directory, pattern, space)
                # The group comes back in arbitration order, as a value.
                want = tuple(sorted(self.model.resolve(pattern, space)))
                assert got == want, (
                    f"pattern {pattern} in {space}: real={got} ref={want}"
                )
                cached = resolve_actors(
                    self.directory, pattern, space, cache=self.cache
                )
                assert cached == want, (
                    f"stale cache: pattern {pattern} in {space}: "
                    f"cached={cached} ref={want}"
                )
                # While the epochs hold, a hit is the stored object itself.
                assert resolve_actors(
                    self.directory, pattern, space, cache=self.cache
                ) is cached


TestDirectoryModel = DirectoryMachine.TestCase
TestDirectoryModel.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
