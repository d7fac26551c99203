"""Unit tests: space managers (policies, arbitration)."""

import numpy as np
import pytest

from repro.core.addresses import ActorAddress, SpaceAddress
from repro.core.errors import NoMatchError
from repro.core.manager import (
    Arbitration,
    CyclePolicy,
    SpaceManager,
    UnmatchedPolicy,
    default_manager,
)
from repro.core.messages import Destination, Envelope, Message, Mode


def envelope(mode=Mode.SEND):
    return Envelope(
        message=Message("x"),
        sender=None,
        mode=mode,
        destination=Destination("a/*"),
    )


def members(n):
    return [ActorAddress(0, i) for i in range(n)]


class TestArbitration:
    def test_random_covers_all_members(self):
        m = SpaceManager(arbitration=Arbitration.RANDOM)
        rng = np.random.default_rng(0)
        group = members(4)
        chosen = {m.choose_receiver(group, rng) for _ in range(200)}
        assert chosen == set(group)

    def test_round_robin_cycles(self):
        m = SpaceManager(arbitration=Arbitration.ROUND_ROBIN)
        rng = np.random.default_rng(0)
        group = members(3)
        picks = [m.choose_receiver(group, rng) for _ in range(6)]
        assert picks == sorted(group) * 2

    def test_least_loaded_picks_minimum(self):
        m = SpaceManager(arbitration=Arbitration.LEAST_LOADED)
        rng = np.random.default_rng(0)
        group = members(3)
        loads = {group[0]: 5, group[1]: 1, group[2]: 3}
        assert m.choose_receiver(group, rng, loads.get) == group[1]

    def test_least_loaded_requires_load_fn(self):
        m = SpaceManager(arbitration=Arbitration.LEAST_LOADED)
        with pytest.raises(ValueError):
            m.choose_receiver(members(2), np.random.default_rng(0))

    def test_singleton_short_circuit(self):
        m = SpaceManager()
        [only] = members(1)
        assert m.choose_receiver([only], np.random.default_rng(0)) == only

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            SpaceManager().choose_receiver([], np.random.default_rng(0))

    def test_choice_is_deterministic_given_rng(self):
        group = members(5)
        a = [SpaceManager().choose_receiver(group, np.random.default_rng(9))
             for _ in range(1)]
        b = [SpaceManager().choose_receiver(group, np.random.default_rng(9))
             for _ in range(1)]
        assert a == b


#: 200 picks per arbitration, recorded at commit 91b0fca — where
#: ``choose_receiver`` still sorted whatever it was given — from the same
#: nine-member group handed over in shuffled order.  Digits are indices
#: into the group in address order.
PARENT_PICKS = {
    Arbitration.RANDOM: (
        "14805243864220054130053724581551113728282101262616"
        "10033602663874060418228563218735180071285388241400"
        "08542662853510587541122174138785166171200708882565"
        "27310665544161580843824552732314064502207438215210"),
    Arbitration.ROUND_ROBIN: "012345678" * 22 + "01",
    Arbitration.LEAST_LOADED: (
        "24605712346805712346805712346805712346805712346805"
        "71234680571234680571234680571234680571234680571234"
        "68057123468057123468057123468057123468057123468057"
        "12346805712346805712346805712346805712346805712346"),
}


class TestPickSequenceUnchanged:
    """The group now arrives already ordered; the draw count and the
    index -> address map must be what they were when it was sorted here."""

    @pytest.mark.parametrize("arbitration", list(Arbitration))
    def test_same_seed_same_200_picks_as_parent(self, arbitration):
        group = tuple(sorted(
            ActorAddress(n, s) for n in (2, 0, 1) for s in (5, 1, 9)))
        manager = SpaceManager(arbitration=arbitration)
        rng = np.random.default_rng(20260928)
        loads = {a: (a.serial + a.node) % 3 for a in group}
        picks = []
        for _ in range(200):
            choice = manager.choose_receiver(group, rng, loads.get)
            loads[choice] += 2  # the pick gets busier: ties keep forming
            picks.append(group.index(choice))
        assert "".join(map(str, picks)) == PARENT_PICKS[arbitration]


class TestUnmatchedPolicy:
    def space(self):
        return SpaceAddress(0, 0)

    def test_default_is_suspend(self):
        assert default_manager().on_unmatched(envelope(), self.space()) == "suspend"

    def test_discard(self):
        m = SpaceManager(unmatched=UnmatchedPolicy.DISCARD)
        assert m.on_unmatched(envelope(), self.space()) == "discard"

    def test_error_raises(self):
        m = SpaceManager(unmatched=UnmatchedPolicy.ERROR)
        with pytest.raises(NoMatchError):
            m.on_unmatched(envelope(), self.space())

    def test_persistent_only_for_broadcasts(self):
        m = SpaceManager(unmatched=UnmatchedPolicy.PERSISTENT)
        assert m.on_unmatched(envelope(Mode.BROADCAST), self.space()) == "persist"
        assert m.on_unmatched(envelope(Mode.SEND), self.space()) == "suspend"


class TestCyclePolicy:
    def test_default_checks_dag(self):
        assert default_manager().check_cycles
        assert not SpaceManager(cycles=CyclePolicy.TAGGING).check_cycles

    def test_tagging_traps_long_traces(self):
        m = SpaceManager(cycles=CyclePolicy.TAGGING, max_forward_hops=4)
        e = envelope()
        for node in range(5):
            e.hop(node)
        assert m.trap_cycling(e)

    def test_tagging_passes_short_traces(self):
        m = SpaceManager(cycles=CyclePolicy.TAGGING, max_forward_hops=4)
        e = envelope()
        e.hop(0)
        assert not m.trap_cycling(e)

    def test_dag_check_never_traps(self):
        m = default_manager()
        e = envelope()
        for node in range(100):
            e.hop(node)
        assert not m.trap_cycling(e)
