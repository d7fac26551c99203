"""Customizable actorSpace managers.

"Corresponding to each actorSpace is a manager who validates capabilities
and enforces visibility changes.  Although we describe default policies
for actorSpaces, further customization may be obtained by manipulating
managers" (paper section 5).  Managers are the paradigm's extension point:
section 5.6 varies the semantics of unmatched sends/broadcasts, section
5.7 the cycle-handling strategy, and section 8 proposes replacing the
indeterminate choice of ``send`` with programmable arbitration.  All three
dimensions are policy knobs on :class:`SpaceManager`.

The manager itself is pure policy: it holds no message queues.  The node
coordinator asks it what to do and performs the mechanics (suspension
queues, delivery records, etc.), keeping the manager trivially
replicable across coordinator replicas.
"""

from __future__ import annotations

import enum
from typing import Sequence

import numpy as np

from .addresses import ActorAddress, SpaceAddress
from .errors import NoMatchError
from .messages import Envelope


class UnmatchedPolicy(enum.Enum):
    """What to do with a ``send``/``broadcast`` whose pattern matches nobody.

    Section 5.6 enumerates the admissible semantics; ``SUSPEND`` is the
    paper's (and our) default: "in our current implementation, send and
    broadcast messages are suspended until at least one actor arrives
    whose attribute matches the pattern".
    """

    SUSPEND = "suspend"      #: hold until a matching actor appears
    DISCARD = "discard"      #: silently drop
    ERROR = "error"          #: raise at the sender (forces synchronization)
    PERSISTENT = "persistent"  #: broadcasts delivered to future matches exactly once


class CyclePolicy(enum.Enum):
    """How to defend against visibility/forwarding cycles (section 5.7)."""

    DAG_CHECK = "dag-check"  #: refuse make_visible that closes a cycle (default)
    TAGGING = "tagging"      #: allow, but tag messages and trap repeats at routing


class Arbitration(enum.Enum):
    """How ``send`` picks one receiver from the matching group.

    ``RANDOM`` is the paper's "indeterminate choice"; the alternatives are
    the customized arbitration mechanisms section 8 calls for, and they
    are ablated in experiment E2.
    """

    RANDOM = "random"          #: uniform over the group
    ROUND_ROBIN = "round-robin"  #: cycle deterministically through members
    LEAST_LOADED = "least-loaded"  #: member with fewest queued messages


class SpaceManager:
    """Policy bundle for one actorSpace.

    Parameters
    ----------
    unmatched:
        Policy for pattern messages with an empty receiver group.
    cycles:
        Cycle-defense strategy for this space's visibility operations.
    arbitration:
        Receiver-selection rule for ``send``.
    max_forward_hops:
        For ``CyclePolicy.TAGGING``: messages whose routing trace exceeds
        this many hops through the same space are dropped as cycling.
    """

    __slots__ = ("unmatched", "cycles", "arbitration", "max_forward_hops", "_rr_state")

    def __init__(
        self,
        unmatched: UnmatchedPolicy = UnmatchedPolicy.SUSPEND,
        cycles: CyclePolicy = CyclePolicy.DAG_CHECK,
        arbitration: Arbitration = Arbitration.RANDOM,
        max_forward_hops: int = 64,
    ):
        self.unmatched = unmatched
        self.cycles = cycles
        self.arbitration = arbitration
        self.max_forward_hops = max_forward_hops
        self._rr_state = 0

    # -- arbitration ------------------------------------------------------------

    def choose_receiver(
        self,
        candidates: Sequence[ActorAddress],
        rng: np.random.Generator,
        load_of=None,
    ) -> ActorAddress:
        """Pick one receiver for a ``send`` from a non-empty group.

        ``candidates`` is the group *already in address order* (what the
        resolve functions return and the resolution cache stores), so a
        pick is an index into it and a seed fixes the receiver.  ``load_of``
        is a callable ``address -> int`` giving current queue depth,
        required for ``LEAST_LOADED`` (ties go to the lowest address).
        """
        if not candidates:
            raise ValueError("choose_receiver requires a non-empty group")
        if len(candidates) == 1:
            return candidates[0]
        if self.arbitration is Arbitration.RANDOM:
            return candidates[int(rng.integers(0, len(candidates)))]
        if self.arbitration is Arbitration.ROUND_ROBIN:
            choice = candidates[self._rr_state % len(candidates)]
            self._rr_state += 1
            return choice
        if self.arbitration is Arbitration.LEAST_LOADED:
            if load_of is None:
                raise ValueError("LEAST_LOADED arbitration needs a load_of callable")
            return min(candidates, key=load_of)  # first minimum = lowest address
        raise AssertionError(f"unhandled arbitration {self.arbitration}")

    # -- unmatched messages ---------------------------------------------------------

    def on_unmatched(self, envelope: Envelope, space: SpaceAddress) -> str:
        """Decide the fate of an unmatched pattern message.

        Returns one of ``"suspend"``, ``"discard"``, ``"persist"``; raises
        :class:`NoMatchError` under the ``ERROR`` policy.  (``PERSISTENT``
        only distinguishes broadcasts; an unmatched *send* under that
        policy suspends, since exactly-one-of-a-future-group is what
        suspension already provides.)
        """
        if self.unmatched is UnmatchedPolicy.ERROR:
            raise NoMatchError(envelope.destination)
        if self.unmatched is UnmatchedPolicy.DISCARD:
            return "discard"
        if self.unmatched is UnmatchedPolicy.PERSISTENT:
            from .messages import Mode

            return "persist" if envelope.mode is Mode.BROADCAST else "suspend"
        return "suspend"

    @property
    def check_cycles(self) -> bool:
        """True when make_visible must run the DAG check."""
        return self.cycles is CyclePolicy.DAG_CHECK

    def trap_cycling(self, envelope: Envelope) -> bool:
        """Tagging strategy: is this envelope looping?  (Routing-time check.)"""
        if self.cycles is not CyclePolicy.TAGGING:
            return False
        return len(envelope.trace) > self.max_forward_hops

    def __repr__(self):
        return (
            f"<SpaceManager unmatched={self.unmatched.value} "
            f"cycles={self.cycles.value} arbitration={self.arbitration.value}>"
        )


#: Managers used when a space is created without an explicit one.
def default_manager() -> SpaceManager:
    """A fresh manager with the paper's default policies."""
    return SpaceManager()
