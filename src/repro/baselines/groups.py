"""Static process groups: the Amoeba / V-System / ISIS baseline (section 3).

"Object groups can be viewed as an association of one name with a set of
names (corresponding to members of the group), which when bundled with
primitives for manipulation of groups and extension of communication
primitives to groups of receivers support group oriented communication."

The registry binds a group *name* to an explicit member list.  Two
communication primitives mirror ActorSpace's ``send``/``broadcast``:

* :meth:`GroupRegistry.group_send` — deliver to one member;
* :meth:`GroupRegistry.group_cast` — deliver to every member.

The structural difference the paper leans on: membership is **explicit
and enumerated**.  Every join/leave is an API call that mutates the list,
and a sender addressing a group that does not exist (or is empty) simply
fails — there is no attribute matching, no scoped overlap, and no
suspension.  Experiment E1/E2 variants use this registry to quantify the
bookkeeping messages explicit membership costs when the group churns.
"""

from __future__ import annotations

from typing import Any

from repro.core.addresses import ActorAddress
from repro.core.errors import ActorSpaceError
from repro.runtime.rng import Stream


class UnknownGroupError(ActorSpaceError):
    """The named group does not exist."""


class EmptyGroupError(ActorSpaceError):
    """The named group has no members to deliver to."""


class GroupRegistry:
    """Explicit-membership process groups over an ActorSpace system.

    The registry is driver-level state (the moral equivalent of a group
    membership service).  Every membership mutation is counted, so
    experiments can compare bookkeeping traffic against attribute-based
    group definition.
    """

    def __init__(self, system, rng: Stream | None = None):
        self.system = system
        self._groups: dict[str, list[ActorAddress]] = {}
        self._rng = rng if rng is not None else system.rng.stream("groups")
        self._rr: dict[str, int] = {}
        #: Membership mutations performed (the explicit-bookkeeping cost).
        self.membership_ops = 0
        self.sends = 0
        self.casts = 0

    # -- membership -----------------------------------------------------------

    def create_group(self, name: str) -> None:
        if name in self._groups:
            raise ValueError(f"group {name!r} already exists")
        self._groups[name] = []
        self._rr[name] = 0
        self.membership_ops += 1

    def delete_group(self, name: str) -> None:
        self._require(name)
        del self._groups[name]
        self._rr.pop(name, None)
        self.membership_ops += 1

    def join(self, name: str, member: ActorAddress) -> None:
        members = self._require(name)
        if member not in members:
            members.append(member)
        self.membership_ops += 1

    def leave(self, name: str, member: ActorAddress) -> None:
        members = self._require(name)
        try:
            members.remove(member)
        except ValueError:
            pass
        self.membership_ops += 1

    def members(self, name: str) -> list[ActorAddress]:
        return list(self._require(name))

    def _require(self, name: str) -> list[ActorAddress]:
        members = self._groups.get(name)
        if members is None:
            raise UnknownGroupError(f"no such group: {name}")
        return members

    # -- communication ------------------------------------------------------------

    def group_send(self, name: str, payload: Any, *, reply_to=None,
                   policy: str = "random") -> ActorAddress:
        """Deliver ``payload`` to one member; returns the chosen member.

        ``policy`` is ``"random"`` or ``"round-robin"`` (the local-server
        selection the V system used).  Raises :class:`EmptyGroupError` on
        an empty group — the fixed semantics the paper contrasts with
        manager-configurable suspension.
        """
        members = self._require(name)
        if not members:
            raise EmptyGroupError(f"group {name!r} is empty")
        if policy == "round-robin":
            choice = members[self._rr[name] % len(members)]
            self._rr[name] += 1
        else:
            choice = members[int(self._rng.integers(0, len(members)))]
        self.sends += 1
        self.system.send_to(choice, payload, reply_to=reply_to)
        return choice

    def group_cast(self, name: str, payload: Any, *, reply_to=None) -> int:
        """Deliver ``payload`` to every member; returns the member count."""
        members = self._require(name)
        if not members:
            raise EmptyGroupError(f"group {name!r} is empty")
        self.casts += 1
        for member in members:
            self.system.send_to(member, payload, reply_to=reply_to)
        return len(members)

    def __repr__(self):
        return (
            f"<GroupRegistry groups={len(self._groups)} "
            f"membership_ops={self.membership_ops}>"
        )
