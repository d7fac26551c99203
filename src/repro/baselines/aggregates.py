"""Concurrent Aggregates: the strict-hierarchy baseline (section 3).

"Concurrent Aggregates offers a communication style similar to Linda;
clients name a group of actors when sending a message, and one of these
actors will actually receive the message.  Furthermore, Concurrent
Aggregates supports nesting of aggregates, so that an entire group of
aggregates may be targeted for a message.  Note that membership and
containment relationships in this model correspond to a strict hierarchy.
On the other hand, actorSpaces may overlap arbitrarily."

This module implements exactly that: an :class:`Aggregate` has actor
members and child aggregates, and every aggregate has **at most one
parent** — the tree invariant is enforced at ``add_child`` and is the
point of comparison with the ActorSpace visibility DAG (a space may be
visible in many spaces at once; an aggregate may not).
"""

from __future__ import annotations

from typing import Any, Iterator

import numpy as np

from repro.core.addresses import ActorAddress
from repro.core.errors import ActorSpaceError


class HierarchyError(ActorSpaceError):
    """An operation would violate the strict-hierarchy invariant."""


class Aggregate:
    """A named node of the aggregate tree."""

    __slots__ = ("name", "members", "children", "parent")

    def __init__(self, name: str):
        self.name = name
        self.members: list[ActorAddress] = []
        self.children: list["Aggregate"] = []
        self.parent: "Aggregate | None" = None

    def add_member(self, member: ActorAddress) -> None:
        if member not in self.members:
            self.members.append(member)

    def add_child(self, child: "Aggregate") -> None:
        """Attach ``child`` beneath this aggregate.

        Raises
        ------
        HierarchyError
            If ``child`` already has a parent (membership is exclusive:
            the strict hierarchy) or the attachment would create a cycle.
        """
        if child.parent is not None:
            raise HierarchyError(
                f"{child.name!r} already belongs to {child.parent.name!r}; "
                "aggregates form a strict hierarchy"
            )
        node: Aggregate | None = self
        while node is not None:
            if node is child:
                raise HierarchyError(
                    f"attaching {child.name!r} under {self.name!r} would create a cycle"
                )
            node = node.parent
        child.parent = self
        self.children.append(child)

    def detach(self) -> None:
        """Remove this aggregate from its parent."""
        if self.parent is not None:
            self.parent.children.remove(self)
            self.parent = None

    def all_members(self) -> Iterator[ActorAddress]:
        """Members of this aggregate and, recursively, all descendants."""
        yield from self.members
        for child in self.children:
            yield from child.all_members()

    def __repr__(self):
        return (
            f"<Aggregate {self.name!r} members={len(self.members)} "
            f"children={len(self.children)}>"
        )


class AggregateSystem:
    """Driver-level registry and communication for aggregates."""

    def __init__(self, system, rng: np.random.Generator | None = None):
        self.system = system
        self._aggregates: dict[str, Aggregate] = {}
        self._rng = rng if rng is not None else system.rng.stream("aggregates")
        self.sends = 0
        self.casts = 0

    def create(self, name: str) -> Aggregate:
        if name in self._aggregates:
            raise ValueError(f"aggregate {name!r} already exists")
        agg = Aggregate(name)
        self._aggregates[name] = agg
        return agg

    def get(self, name: str) -> Aggregate:
        agg = self._aggregates.get(name)
        if agg is None:
            raise KeyError(f"no such aggregate: {name}")
        return agg

    # -- communication -----------------------------------------------------------

    def deliver_one(self, name: str, payload: Any, *, reply_to=None) -> ActorAddress:
        """CA-style send: one member of the (recursive) group receives it."""
        candidates = sorted(self.get(name).all_members())
        if not candidates:
            raise HierarchyError(f"aggregate {name!r} has no members")
        choice = candidates[int(self._rng.integers(0, len(candidates)))]
        self.sends += 1
        self.system.send_to(choice, payload, reply_to=reply_to)
        return choice

    def deliver_all(self, name: str, payload: Any, *, reply_to=None) -> int:
        """Target the entire (recursive) group."""
        candidates = sorted(set(self.get(name).all_members()))
        if not candidates:
            raise HierarchyError(f"aggregate {name!r} has no members")
        self.casts += 1
        for member in candidates:
            self.system.send_to(member, payload, reply_to=reply_to)
        return len(candidates)

    def __repr__(self):
        return f"<AggregateSystem {sorted(self._aggregates)}>"
