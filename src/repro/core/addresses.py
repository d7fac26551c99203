"""Mail addresses for actors and actorSpaces.

Every actor has "a unique mail address determined at the time of its
creation" (paper section 4); ``create_actorSpace`` likewise "returns a unique
actorSpace mail address" (section 5.2).  Section 5.7 further requires the
implementation to keep *type information* distinguishing actor addresses
from actorSpace addresses, so that spaces are never sent bookkeeping
messages meant for actors and vice versa.  We encode the distinction in
the address type itself.

An address is a pure value ``(node, serial)``: the node where the entity
was created plus a node-local serial number.  Uniqueness is therefore
structural — no global coordination is needed to mint addresses, exactly
as in the actor model, and address creation is deterministic for
reproducible runs.  No code mutates an address once made, which is why
the wire codec hands out one shared instance per decoded value
(``repro.net.codec._ADDRESSES``).
"""

from __future__ import annotations

from functools import total_ordering


@total_ordering
class MailAddress:
    """Base class of actor and actorSpace mail addresses (a pure value)."""

    __slots__ = ("node", "serial", "_hash")

    #: Short tag used in ``repr`` and traces; overridden by subclasses.
    kind = "addr"

    def __init__(self, node: int, serial: int):
        self.node = int(node)
        self.serial = int(serial)
        self._hash = hash((type(self).__name__, self.node, self.serial))

    def __eq__(self, other) -> bool:
        if isinstance(other, MailAddress):
            return (
                type(self) is type(other)
                and self.node == other.node
                and self.serial == other.serial
            )
        return NotImplemented

    def __lt__(self, other) -> bool:
        if isinstance(other, MailAddress):
            return (self.kind, self.node, self.serial) < (
                other.kind,
                other.node,
                other.serial,
            )
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"<{self.kind} {self.node}.{self.serial}>"


class ActorAddress(MailAddress):
    """The mail address of an actor."""

    __slots__ = ()
    kind = "actor"


class SpaceAddress(MailAddress):
    """The mail address of an actorSpace."""

    __slots__ = ()
    kind = "space"


def is_actor_address(addr: object) -> bool:
    """True when ``addr`` is an actor mail address."""
    return isinstance(addr, ActorAddress)


def is_space_address(addr: object) -> bool:
    """True when ``addr`` is an actorSpace mail address."""
    return isinstance(addr, SpaceAddress)


class AddressFactory:
    """Mints fresh addresses for one node (deterministic, collision-free)."""

    __slots__ = ("node", "_next_serial")

    def __init__(self, node: int):
        self.node = int(node)
        self._next_serial = 0

    def new_actor_address(self) -> ActorAddress:
        """Mint the next actor address on this node."""
        addr = ActorAddress(self.node, self._next_serial)
        self._next_serial += 1
        return addr

    def new_space_address(self) -> SpaceAddress:
        """Mint the next actorSpace address on this node."""
        addr = SpaceAddress(self.node, self._next_serial)
        self._next_serial += 1
        return addr
