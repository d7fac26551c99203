"""Capabilities: unforgeable keys for secure visibility control.

Section 5.4 of the paper: "Capabilities are unforgeable unique keys that
can only be created by calling the underlying system with the primitive
``new_capability()``.  Capabilities can be stored, compared, copied and,
in some systems, communicated in messages.  When creating an actor or an
actorSpace, a capability may be bound to it, and only if this capability
is presented, may an actor's visibility be changed.  A capability may also
be bound to more than one actor or actorSpace."

Design notes
------------
* A :class:`Capability` is a value wrapping a 128-bit token.  Equality and
  hashing are by token, so capabilities can be copied, stored in messages,
  and compared — exactly the operations the paper lists.
* Unforgeability is enforced at the *issuer*: tokens come only from a
  :class:`CapabilityIssuer`, which draws them from a seeded RNG stream
  that applications have no other access to.  Constructing a
  ``Capability`` by guessing a token is possible in Python (nothing stops
  ``Capability(n)``) but useless: the chance of colliding with an issued
  token is 2^-128 per guess, the same guarantee a real distributed system
  provides.  Tests exercise exactly this property.
* The issuer is deterministic given its seed, keeping whole-system runs
  reproducible, while remaining unpredictable to code that does not hold
  the issuer.
"""

from __future__ import annotations


class Capability:
    """An unforgeable key (see module docstring).

    Do not instantiate directly in application code; call
    :meth:`CapabilityIssuer.new_capability` (exposed as
    ``system.new_capability()`` on the runtime facade).
    """

    __slots__ = ("_token",)

    def __init__(self, token: int):
        if not isinstance(token, int) or token < 0 or token >= 1 << 128:
            raise ValueError("capability token must be a 128-bit non-negative integer")
        self._token = token

    @property
    def token(self) -> int:
        """The raw 128-bit token (exposed for serialization)."""
        return self._token

    def __eq__(self, other) -> bool:
        if isinstance(other, Capability):
            return self._token == other._token
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._token)

    def __repr__(self) -> str:
        # Show only a short prefix: full tokens in logs would defeat the
        # point of treating them as secrets.
        return f"<Capability {self._token >> 96:08x}...>"

    def copy(self) -> "Capability":
        """Return an equal capability (capabilities are freely copyable)."""
        return Capability(self._token)


#: Sentinel meaning "no capability required / none presented".
NO_CAPABILITY: Capability | None = None


class CapabilityIssuer:
    """The single source of fresh capability tokens in a system.

    Parameters
    ----------
    rng:
        A seeded :class:`~repro.runtime.rng.Stream`.  The issuer consumes
        draws from it; seeding the system seeds the issuer, making runs
        reproducible.
    """

    __slots__ = ("_rng", "_issued")

    def __init__(self, rng):
        self._rng = rng
        self._issued: set[int] = set()

    def new_capability(self) -> Capability:
        """Mint a fresh, never-before-issued capability."""
        while True:
            # Two 64-bit draws compose a 128-bit token.
            hi = int(self._rng.integers(0, 1 << 63))
            lo = int(self._rng.integers(0, 1 << 63))
            token = (hi << 64) | lo
            if token not in self._issued:
                self._issued.add(token)
                return Capability(token)

    @property
    def issued_count(self) -> int:
        """How many capabilities this issuer has minted (for accounting)."""
        return len(self._issued)

    def was_issued(self, capability: Capability) -> bool:
        """True when ``capability``'s token was minted by this issuer.

        Used by tests to demonstrate unforgeability: independently
        constructed tokens are, with overwhelming probability, not issued.
        """
        return capability.token in self._issued


def authorize(held: Capability | None, required: Capability | None) -> bool:
    """Check a presented capability against a requirement.

    * If ``required`` is ``None`` the resource is unprotected: anything
      (including nothing) is accepted.
    * Otherwise the presented capability must compare equal.
    """
    if required is None:
        return True
    return held is not None and held == required
