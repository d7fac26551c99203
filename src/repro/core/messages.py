"""Messages, destinations, and envelopes.

The communication model (paper section 5.3) has three ways to address a
message:

* **direct** — to an explicit actor mail address (plain actor semantics);
* **send** — ``send(pattern@actorSpace, message)``: one nondeterministically
  chosen actor among those whose visible attributes match the pattern;
* **broadcast** — ``broadcast(pattern@actorSpace, message)``: every matching
  actor receives the message.

A :class:`Destination` captures the ``pattern@actorSpace`` pair.  The
actorSpace part may itself be given by a pattern ("the actorSpace
specification ... may itself be pattern based"), which the matcher resolves
inside the sender's host space.

An :class:`Envelope` is the runtime's unit of transmission: the user
message plus routing metadata (sender, destination, delivery mode, target
port, timestamps).  User payloads are opaque to the runtime.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any

from .addresses import ActorAddress, MailAddress, SpaceAddress
from .atoms import AttributePath
from .errors import PatternSyntaxError
from .patterns import Pattern, parse_pattern


class Mode(enum.Enum):
    """How a message selects its receiver(s)."""

    DIRECT = "direct"      #: explicit mail address
    SEND = "send"          #: one matching actor, chosen nondeterministically
    BROADCAST = "broadcast"  #: all matching actors

    # Members are singletons, so identity hashes them — in C, where
    # ``Enum.__hash__`` is a Python ``hash(self._name_)`` per ``counts[mode]``.
    __hash__ = object.__hash__


class Port(enum.Enum):
    """The three message ports of an executing actor (paper section 7.2).

    * ``BEHAVIOR`` — carries the actor its next behavior (``become``).
    * ``INVOCATION`` — carries messages sent via ``send``/``broadcast``.
    * ``RPC`` — carries replies to system calls expecting a return value
      (e.g. the address of a newly created actor).
    """

    BEHAVIOR = "behavior"
    INVOCATION = "invocation"
    RPC = "rpc"


class Destination:
    """A ``pattern@space`` destination.

    Parameters
    ----------
    pattern:
        The attribute pattern selecting receivers (text or :class:`Pattern`).
    space:
        Where to resolve the pattern: an explicit :class:`SpaceAddress`, a
        pattern (text/:class:`Pattern`) resolved against the sender's host
        space, or ``None`` meaning "the sender's host space" (paper
        section 7.1: "patterns are resolved inside the sender's host
        actorSpace, unless the pattern explicitly refers to another
        actorSpace").
    """

    __slots__ = ("pattern", "space")

    def __init__(
        self,
        pattern: "Pattern | str | AttributePath",
        space: "SpaceAddress | Pattern | str | None" = None,
    ):
        self.pattern = parse_pattern(pattern)
        if space is None or isinstance(space, (SpaceAddress, Pattern)):
            self.space = space
        elif isinstance(space, (str, AttributePath)):
            self.space = parse_pattern(space)
        else:
            raise PatternSyntaxError(
                repr(space), "space must be a SpaceAddress, pattern, or None"
            )

    def __eq__(self, other):
        if isinstance(other, Destination):
            return self.pattern == other.pattern and self.space == other.space
        return NotImplemented

    def __hash__(self):
        return hash((self.pattern, self.space))

    def __repr__(self):
        at = "" if self.space is None else f"@{self.space}"
        return f"Destination({self.pattern}{at})"


def parse_destination(text: "str | Destination") -> Destination:
    """Parse ``"pattern@spacepattern"`` or ``"pattern"`` destination text
    (idempotent coercion: a :class:`Destination` is returned as is).

    The part after ``@`` (if present) is a pattern naming the target
    actorSpace, resolved in the sender's host space.  To target a space by
    explicit address, construct :class:`Destination` directly.
    """
    if isinstance(text, Destination):
        return text
    if not isinstance(text, str) or not text:
        raise PatternSyntaxError(repr(text), "destination must be non-empty text")
    return _parse_destination_text(text)


@lru_cache(maxsize=256)
def _parse_destination_text(text: str) -> Destination:
    """:func:`parse_destination` memoised by text (a destination is a value;
    a malformed text raises and is never cached)."""
    if "@" in text:
        pat_text, _, space_text = text.partition("@")
        if not pat_text or not space_text:
            raise PatternSyntaxError(text, "both sides of '@' must be non-empty")
        return Destination(pat_text, space_text)
    return Destination(text)


#: Id counters.  A TCP node rebinds both to its own range (``net/runtime.py``):
#: draw through the module global at call time, never through a kept reference.
_message_ids = itertools.count()
_envelope_ids = itertools.count()


@dataclass(frozen=True, slots=True)
class Message:
    """A user-level message.

    ``payload`` is arbitrary application data.  ``reply_to`` optionally
    carries the customer's mail address (the actor idiom for returning
    answers).  ``headers`` carries application metadata; the runtime never
    inspects it.
    """

    payload: Any
    reply_to: ActorAddress | None = None
    headers: dict = field(default_factory=dict)
    message_id: int = field(default_factory=lambda: next(_message_ids))

    def __repr__(self):
        return f"Message(#{self.message_id}, {self.payload!r})"


@dataclass(slots=True)
class Envelope:
    """The runtime's unit of transmission: message + routing metadata.

    Attributes
    ----------
    message: the user message being carried.
    sender: mail address of the sending actor (``None`` for external input).
    mode: :class:`Mode` — direct, send, or broadcast.
    target: explicit receiver address for ``DIRECT`` envelopes.
    destination: the ``pattern@space`` for pattern-addressed envelopes.
    port: which actor port the message is for.
    sent_at: virtual time the envelope entered the system.
    delivered_at: virtual time of delivery (set by the scheduler).
    trace: list of node hops, appended by the routing layer (used by the
        locality experiments to count LAN vs WAN hops).
    origin_space: the host space of the sender, for relative resolution.
    trace_id: the root envelope of this envelope's causal tree.  A fresh
        envelope roots its own tree (``trace_id == envelope_id``); an
        envelope created while processing another (a reply, a fan-out
        clone) inherits the cause's ``trace_id``.
    parent_id: the envelope whose processing created this one (``None``
        for causal roots).  The flight recorder follows these links to
        reconstruct end-to-end message histories.
    """

    message: Message
    sender: ActorAddress | None
    mode: Mode
    target: MailAddress | None = None
    destination: Destination | None = None
    port: Port = Port.INVOCATION
    sent_at: float = 0.0
    delivered_at: float | None = None
    trace: list[int] = field(default_factory=list)
    origin_space: SpaceAddress | None = None
    envelope_id: int = field(default_factory=lambda: next(_envelope_ids))
    trace_id: int | None = None
    parent_id: int | None = None

    def __post_init__(self):
        if self.trace_id is None:
            self.trace_id = self.envelope_id

    def hop(self, node: int) -> None:
        """Record passage through ``node`` (routing bookkeeping)."""
        self.trace.append(node)

    def clone_for(self, target: MailAddress) -> "Envelope":
        """A per-receiver copy of a broadcast envelope.

        Broadcast fan-out happens at resolution time; each receiver gets
        its own envelope so per-receiver delivery times and traces stay
        independent.  The clone joins the original's causal tree with
        the original as its parent.
        """
        return Envelope(
            self.message, self.sender, self.mode, target, self.destination,
            self.port, self.sent_at, None, list(self.trace),
            self.origin_space, next(_envelope_ids), self.trace_id,
            self.envelope_id)

    def __repr__(self):
        where = self.target if self.target is not None else self.destination
        return f"<Envelope #{self.envelope_id} {self.mode.value} -> {where!r}>"


def new_envelope(mode: Mode, payload: Any, sender: ActorAddress | None,
                 origin_space: SpaceAddress | None, sent_at: float, *,
                 target: ActorAddress | None = None,
                 destination: Destination | None = None,
                 reply_to: ActorAddress | None = None,
                 headers: dict | None = None,
                 cause: Envelope | None = None) -> Envelope:
    """A fresh message in a fresh INVOCATION-port envelope, joined to
    ``cause``'s causal tree (or rooting its own).  Ids and fields go in
    positionally: default factories and keyword binding are most of what
    an :class:`Envelope` costs to build."""
    envelope_id = next(_envelope_ids)
    return Envelope(
        Message(payload, reply_to, headers or {}, next(_message_ids)),
        sender, mode, target, destination, Port.INVOCATION, sent_at, None,
        [], origin_space, envelope_id,
        envelope_id if cause is None else cause.trace_id,
        None if cause is None else cause.envelope_id)
