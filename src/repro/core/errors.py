"""Error taxonomy for the ActorSpace reproduction.

Every exception raised by the library derives from :class:`ActorSpaceError`
so applications can catch paradigm-level failures with a single handler
while letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ActorSpaceError(Exception):
    """Base class for all errors raised by the ActorSpace runtime."""


class PatternSyntaxError(ActorSpaceError):
    """A destination pattern could not be parsed.

    Attributes
    ----------
    text:
        The offending pattern text.
    position:
        Character offset of the first unparsable token, or ``None``.
    """

    def __init__(self, text: str, reason: str, position: int | None = None):
        self.text = text
        self.reason = reason
        self.position = position
        where = f" at position {position}" if position is not None else ""
        super().__init__(f"bad pattern {text!r}{where}: {reason}")


class AttributeSyntaxError(ActorSpaceError):
    """An attribute path was malformed (empty atom, illegal character...)."""


class CapabilityError(ActorSpaceError):
    """A privileged operation was attempted with a missing or wrong capability."""


class VisibilityCycleError(ActorSpaceError):
    """A ``make_visible`` would create a cycle in the space-visibility DAG.

    The paper (section 5.7) forbids an actorSpace from being made visible
    in itself, directly or transitively, because a broadcast matching the
    space's own attributes would generate unboundedly many messages.
    """

    def __init__(self, space: object, target: object, path: tuple | None = None):
        self.space = space
        self.target = target
        self.path = path
        super().__init__(
            f"making {space!r} visible in {target!r} would create a visibility cycle"
            + (f" via {path!r}" if path else "")
        )


class NotASpaceError(ActorSpaceError):
    """A space-only operation was applied to an actor mail address.

    The prototype maintains type information distinguishing actor mail
    addresses from actorSpace mail addresses (paper section 5.7) precisely so
    that this error can be raised instead of sending bookkeeping messages
    to an encapsulated actor.
    """


class NotAnActorError(ActorSpaceError):
    """An actor-only operation was applied to an actorSpace mail address."""


class UnknownAddressError(ActorSpaceError):
    """A mail address does not denote any live actor or actorSpace."""


class SpaceDestroyedError(ActorSpaceError):
    """An operation referenced an actorSpace that has been destroyed.

    The prototype provides explicit destruction of actorSpaces because the
    globally visible root makes automatic collection of top-level spaces
    infeasible (paper section 7.1).
    """


class NoMatchError(ActorSpaceError):
    """Raised by managers whose unmatched-message policy is ``ERROR``.

    Section 5.6 lists treating an unmatched pattern send as an error as one
    admissible semantics; the default policy instead suspends the message.
    """

    def __init__(self, destination: object):
        self.destination = destination
        super().__init__(f"no visible actor matches {destination!r}")


class MailboxClosedError(ActorSpaceError):
    """A message was enqueued to an actor that has terminated."""


class InterpreterError(ActorSpaceError):
    """Base class for errors from the behavior-script interpreter."""


class InterpreterSyntaxError(InterpreterError):
    """The behavior script could not be parsed."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        loc = f" (line {line}, col {col})" if line is not None else ""
        super().__init__(f"{message}{loc}")


class InterpreterRuntimeError(InterpreterError):
    """The behavior script failed during evaluation."""


class TransportError(ActorSpaceError):
    """A transport failed to deliver a payload (used by failure injection)."""


class NodeDownError(TransportError):
    """The destination node has crashed."""
