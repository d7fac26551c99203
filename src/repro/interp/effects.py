"""The effect forms: every script form that reaches the ActorInterface.

Pure computation comes from ``builtins``; every *effect* — message
sends, actor creation, ``become``, visibility changes — is a special
form applied to an :class:`EffectBridge` (implemented by the
ActorInterface), mirroring the prototype's split: "the interpreter ...
occasionally accesses the ActorInterface for sending and receiving
messages from the Coordinator".

The forms are listed once, in :data:`EFFECT_FORMS`; the tree walker and
the compiler both read their shape check and their bridge call from it,
so the two engines cannot disagree about an effect.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple, Protocol

from repro.core.errors import InterpreterRuntimeError

from .astnodes import Symbol, to_source
from .builtins import _to_str


class EffectBridge(Protocol):
    """The effectful operations a script may perform (the ActorInterface)."""

    def self_address(self) -> Any: ...
    def host_space(self) -> Any: ...
    def reply_addr(self) -> Any: ...
    def now(self) -> float: ...
    def send_to(self, target: Any, payload: Any) -> None: ...
    def send_pattern(self, dest: str, payload: Any, reply_to: Any | None) -> None: ...
    def broadcast_pattern(self, dest: str, payload: Any, reply_to: Any | None) -> None: ...
    def become(self, name: str, args: list) -> None: ...
    def create(self, name: str, args: list) -> Any: ...
    def create_actorspace(self, capability: Any | None) -> Any: ...
    def make_visible(self, target: Any, attrs: Any, space: Any, cap: Any) -> None: ...
    def make_invisible(self, target: Any, space: Any, cap: Any) -> None: ...
    def change_attributes(self, target: Any, attrs: Any, space: Any, cap: Any) -> None: ...
    def new_capability(self) -> Any: ...
    def terminate(self) -> None: ...
    def schedule(self, delay: float, payload: Any) -> None: ...
    def emit(self, text: str) -> None: ...


class EffectForm(NamedTuple):
    """One row of :data:`EFFECT_FORMS`."""

    takes: str  #: the operands, as the arity message words them
    lo: int  #: fewest operands
    hi: int | None  #: most operands (``None``: any number)
    apply: Callable[[EffectBridge, list], Any]  #: the bridge call, on the operand values
    named: bool = False  #: operand 1 is a behavior *name* (a symbol), never evaluated


def _pad(operands: list, n: int) -> list:
    """Optional trailing operands default to ``nil``."""
    return operands + [None] * (n - len(operands))


EFFECT_FORMS: dict[str, EffectForm] = {
    "self": EffectForm("no operands", 0, 0, lambda b, o: b.self_address()),
    "host-space": EffectForm("no operands", 0, 0, lambda b, o: b.host_space()),
    "reply-addr": EffectForm("no operands", 0, 0, lambda b, o: b.reply_addr()),
    "now": EffectForm("no operands", 0, 0, lambda b, o: b.now()),
    "send-to": EffectForm("target and payload", 2, 2,
                          lambda b, o: b.send_to(*o)),
    "send": EffectForm("dest, payload[, reply-to]", 2, 3,
                       lambda b, o: b.send_pattern(*_pad(o, 3))),
    "broadcast": EffectForm("dest, payload[, reply-to]", 2, 3,
                            lambda b, o: b.broadcast_pattern(*_pad(o, 3))),
    "become": EffectForm("a behavior name[, acquaintances...]", 1, None,
                         lambda b, o: b.become(o[0], o[1:]), named=True),
    "create": EffectForm("a behavior name[, acquaintances...]", 1, None,
                         lambda b, o: b.create(o[0], o[1:]), named=True),
    "create-actorspace": EffectForm("[capability]", 0, 1,
                                    lambda b, o: b.create_actorspace(*_pad(o, 1))),
    "make-visible": EffectForm("target, attrs[, space[, capability]]", 2, 4,
                               lambda b, o: b.make_visible(*_pad(o, 4))),
    "make-invisible": EffectForm("target[, space[, capability]]", 1, 3,
                                 lambda b, o: b.make_invisible(*_pad(o, 3))),
    "change-attributes": EffectForm("target, attrs[, space[, capability]]", 2, 4,
                                    lambda b, o: b.change_attributes(*_pad(o, 4))),
    "new-capability": EffectForm("no operands", 0, 0,
                                 lambda b, o: b.new_capability()),
    "terminate": EffectForm("no operands", 0, 0, lambda b, o: b.terminate()),
    "schedule": EffectForm("delay and payload", 2, 2,
                           lambda b, o: b.schedule(*o)),
    "print": EffectForm("any operands", 0, None,
                        lambda b, o: b.emit(" ".join(_to_str(x) for x in o))),
}


def effect_form(form: list) -> tuple[Callable[[EffectBridge, list], Any], list, list]:
    """Check an effect form's shape.  Returns its bridge call, the
    operands that are values already (a behavior name) and the operand
    expressions still to be evaluated."""
    spec = EFFECT_FORMS[str(form[0])]
    count = len(form) - 1
    if (count < spec.lo or (spec.hi is not None and count > spec.hi)
            or (spec.named and not isinstance(form[1], Symbol))):
        raise InterpreterRuntimeError(
            f"{form[0]} takes {spec.takes} in {to_source(form)}")
    if spec.named:
        return spec.apply, [str(form[1])], form[2:]
    return spec.apply, [], form[1:]
