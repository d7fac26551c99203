"""Lexical environments for the behavior interpreter."""

from __future__ import annotations

from typing import Any

from repro.core.errors import InterpreterRuntimeError


class Env:
    """A frame of variable bindings with a parent chain."""

    __slots__ = ("bindings", "parent")

    def __init__(self, bindings: dict[str, Any] | None = None, parent: "Env | None" = None):
        self.bindings: dict[str, Any] = dict(bindings or {})
        self.parent = parent

    def lookup(self, name: str) -> Any:
        env: Env | None = self
        while env is not None:
            if name in env.bindings:
                return env.bindings[name]
            env = env.parent
        raise InterpreterRuntimeError(f"unbound variable: {name}")

    def define(self, name: str, value: Any) -> None:
        """Bind ``name`` in *this* frame (shadowing any outer binding)."""
        self.bindings[name] = value

    #: Frames with ``mutable = False`` reject define/assign (builtins).
    mutable = True

    def assign(self, name: str, value: Any) -> None:
        """Rebind the nearest existing binding of ``name`` (``set!``)."""
        env: Env | None = self
        while env is not None:
            if name in env.bindings:
                if not env.mutable:
                    raise InterpreterRuntimeError(
                        f"cannot rebind builtin: {name}")
                env.bindings[name] = value
                return
            env = env.parent
        raise InterpreterRuntimeError(f"cannot set! unbound variable: {name}")

    def child(self, bindings: dict[str, Any] | None = None) -> "Env":
        return Env(bindings, parent=self)


class FrozenEnv(Env):
    """An immutable frame — used for the shared builtins table.

    Sharing one builtins frame across every invocation (instead of
    copying ~60 bindings per message) is a large win for short methods;
    freezing it keeps one actor's ``set!`` from rebinding a builtin for
    everyone else.
    """

    __slots__ = ()
    mutable = False
