"""Behavior definitions and the run-time-loadable behavior library.

A behavior script has the shape::

    (behavior counter (count)
      (method incr (by)
        (become counter (+ count by)))
      (method query ()
        (send-to (reply-addr) count)))

``behavior`` declares the acquaintance parameters (the state captured at
``create``/``become`` time); each ``method`` declares the communication
parameters bound from the incoming message.  Messages to interpreted
actors are lists ``[method-name, arg...]``.

A :class:`BehaviorLibrary` maps names to definitions and can absorb new
scripts while the system runs — the run-time loadability the prototype
chose an interpreter for (section 7).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.core.errors import InterpreterSyntaxError
from repro.core.gc import scan_addresses

from .astnodes import Symbol, is_symbol, to_source
from .compiler import compile_body
from .parser import parse_program


@dataclass(frozen=True)
class MethodDef:
    """One method: its parameter names and body forms."""

    name: str
    params: tuple[str, ...]
    body: tuple


@dataclass(frozen=True)
class BehaviorDef:
    """One behavior: acquaintance parameters plus a method table."""

    name: str
    params: tuple[str, ...]
    methods: dict[str, MethodDef]
    @cached_property
    def addresses(self) -> tuple:
        """The mail addresses in the program text, which every actor
        running this definition pins: none in a parsed script, but a body
        built by hand may hold address literals.  Found once."""
        return tuple(scan_addresses((self.name, self.params, self.methods)))

    def method(self, name: str) -> MethodDef | None:
        return self.methods.get(name)


def _param_list(form, context: str) -> tuple[str, ...]:
    if not isinstance(form, list) or not all(isinstance(p, Symbol) for p in form):
        raise InterpreterSyntaxError(
            f"{context}: parameter list must be a list of symbols, got {to_source(form)}"
        )
    names = tuple(str(p) for p in form)
    if len(set(names)) != len(names):
        raise InterpreterSyntaxError(f"{context}: duplicate parameter names in {names}")
    return names


def parse_behavior(form) -> BehaviorDef:
    """Parse one ``(behavior ...)`` form into a :class:`BehaviorDef`."""
    if (
        not isinstance(form, list)
        or len(form) < 3
        or not is_symbol(form[0], "behavior")
        or not isinstance(form[1], Symbol)
    ):
        raise InterpreterSyntaxError(
            f"expected (behavior name (params) methods...), got {to_source(form)}"
        )
    name = str(form[1])
    params = _param_list(form[2], f"behavior {name}")
    methods: dict[str, MethodDef] = {}
    for method_form in form[3:]:
        if (
            not isinstance(method_form, list)
            or len(method_form) < 3
            or not is_symbol(method_form[0], "method")
            or not isinstance(method_form[1], Symbol)
        ):
            raise InterpreterSyntaxError(
                f"behavior {name}: expected (method name (params) body...), "
                f"got {to_source(method_form)}"
            )
        mname = str(method_form[1])
        if mname in methods:
            raise InterpreterSyntaxError(f"behavior {name}: duplicate method {mname}")
        mparams = _param_list(method_form[2], f"method {name}.{mname}")
        methods[mname] = MethodDef(mname, mparams, tuple(method_form[3:]))
    return BehaviorDef(name, params, methods)


class BehaviorLibrary:
    """A mutable registry of behavior definitions, loadable at run time.

    Also owns the code cache for the compiled engine: method bodies
    are compiled on first dispatch, and an entry answers only for the
    method it was compiled from, so a re-load recompiles (hot-swap keeps
    working under both engines).
    """

    def __init__(self):
        self._defs: dict[str, BehaviorDef] = {}
        self._code_cache: dict[tuple[str, str], tuple[MethodDef, object]] = {}

    def load(self, source: str) -> list[BehaviorDef]:
        """Parse ``source`` and register every behavior it defines.

        Re-loading a name replaces the old definition — actors created
        afterwards (or ``become``-ing it) pick up the new code, which is
        the hot-swap story the interpreter design buys.
        """
        loaded = []
        for form in parse_program(source):
            definition = parse_behavior(form)
            self._defs[definition.name] = definition
            loaded.append(definition)
        return loaded

    def compiled(self, behavior_name: str, method: MethodDef,
                 acquaintances: tuple[str, ...] = ()):
        """The compiled :class:`~repro.interp.compiler.Code` for a method
        of a behavior with these acquaintance parameters.

        An actor still running a definition that a re-load has replaced
        gets its own code, not its successor's.
        """
        key = (behavior_name, method.name)
        cached = self._code_cache.get(key)
        if cached is None or cached[0] is not method:
            code = compile_body(method.body, acquaintances + method.params)
            cached = self._code_cache[key] = (method, code)
        return cached[1]

    def get(self, name: str) -> BehaviorDef:
        definition = self._defs.get(name)
        if definition is None:
            raise InterpreterSyntaxError(f"unknown behavior: {name}")
        return definition

    def __contains__(self, name: str) -> bool:
        return name in self._defs

    def names(self) -> list[str]:
        return sorted(self._defs)

    def __repr__(self):
        return f"<BehaviorLibrary {self.names()}>"
