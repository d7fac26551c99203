"""The small sequential interpreter (paper section 7.2).

A tree-walking evaluator over parsed forms, kept naive on purpose: it is
the readable reference the compiled engine is checked against.  Pure
computation comes from ``builtins``; every *effect* is one of the
:data:`~repro.interp.effects.EFFECT_FORMS`, applied to an
:class:`EffectBridge` (implemented by the ActorInterface).

The evaluator is fuel-limited: each method invocation may execute at most
``max_steps`` evaluation steps — one per form evaluated, atoms included —
so a buggy script loops visibly (an error) instead of hanging the
simulation — an untrusted-client guard in the spirit of the paper's
open-systems discussion (section 2).
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.core.errors import InterpreterRuntimeError

from .astnodes import Symbol, to_source
from .builtins import BUILTINS
from .effects import EFFECT_FORMS, EffectBridge, effect_form
from .env import Env, FrozenEnv


def out_of_fuel(max_steps: int) -> InterpreterRuntimeError:
    """The error either engine raises when a body spends its fuel."""
    return InterpreterRuntimeError(
        f"script exceeded {max_steps} evaluation steps")


class Evaluator:
    """Evaluates forms against an environment and an effect bridge."""

    def __init__(self, bridge: EffectBridge, max_steps: int = 100_000):
        self.bridge = bridge
        self.max_steps = max_steps
        self._steps = 0

    # -- driver -------------------------------------------------------------------

    def run_body(self, body: Iterable, env: Env) -> Any:
        """Evaluate a method body (a sequence of forms); fresh fuel."""
        self._steps = 0
        result: Any = None
        for form in body:
            result = self.eval(form, env)
        return result

    # -- core --------------------------------------------------------------------

    def eval(self, form: Any, env: Env) -> Any:
        self._steps += 1
        if self._steps > self.max_steps:
            raise out_of_fuel(self.max_steps)
        # Atoms ------------------------------------------------------------
        if isinstance(form, Symbol):
            return env.lookup(str(form))
        if not isinstance(form, list):
            return form  # numbers, strings, booleans, None, addresses...
        if not form:
            raise InterpreterRuntimeError("cannot evaluate the empty form ()")
        head = form[0]
        if isinstance(head, Symbol):
            handler = _SPECIAL.get(str(head))
            if handler is not None:
                return handler(self, form, env)
        # Application --------------------------------------------------------
        fn = self.eval(head, env)
        args = [self.eval(arg, env) for arg in form[1:]]
        if callable(fn):
            try:
                return fn(*args)
            except InterpreterRuntimeError:
                raise
            except Exception as exc:
                raise InterpreterRuntimeError(
                    f"error in {to_source(form)}: {exc}"
                ) from exc
        raise InterpreterRuntimeError(f"not callable: {to_source(head)}")


# ---------------------------------------------------------------------------
# Special forms
# ---------------------------------------------------------------------------


def _binding(form: Any) -> bool:
    return isinstance(form, list) and len(form) == 2 and isinstance(form[0], Symbol)


#: The control forms that can be malformed: name -> (well shaped?, complaint).
_SHAPES = {
    "quote": (lambda f: len(f) == 2, "quote takes one argument"),
    "if": (lambda f: len(f) in (3, 4), "if takes 2 or 3 arguments"),
    "let": (lambda f: len(f) >= 3 and isinstance(f[1], list)
            and all(_binding(b) for b in f[1]),
            "let needs a list of (name expr) bindings and a body"),
    "set!": (lambda f: len(f) == 3 and isinstance(f[1], Symbol),
             "set! takes a name and a value"),
    "define": (lambda f: len(f) == 3 and isinstance(f[1], Symbol),
               "define takes a name and a value"),
    "while": (lambda f: len(f) >= 2, "while needs a condition"),
    "for": (lambda f: len(f) >= 3 and isinstance(f[1], Symbol),
            "for needs (for name list body...)"),
}


def check_shape(form: list) -> None:
    """Reject a malformed control form: the walker when it evaluates one,
    the compiler when it compiles one, in the same words."""
    well_shaped, complaint = _SHAPES[str(form[0])]
    if not well_shaped(form):
        raise InterpreterRuntimeError(f"{complaint} in {to_source(form)}")


def _sf_quote(ev: Evaluator, form: list, env: Env) -> Any:
    check_shape(form)
    return _strip_symbols(form[1])


def _strip_symbols(form: Any) -> Any:
    """Quoted data: symbols become strings, lists stay lists."""
    if isinstance(form, Symbol):
        return str(form)
    if isinstance(form, list):
        return [_strip_symbols(f) for f in form]
    return form


def _sf_if(ev: Evaluator, form: list, env: Env) -> Any:
    check_shape(form)
    cond = ev.eval(form[1], env)
    if cond is not False and cond is not None:
        return ev.eval(form[2], env)
    if len(form) == 4:
        return ev.eval(form[3], env)
    return None


def _sf_let(ev: Evaluator, form: list, env: Env) -> Any:
    check_shape(form)
    child = env.child()
    for name, expr in form[1]:
        child.define(str(name), ev.eval(expr, child))
    result = None
    for body_form in form[2:]:
        result = ev.eval(body_form, child)
    return result


def _sf_begin(ev: Evaluator, form: list, env: Env) -> Any:
    result = None
    for body_form in form[1:]:
        result = ev.eval(body_form, env)
    return result


def _sf_and(ev: Evaluator, form: list, env: Env) -> Any:
    result: Any = True
    for sub in form[1:]:
        result = ev.eval(sub, env)
        if result is False or result is None:
            return False
    return result


def _sf_or(ev: Evaluator, form: list, env: Env) -> Any:
    for sub in form[1:]:
        result = ev.eval(sub, env)
        if result is not False and result is not None:
            return result
    return False


def _sf_set(ev: Evaluator, form: list, env: Env) -> Any:
    check_shape(form)
    value = ev.eval(form[2], env)
    env.assign(str(form[1]), value)
    return value


def _sf_define(ev: Evaluator, form: list, env: Env) -> Any:
    check_shape(form)
    value = ev.eval(form[2], env)
    env.define(str(form[1]), value)
    return value


def _sf_while(ev: Evaluator, form: list, env: Env) -> Any:
    """Loops evaluate for effect; their value is ``nil`` (both engines)."""
    check_shape(form)
    while True:
        cond = ev.eval(form[1], env)
        if cond is False or cond is None:
            return None
        for body_form in form[2:]:
            ev.eval(body_form, env)


def _sf_for(ev: Evaluator, form: list, env: Env) -> Any:
    check_shape(form)
    name = str(form[1])
    items = ev.eval(form[2], env)
    if not isinstance(items, list):
        raise InterpreterRuntimeError(f"for: expected a list, got {items!r}")
    for item in items:
        child = env.child({name: item})
        for body_form in form[3:]:
            ev.eval(body_form, child)
    return None


# -- effect forms -------------------------------------------------------------


def _sf_effect(ev: Evaluator, form: list, env: Env) -> Any:
    apply, operands, exprs = effect_form(form)
    operands += [ev.eval(expr, env) for expr in exprs]
    return apply(ev.bridge, operands)


_SPECIAL = {
    "quote": _sf_quote,
    "if": _sf_if,
    "let": _sf_let,
    "begin": _sf_begin,
    "and": _sf_and,
    "or": _sf_or,
    "set!": _sf_set,
    "define": _sf_define,
    "while": _sf_while,
    "for": _sf_for,
    **dict.fromkeys(EFFECT_FORMS, _sf_effect),
}


_SHARED_BUILTINS = FrozenEnv(BUILTINS)


def base_env() -> Env:
    """A child of the shared (frozen) builtins frame.

    Callers get a mutable frame for ``define``; the builtins themselves
    are shared across all actors and invocations and cannot be rebound.
    """
    return _SHARED_BUILTINS.child()
