"""Builtin (pure) functions available to behavior scripts.

These are the computational primitives; everything with an *effect* —
sending, creating, becoming — is a special form handled by the evaluator
through the ActorInterface, so that effects are impossible to smuggle
into a pure position.
"""

from __future__ import annotations

import math
import operator
from typing import Any, Callable

from repro.core.errors import InterpreterRuntimeError


def _num(op: str, x: Any) -> float | int:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise InterpreterRuntimeError(f"{op}: expected a number, got {x!r}")
    return x


#: Operand types the two-operand fast paths below take, matched exactly:
#: ``bool``, subclasses and every other arity go the generic way, which
#: checks and complains as it always did, so results and errors agree.
_NUMBERS = (int, float)
_COMPARABLE = (int, float, str)


def _arith(op: str, fn: Callable, identity: int | None = None):
    def impl(*args):
        if len(args) == 2:
            a, b = args
            if type(a) in _NUMBERS and type(b) in _NUMBERS:
                return fn(a, b)
        if not args:
            if identity is None:
                raise InterpreterRuntimeError(f"{op}: needs at least one argument")
            return identity
        values = [_num(op, a) for a in args]
        acc = values[0]
        if len(values) == 1 and op == "-":
            return -acc
        if len(values) == 1 and op == "/":
            return 1 / acc
        for v in values[1:]:
            acc = fn(acc, v)
        return acc

    return impl


def _chain(op: str, fn: Callable):
    def impl(*args):
        if len(args) == 2:
            a, b = args
            if type(a) in _COMPARABLE and type(b) in _COMPARABLE:
                return fn(a, b)
        if len(args) < 2:
            raise InterpreterRuntimeError(f"{op}: needs at least two arguments")
        return all(fn(_cmp_ok(op, a), _cmp_ok(op, b)) for a, b in zip(args, args[1:]))

    return impl


def _cmp_ok(op: str, x: Any):
    if isinstance(x, (int, float, str)) and not isinstance(x, bool):
        return x
    raise InterpreterRuntimeError(f"{op}: cannot compare {x!r}")


def _list_arg(op: str, x: Any) -> list:
    if not isinstance(x, list):
        raise InterpreterRuntimeError(f"{op}: expected a list, got {x!r}")
    return x


def _safe_div(a, b):
    if b == 0:
        raise InterpreterRuntimeError("division by zero")
    return a / b


def _safe_mod(a, b):
    if b == 0:
        raise InterpreterRuntimeError("modulo by zero")
    return a % b


def _nth(lst, i):
    lst = _list_arg("nth", lst)
    if not isinstance(i, int) or isinstance(i, bool) or not (0 <= i < len(lst)):
        raise InterpreterRuntimeError(f"nth: index {i!r} out of range for {len(lst)}-list")
    return lst[i]


BUILTINS: dict[str, Callable[..., Any]] = {
    # arithmetic
    "+": _arith("+", operator.add, identity=0),
    "-": _arith("-", operator.sub),
    "*": _arith("*", operator.mul, identity=1),
    "/": _arith("/", _safe_div),
    "mod": lambda a, b: _safe_mod(_num("mod", a), _num("mod", b)),
    "abs": lambda x: abs(_num("abs", x)),
    "min": lambda *xs: min(_num("min", x) for x in xs),
    "max": lambda *xs: max(_num("max", x) for x in xs),
    "floor": lambda x: math.floor(_num("floor", x)),
    "ceil": lambda x: math.ceil(_num("ceil", x)),
    "sqrt": lambda x: math.sqrt(_num("sqrt", x)),
    # comparison
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": _chain("<", operator.lt),
    ">": _chain(">", operator.gt),
    "<=": _chain("<=", operator.le),
    ">=": _chain(">=", operator.ge),
    "not": lambda x: x is False or x is None,
    # lists
    "list": lambda *xs: list(xs),
    "cons": lambda x, lst: [x] + _list_arg("cons", lst),
    "head": lambda lst: _nth(lst, 0),
    "tail": lambda lst: _list_arg("tail", lst)[1:],
    "nth": _nth,
    "len": lambda x: len(x) if isinstance(x, (list, str)) else _list_arg("len", x),
    "append": lambda *ls: sum((_list_arg("append", l) for l in ls), []),
    "reverse": lambda lst: list(reversed(_list_arg("reverse", lst))),
    "empty?": lambda lst: len(_list_arg("empty?", lst)) == 0,
    "range": lambda *a: list(range(*[_num("range", x) for x in a])),
    "contains?": lambda lst, x: x in _list_arg("contains?", lst),
    # strings
    "str": lambda *xs: "".join(_to_str(x) for x in xs),
    "symbol->str": lambda s: str(s),
    "split": lambda s, sep: (s.split(sep) if isinstance(s, str) else
                             _list_arg("split", s)),
    # type predicates
    "number?": lambda x: isinstance(x, (int, float)) and not isinstance(x, bool),
    "string?": lambda x: isinstance(x, str),
    "list?": lambda x: isinstance(x, list),
    "nil?": lambda x: x is None,
    "bool?": lambda x: isinstance(x, bool),
}


def _to_str(x: Any) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, bool):
        return "true" if x else "false"
    if x is None:
        return "nil"
    if isinstance(x, float) and x == int(x):
        return str(int(x))
    return str(x)
