"""The byte-compiler: section 7's planned extension, implemented.

"A future extension will include a byte-compiler which will compile the
code into an intermediary form, similar to early implementations of
other object-oriented programming languages (such as SmallTalk)."

The intermediary form here is *closure-threaded code*: a method body is
compiled once into nested Python closures ``(env, vm) -> value``, one per
form, and running it is calling the outermost one.  Everything that can
be decided from the text alone is decided at compile time — which
special form a list is, how many operands it has, the behavior name of a
``become``/``create``, the strings a quoted symbol turns into, whether a
form is malformed — so a step at run time is one Python call.

**The scope pass.**  A name that is a builtin, and that nothing in the
method can rebind — no acquaintance or method parameter, no ``let``,
``define`` or ``for`` target anywhere in the body carries it — can only
ever resolve to the shared builtins frame, which is frozen; the compiler
binds such a name to the builtin itself.  Every other name goes through
:class:`~repro.interp.env.Env` at run time exactly as the tree walker's
does, so ``set!`` on a builtin, local shadowing and hot reload behave the
same under both engines.

**Fuel.**  A closure spends one step of ``vm.fuel`` per form evaluated,
atoms included: the tree walker's unit, so ``max_steps`` cuts both
engines off at the same form.  (A two-operand call of a builtin bound at
compile time pays for its head in the same subtraction; a bound builtin
cannot fail, so nothing can be observed between the two steps.)  Every
closure opens with the same three lines on purpose: a shared helper
would make each step two Python calls.

The compiled engine is semantically identical to the tree-walking
evaluator — value, effects, error text and fuel — which a hypothesis
property cross-checks on random programs, and faster, which E13 and the
``pool-script`` workload quantify.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.errors import InterpreterRuntimeError

from .astnodes import Symbol, to_source
from .builtins import BUILTINS
from .effects import EFFECT_FORMS, effect_form
from .evaluator import _strip_symbols, check_shape, out_of_fuel

#: A compiled form: called with the environment and the running VM.
Thunk = Callable[[Any, Any], Any]


class Code:
    """A compiled body: ``entry(env, vm)`` runs it."""

    __slots__ = ("entry", "source_hint")

    def __init__(self, entry: Thunk, source_hint: str = ""):
        self.entry = entry
        self.source_hint = source_hint

    def __repr__(self):
        return f"<Code {self.source_hint!r}>"


def binding_targets(form: Any, found: set[str]) -> set[str]:
    """Every name a ``let``, ``define`` or ``for`` anywhere in ``form``
    binds.  Quoted data is searched too: a name too many only costs a
    run-time lookup."""
    if isinstance(form, list) and form:
        if form[0] == "let" and len(form) > 1 and isinstance(form[1], list):
            found.update(str(b[0]) for b in form[1] if isinstance(b, list) and b)
        elif form[0] in ("define", "for") and len(form) > 1:
            found.add(str(form[1]))
        for sub in form:
            binding_targets(sub, found)
    return found


class Compiler:
    """Compiles parsed forms to closures; ``rebindable`` is the scope
    pass's result, the names that may not be bound at compile time."""

    def __init__(self, rebindable: set[str]):
        self.rebindable = rebindable

    def sequence(self, forms: list) -> Thunk:
        """The forms in order, for the value of the last; a sequence is
        not itself a form, so it spends no fuel."""
        thunks = [self.compile(form) for form in forms]
        if len(thunks) == 1:
            return thunks[0]

        def run(env, vm):
            result = None
            for thunk in thunks:
                result = thunk(env, vm)
            return result
        return run

    # -- expression dispatch ------------------------------------------------------

    def compile(self, form: Any) -> Thunk:
        if isinstance(form, Symbol):
            name = str(form)
            if self._is_builtin(name):
                return _constant(BUILTINS[name])
            return _variable(name)
        if not isinstance(form, list):
            return _constant(form)
        if not form:
            raise InterpreterRuntimeError("cannot evaluate the empty form ()")
        head = form[0]
        if isinstance(head, Symbol):
            special = _SPECIAL.get(str(head))
            if special is not None:
                return special(self, form)
        return self._application(form)

    def _is_builtin(self, name: str) -> bool:
        return name in BUILTINS and name not in self.rebindable

    def _application(self, form: list) -> Thunk:
        head = form[0]
        args = [self.compile(arg) for arg in form[1:]]

        def failed(exc: Exception) -> InterpreterRuntimeError:
            return InterpreterRuntimeError(f"error in {to_source(form)}: {exc}")

        if (len(args) == 2 and isinstance(head, Symbol)
                and self._is_builtin(str(head))):
            # The shape scripts spend their time in — (+ a b), (< i n) —
            # with no argument list and no head to evaluate or test.
            builtin = BUILTINS[str(head)]
            first, second = args

            def run(env, vm):
                vm.fuel = left = vm.fuel - 2  # the form and its head
                if left < 0:
                    raise out_of_fuel(vm.max_steps)
                x = first(env, vm)
                y = second(env, vm)
                try:
                    return builtin(x, y)
                except InterpreterRuntimeError:
                    raise
                except Exception as exc:
                    raise failed(exc) from exc
            return run

        callee = self.compile(head)

        def run(env, vm):
            vm.fuel = left = vm.fuel - 1
            if left < 0:
                raise out_of_fuel(vm.max_steps)
            fn = callee(env, vm)
            values = [arg(env, vm) for arg in args]
            if not callable(fn):
                raise InterpreterRuntimeError(
                    f"not callable: {to_source(head)}")
            try:
                return fn(*values)
            except InterpreterRuntimeError:
                raise
            except Exception as exc:
                raise failed(exc) from exc
        return run

    # -- special forms ----------------------------------------------------------

    def _quote(self, form):
        check_shape(form)
        datum = _strip_symbols(form[1])
        if not isinstance(datum, list):
            return _constant(datum)

        def run(env, vm):
            vm.fuel = left = vm.fuel - 1
            if left < 0:
                raise out_of_fuel(vm.max_steps)
            return _strip_symbols(datum)  # a fresh copy per execution
        return run

    def _if(self, form):
        check_shape(form)
        test, then = self.compile(form[1]), self.compile(form[2])
        otherwise = self.compile(form[3]) if len(form) == 4 else None

        def run(env, vm):
            vm.fuel = left = vm.fuel - 1
            if left < 0:
                raise out_of_fuel(vm.max_steps)
            tested = test(env, vm)
            if tested is not False and tested is not None:
                return then(env, vm)
            if otherwise is not None:
                return otherwise(env, vm)
            return None
        return run

    def _let(self, form):
        check_shape(form)
        bindings = [(str(name), self.compile(expr)) for name, expr in form[1]]
        body = self.sequence(form[2:])

        def run(env, vm):
            vm.fuel = left = vm.fuel - 1
            if left < 0:
                raise out_of_fuel(vm.max_steps)
            child = env.child()
            for name, expr in bindings:
                child.define(name, expr(child, vm))
            return body(child, vm)
        return run

    def _begin(self, form):
        body = self.sequence(form[1:])

        def run(env, vm):
            vm.fuel = left = vm.fuel - 1
            if left < 0:
                raise out_of_fuel(vm.max_steps)
            return body(env, vm)
        return run

    def _and(self, form):
        operands = [self.compile(sub) for sub in form[1:]]

        def run(env, vm):
            vm.fuel = left = vm.fuel - 1
            if left < 0:
                raise out_of_fuel(vm.max_steps)
            result = True
            for operand in operands:
                result = operand(env, vm)
                if result is False or result is None:
                    return False
            return result
        return run

    def _or(self, form):
        operands = [self.compile(sub) for sub in form[1:]]

        def run(env, vm):
            vm.fuel = left = vm.fuel - 1
            if left < 0:
                raise out_of_fuel(vm.max_steps)
            for operand in operands:
                result = operand(env, vm)
                if result is not False and result is not None:
                    return result
            return False
        return run

    def _set(self, form):
        check_shape(form)
        name, expr = str(form[1]), self.compile(form[2])

        def run(env, vm):
            vm.fuel = left = vm.fuel - 1
            if left < 0:
                raise out_of_fuel(vm.max_steps)
            value = expr(env, vm)
            env.assign(name, value)
            return value
        return run

    def _define(self, form):
        check_shape(form)
        name, expr = str(form[1]), self.compile(form[2])

        def run(env, vm):
            vm.fuel = left = vm.fuel - 1
            if left < 0:
                raise out_of_fuel(vm.max_steps)
            value = expr(env, vm)
            env.define(name, value)
            return value
        return run

    def _while(self, form):
        """Loops evaluate for effect; their value is ``nil``."""
        check_shape(form)
        test = self.compile(form[1])
        body = [self.compile(sub) for sub in form[2:]]

        def run(env, vm):
            vm.fuel = left = vm.fuel - 1
            if left < 0:
                raise out_of_fuel(vm.max_steps)
            while True:
                tested = test(env, vm)
                if tested is False or tested is None:
                    return None
                for thunk in body:
                    thunk(env, vm)
        return run

    def _for(self, form):
        check_shape(form)
        name, source = str(form[1]), self.compile(form[2])
        body = [self.compile(sub) for sub in form[3:]]

        def run(env, vm):
            vm.fuel = left = vm.fuel - 1
            if left < 0:
                raise out_of_fuel(vm.max_steps)
            items = source(env, vm)
            if not isinstance(items, list):
                raise InterpreterRuntimeError(
                    f"for: expected a list, got {items!r}")
            for item in items:
                child = env.child({name: item})
                for thunk in body:
                    thunk(child, vm)
            return None
        return run

    def _effect(self, form):
        apply, named, exprs = effect_form(form)
        operands = [self.compile(expr) for expr in exprs]

        def run(env, vm):
            vm.fuel = left = vm.fuel - 1
            if left < 0:
                raise out_of_fuel(vm.max_steps)
            return apply(vm.bridge,
                         named + [operand(env, vm) for operand in operands])
        return run


def _constant(value: Any) -> Thunk:
    def run(env, vm):
        vm.fuel = left = vm.fuel - 1
        if left < 0:
            raise out_of_fuel(vm.max_steps)
        return value
    return run


def _variable(name: str) -> Thunk:
    def run(env, vm):
        vm.fuel = left = vm.fuel - 1
        if left < 0:
            raise out_of_fuel(vm.max_steps)
        return env.lookup(name)
    return run


_SPECIAL = {
    "quote": Compiler._quote,
    "if": Compiler._if,
    "let": Compiler._let,
    "begin": Compiler._begin,
    "and": Compiler._and,
    "or": Compiler._or,
    "set!": Compiler._set,
    "define": Compiler._define,
    "while": Compiler._while,
    "for": Compiler._for,
    **dict.fromkeys(EFFECT_FORMS, Compiler._effect),
}


def compile_body(body: list, params: tuple[str, ...] = ()) -> Code:
    """Compile a method body into :class:`Code`.  ``params`` names what
    the caller's environment binds above the builtins frame (acquaintance
    and method parameters)."""
    body = list(body)
    compiler = Compiler(binding_targets(body, set(params)))
    return Code(compiler.sequence(body),
                source_hint=to_source(body[0]) if body else "")
