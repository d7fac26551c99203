"""The byte-compiler: section 7's planned extension, implemented.

"A future extension will include a byte-compiler which will compile the
code into an intermediary form, similar to early implementations of
other object-oriented programming languages (such as SmallTalk)."

The intermediary form here is *closure-threaded code*: a method body is
compiled once into nested Python closures ``(regs, vm) -> value``, one
per form, and running it is calling the outermost one.  Everything that
can be decided from the text alone is decided at compile time — which
special form a list is, how many operands it has, the behavior name of a
``become``/``create``, the strings a quoted symbol turns into, whether a
form is malformed, and where every name lives — so a step at run time is
one Python call.

**Lexical addressing.**  The language has no first-class functions, so a
name's home is known from the text.  An invocation runs over one flat
list of registers: the parameter values, then a slot per ``let`` and
``for`` binding and per ``define`` target of each frame (the method, a
``let``, a ``for`` body), then the constants.  A reference resolves, at
compile time, to one of four things.  A *certain slot*: a parameter, an
earlier binding of an enclosing ``let``, a ``for`` variable, or a
``define`` that its frame's own sequence has already run — a bare
``regs[i]``.  A *maybe-bound chain*: a ``define`` under an ``if`` or a
loop, or further down, may not have run, so its slot holds ``UNBOUND``
until it does and the reference tries such slots innermost first before
whatever lies behind them.  *The builtin itself*, when nothing in scope
can bind the name (the builtins frame is frozen).  Or *nothing*:
``unbound variable``, and the name is listed in :attr:`Code.unbound`.
A frame is a new frame each time it is entered, so the slots of its
``define``s are unbound again at every ``let`` entry and ``for`` item.
``set!`` walks the same answer, which is how it tells a shadowed builtin
from the real one.

**Fuel.**  A closure spends one step of ``vm.fuel`` per form evaluated,
atoms included: the tree walker's unit, so ``max_steps`` cuts both
engines off at the same form.  Steps between which nothing can be
observed are spent in one subtraction: a two-operand call of a builtin
bound at compile time pays for its head with the form, and for operands
read from certain slots or constants too — such a read cannot fail or
have an effect, so running out one step earlier or later raises the same
error after the same effects.  Every closure opens with the same three
lines on purpose: a shared helper would make each step two Python calls.

The compiled engine is semantically identical to the tree-walking
evaluator — value, effects, error text and fuel — which a hypothesis
property cross-checks on random programs, and faster, which E13 and the
``pool-script`` workload quantify.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.core.errors import InterpreterRuntimeError

from .astnodes import Symbol, to_source
from .builtins import BUILTINS
from .effects import EFFECT_FORMS, effect_form
from .evaluator import _strip_symbols, check_shape, out_of_fuel

#: A compiled form: called with the invocation's registers and the VM.
Thunk = Callable[[list, Any], Any]

#: What a register holds while the ``define`` it belongs to has not run.
UNBOUND = type("Unbound", (), {"__repr__": lambda self: "<unbound>"})()


@dataclass(frozen=True, slots=True, repr=False, eq=False)
class Code:
    """A compiled body.  ``entry(regs, vm)`` runs it over a copy of
    ``registers`` whose first ``nparams`` slots hold the parameter
    values; ``unbound`` names what nothing in the text can bind."""

    entry: Thunk
    registers: list
    nparams: int
    unbound: tuple[str, ...]
    source_hint: str

    def __repr__(self):
        return f"<Code {self.source_hint!r}>"


def _defined(forms: list, found: dict[str, None]) -> None:
    """Collect the names a ``define`` may bind in the frame that
    evaluates ``forms``.  A ``let`` and the body of a ``for`` are frames
    of their own; quoted data is not evaluated."""
    for form in forms:
        if not isinstance(form, list):
            continue
        if form and isinstance(form[0], Symbol):
            if form[0] in ("quote", "let"):
                continue
            if form[0] == "for":
                form = form[2:3]  # its list is evaluated out here
            elif (form[0] == "define" and len(form) == 3
                    and isinstance(form[1], Symbol)):
                found[str(form[1])] = None
        _defined(form, found)


class Compiler:
    """Compiles parsed forms to closures over one register list, giving
    every name a home as it goes (see *Lexical addressing* above)."""

    def __init__(self, nparams: int):
        #: What an invocation's registers start as: parameters first,
        #: constants prefilled.
        self.registers: list = [UNBOUND] * nparams
        self.unbound: dict[str, None] = {}
        #: The frames in scope — the method, a ``let``, a ``for`` body —
        #: innermost last, each a pair of name -> slot maps: ``certain``,
        #: bound wherever the compiler now stands, and ``maybe``, the
        #: targets of ``define``s that may or may not have run.
        self.frames: list[tuple[dict[str, int], dict[str, int]]] = []

    # -- scopes -----------------------------------------------------------------

    def _slot(self, value: Any = UNBOUND) -> int:
        self.registers.append(value)
        return len(self.registers) - 1

    def _open(self, forms: list, certain=None) -> tuple[int, ...]:
        """Enter the frame whose extent is ``forms``.  Returns the slots
        of its ``define`` targets: unbound again at each entry."""
        defined: dict[str, None] = {}
        _defined(forms, defined)
        maybe = {name: self._slot() for name in defined}
        self.frames.append((certain or {}, maybe))
        return tuple(maybe.values())

    def _bind(self, name: str) -> int:
        """From here on ``name`` is certainly bound in the innermost
        frame; its slot (the one its ``define`` has, if any)."""
        certain, maybe = self.frames[-1]
        slot = certain.get(name)
        if slot is None:
            slot = maybe.pop(name, None)
            certain[name] = slot = self._slot() if slot is None else slot
        return slot

    def _resolve(self, name: str) -> tuple[tuple[int, ...], int | None]:
        """Where a reference to ``name`` finds it: the maybe-bound slots
        to try, innermost first, then the slot that certainly holds it —
        ``None`` when only a builtin, or nothing, is left."""
        chain = []
        for certain, maybe in reversed(self.frames):
            if name in certain:
                return tuple(chain), certain[name]
            if name in maybe:
                chain.append(maybe[name])
        if not chain and name not in BUILTINS:
            self.unbound[name] = None
        return tuple(chain), None

    def sequence(self, forms: list, frame: bool = False) -> Thunk:
        """The forms in order, for the value of the last; a sequence is
        not itself a form, so it spends no fuel.  In a ``frame``'s own
        sequence a ``define`` has run before whatever follows it."""
        thunks = []
        for form in forms:
            thunks.append(self.compile(form))
            if (frame and isinstance(form, list)
                    and isinstance(form[0], Symbol) and form[0] == "define"):
                self._bind(str(form[1]))
        if len(thunks) == 1:
            return thunks[0]

        def run(regs, vm):
            result = None
            for thunk in thunks:
                result = thunk(regs, vm)
            return result
        return run

    # -- expression dispatch ------------------------------------------------------

    def compile(self, form: Any) -> Thunk:
        if not isinstance(form, list):
            slot = self._atom_slot(form)
            return self._reference(str(form)) if slot is None else _register(slot)
        if not form:
            raise InterpreterRuntimeError("cannot evaluate the empty form ()")
        head = form[0]
        if isinstance(head, Symbol):
            special = _SPECIAL.get(str(head))
            if special is not None:
                return special(self, form)
        return self._application(form)

    def _reference(self, name: str) -> Thunk:
        """A name some ``define`` may have bound, or nothing binds."""
        chain, slot = self._resolve(name)
        if slot is None and name in BUILTINS:
            slot = self._slot(BUILTINS[name])

        def run(regs, vm):
            vm.fuel = left = vm.fuel - 1
            if left < 0:
                raise out_of_fuel(vm.max_steps)
            for maybe in chain:
                value = regs[maybe]
                if value is not UNBOUND:
                    return value
            if slot is None:
                raise InterpreterRuntimeError(f"unbound variable: {name}")
            return regs[slot]
        return run

    def _atom_slot(self, form: Any) -> int | None:
        """The register an atom that cannot fail is read from: a name's
        certain slot, or one prefilled with the constant or the builtin.
        ``None`` for a name that may be unbound, and for a list."""
        if isinstance(form, Symbol):
            chain, slot = self._resolve(str(form))
            if chain or (slot is None and form not in BUILTINS):
                return None
            return self._slot(BUILTINS[form]) if slot is None else slot
        return None if isinstance(form, list) else self._slot(form)

    def _application(self, form: list) -> Thunk:
        head = form[0]

        def failed(exc: Exception) -> InterpreterRuntimeError:
            return InterpreterRuntimeError(f"error in {to_source(form)}: {exc}")

        if (len(form) == 3 and isinstance(head, Symbol) and head in BUILTINS
                and self._resolve(str(head)) == ((), None)):
            # The shape scripts spend their time in — (+ a b), (< i n) —
            # with no argument list and no head to evaluate or test.
            builtin = BUILTINS[str(head)]
            a, b = self._atom_slot(form[1]), self._atom_slot(form[2])
            if a is not None and b is not None:
                def run(regs, vm):
                    vm.fuel = left = vm.fuel - 4  # form, head, both atoms
                    if left < 0:
                        raise out_of_fuel(vm.max_steps)
                    try:
                        return builtin(regs[a], regs[b])
                    except InterpreterRuntimeError:
                        raise
                    except Exception as exc:
                        raise failed(exc) from exc
                return run
            first, second = self.compile(form[1]), self.compile(form[2])

            def run(regs, vm):
                vm.fuel = left = vm.fuel - 2  # the form and its head
                if left < 0:
                    raise out_of_fuel(vm.max_steps)
                x = first(regs, vm)
                y = second(regs, vm)
                try:
                    return builtin(x, y)
                except InterpreterRuntimeError:
                    raise
                except Exception as exc:
                    raise failed(exc) from exc
            return run

        callee = self.compile(head)
        args = [self.compile(arg) for arg in form[1:]]

        def run(regs, vm):
            vm.fuel = left = vm.fuel - 1
            if left < 0:
                raise out_of_fuel(vm.max_steps)
            fn = callee(regs, vm)
            values = [arg(regs, vm) for arg in args]
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
            return _register(self._slot(datum))

        def run(regs, vm):
            vm.fuel = left = vm.fuel - 1
            if left < 0:
                raise out_of_fuel(vm.max_steps)
            return _strip_symbols(datum)  # a fresh copy per execution
        return run

    def _if(self, form):
        check_shape(form)
        test, then = self.compile(form[1]), self.compile(form[2])
        otherwise = self.compile(form[3]) if len(form) == 4 else None

        def run(regs, vm):
            vm.fuel = left = vm.fuel - 1
            if left < 0:
                raise out_of_fuel(vm.max_steps)
            tested = test(regs, vm)
            if tested is not False and tested is not None:
                return then(regs, vm)
            if otherwise is not None:
                return otherwise(regs, vm)
            return None
        return run

    def _let(self, form):
        check_shape(form)
        resets = self._open([expr for _, expr in form[1]] + form[2:])
        # Sequential: a binding is in scope for the ones after it, and its
        # own expression still reads whatever the name meant outside.
        bindings = [(self.compile(expr), self._bind(str(name)))
                    for name, expr in form[1]]
        body = self.sequence(form[2:], frame=True)
        self.frames.pop()

        def run(regs, vm):
            vm.fuel = left = vm.fuel - 1
            if left < 0:
                raise out_of_fuel(vm.max_steps)
            for slot in resets:
                regs[slot] = UNBOUND
            for expr, slot in bindings:
                regs[slot] = expr(regs, vm)
            return body(regs, vm)
        return run

    def _begin(self, form):
        body = self.sequence(form[1:])

        def run(regs, vm):
            vm.fuel = left = vm.fuel - 1
            if left < 0:
                raise out_of_fuel(vm.max_steps)
            return body(regs, vm)
        return run

    def _and(self, form):
        operands = [self.compile(sub) for sub in form[1:]]

        def run(regs, vm):
            vm.fuel = left = vm.fuel - 1
            if left < 0:
                raise out_of_fuel(vm.max_steps)
            result = True
            for operand in operands:
                result = operand(regs, vm)
                if result is False or result is None:
                    return False
            return result
        return run

    def _or(self, form):
        operands = [self.compile(sub) for sub in form[1:]]

        def run(regs, vm):
            vm.fuel = left = vm.fuel - 1
            if left < 0:
                raise out_of_fuel(vm.max_steps)
            for operand in operands:
                result = operand(regs, vm)
                if result is not False and result is not None:
                    return result
            return False
        return run

    def _set(self, form):
        check_shape(form)
        name, expr = str(form[1]), self.compile(form[2])
        chain, slot = self._resolve(name)
        if not chain and slot is not None:
            def run(regs, vm):
                vm.fuel = left = vm.fuel - 1
                if left < 0:
                    raise out_of_fuel(vm.max_steps)
                regs[slot] = value = expr(regs, vm)
                return value
            return run

        def run(regs, vm):
            vm.fuel = left = vm.fuel - 1
            if left < 0:
                raise out_of_fuel(vm.max_steps)
            value = expr(regs, vm)
            for maybe in chain:
                if regs[maybe] is not UNBOUND:
                    regs[maybe] = value
                    return value
            if slot is None:
                raise InterpreterRuntimeError(
                    f"cannot rebind builtin: {name}" if name in BUILTINS
                    else f"cannot set! unbound variable: {name}")
            regs[slot] = value
            return value
        return run

    def _define(self, form):
        check_shape(form)
        name, expr = str(form[1]), self.compile(form[2])
        certain, maybe = self.frames[-1]
        slot = certain[name] if name in certain else maybe[name]

        def run(regs, vm):
            vm.fuel = left = vm.fuel - 1
            if left < 0:
                raise out_of_fuel(vm.max_steps)
            regs[slot] = value = expr(regs, vm)
            return value
        return run

    def _while(self, form):
        """Loops evaluate for effect; their value is ``nil``."""
        check_shape(form)
        test = self.compile(form[1])
        body = [self.compile(sub) for sub in form[2:]]

        def run(regs, vm):
            vm.fuel = left = vm.fuel - 1
            if left < 0:
                raise out_of_fuel(vm.max_steps)
            while True:
                tested = test(regs, vm)
                if tested is False or tested is None:
                    return None
                for thunk in body:
                    thunk(regs, vm)
        return run

    def _for(self, form):
        check_shape(form)
        source = self.compile(form[2])
        resets = self._open(form[3:])
        target = self._bind(str(form[1]))
        body = self.sequence(form[3:], frame=True)
        self.frames.pop()

        def run(regs, vm):
            vm.fuel = left = vm.fuel - 1
            if left < 0:
                raise out_of_fuel(vm.max_steps)
            items = source(regs, vm)
            if not isinstance(items, list):
                raise InterpreterRuntimeError(
                    f"for: expected a list, got {items!r}")
            for item in items:
                for slot in resets:
                    regs[slot] = UNBOUND
                regs[target] = item
                body(regs, vm)
            return None
        return run

    def _effect(self, form):
        apply, named, exprs = effect_form(form)
        operands = [self.compile(expr) for expr in exprs]

        def run(regs, vm):
            vm.fuel = left = vm.fuel - 1
            if left < 0:
                raise out_of_fuel(vm.max_steps)
            return apply(vm.bridge,
                         named + [operand(regs, vm) for operand in operands])
        return run


def _register(slot: int) -> Thunk:
    def run(regs, vm):
        vm.fuel = left = vm.fuel - 1
        if left < 0:
            raise out_of_fuel(vm.max_steps)
        return regs[slot]
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
    """Compile a method body into :class:`Code`.  ``params`` names the
    values :meth:`VM.run` is given, in order (acquaintance then method
    parameters); of two that share a name the later one is read."""
    compiler = Compiler(len(params))
    compiler._open(body, {name: slot for slot, name in enumerate(params)})
    entry = compiler.sequence(body, frame=True)
    return Code(entry, compiler.registers, len(params),
                tuple(compiler.unbound), to_source(body[0]) if body else "")
