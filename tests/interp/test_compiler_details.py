"""Compiler details not covered by the cross-engine property."""

import pytest

from repro.core.errors import InterpreterRuntimeError
from repro.interp import BehaviorLibrary
from repro.interp.compiler import compile_body
from repro.interp.env import Env
from repro.interp.evaluator import Evaluator, base_env
from repro.interp.parser import parse_one, parse_program
from repro.interp.vm import VM


class NullBridge:
    def __getattr__(self, name):
        return lambda *a: None


def run(src):
    return VM(NullBridge()).run(compile_body([parse_one(src)]), base_env())


class TestCompilation:
    def test_empty_body_yields_nil(self):
        assert VM(NullBridge()).run(compile_body([]), base_env()) is None

    def test_quote_is_fresh_per_execution(self):
        """Mutating a quoted list must not poison later executions."""
        code = compile_body([parse_one("(cons 0 '(1 2))")])
        vm = VM(NullBridge())
        assert vm.run(code, base_env()) == [0, 1, 2]
        assert vm.run(code, base_env()) == [0, 1, 2]

    def test_let_scopes_do_not_leak(self):
        src = "(begin (define x 1) (let ((x 9)) x) x)"
        assert run(src) == 1

    def test_nested_for_loops(self):
        src = ("(begin (define pairs 0)"
               " (for a (range 3) (for b (range 3)"
               "   (set! pairs (+ pairs 1))))"
               " pairs)")
        assert run(src) == 9

    def test_compile_errors_surface_at_compile_time(self):
        for bad in ("(if)", "(let (x) 1)", "(set! 1 2)", "(become 42)",
                    "(send-to 1)", "()"):
            with pytest.raises(InterpreterRuntimeError):
                compile_body([parse_one(bad)])

    def test_builtin_rebinding_rejected_in_both_engines(self):
        src = "(set! + 42)"
        with pytest.raises(InterpreterRuntimeError):
            run(src)
        with pytest.raises(InterpreterRuntimeError):
            Evaluator(NullBridge()).run_body([parse_one(src)], base_env())

    def test_shadowing_a_builtin_locally_is_allowed(self):
        # define creates a new binding in the local frame: fine.
        assert run("(begin (define max 5) max)") == 5

    def test_code_is_one_callable_per_body(self):
        """The compiled form is a closure, not an instruction list."""
        code = compile_body(parse_program("(define n 2) (* n 21)"))
        vm = VM(NullBridge())
        assert callable(code.entry)
        assert code.entry(base_env(), vm) == vm.run(code, base_env()) == 42
        assert repr(code) == "<Code '(define n 2)'>"

    def test_every_form_in_one_place(self):
        """Both engines know the same special forms and no others."""
        from repro.interp import compiler, evaluator
        from repro.interp.effects import EFFECT_FORMS

        assert set(compiler._SPECIAL) == set(evaluator._SPECIAL)
        assert set(EFFECT_FORMS) < set(evaluator._SPECIAL)


class TestScopePass:
    """A builtin nothing can rebind is bound at compile time; every
    other name is looked up in the Env at run time."""

    def run_without_builtins(self, src, params=()):
        code = compile_body([parse_one(src)], params)
        return VM(NullBridge()).run(code, Env(dict.fromkeys(params, 7)))

    def test_unshadowed_builtins_never_touch_the_env(self):
        assert self.run_without_builtins("(+ 1 (max 2 3))") == 4
        assert self.run_without_builtins("(list + 1)")[1] == 1

    @pytest.mark.parametrize("src", [
        "(begin (+ 1 2) (let ((+ 1)) +))",       # a let target, anywhere
        "(begin (+ 1 2) (define + 1))",          # a define target
        "(begin (+ 1 2) (for + (list) 1))",      # a for target
    ])
    def test_a_body_that_binds_the_name_looks_it_up(self, src):
        with pytest.raises(InterpreterRuntimeError, match="unbound variable: \\+"):
            self.run_without_builtins(src)

    def test_parameters_are_rebindable(self):
        assert self.run_without_builtins("max", params=("max",)) == 7
        with pytest.raises(InterpreterRuntimeError, match="not callable: max"):
            self.run_without_builtins("(max 1 2)", params=("max",))

    def test_acquaintance_named_like_a_builtin_wins(self):
        lib = BehaviorLibrary()
        lib.load("(behavior b (max) (method m (min) (list max min)))")
        definition = lib.get("b")
        code = lib.compiled("b", definition.method("m"), definition.params)
        env = base_env().child({"max": 1}).child({"min": 2})
        assert VM(NullBridge()).run(code, env) == [1, 2]
        assert Evaluator(NullBridge()).run_body(
            list(definition.method("m").body), env) == [1, 2]


class TestCacheBehavior:
    def test_compiled_cache_is_per_method(self):
        lib = BehaviorLibrary()
        lib.load("""
        (behavior b ()
          (method one () 1)
          (method two () 2))
        """)
        definition = lib.get("b")
        c1 = lib.compiled("b", definition.method("one"))
        c2 = lib.compiled("b", definition.method("two"))
        assert c1 is not c2
        assert lib.compiled("b", definition.method("one")) is c1

    def test_reload_drops_only_that_behavior(self):
        lib = BehaviorLibrary()
        lib.load("""
        (behavior keep () (method m () 1))
        (behavior swap () (method m () 1))
        """)
        kept = lib.compiled("keep", lib.get("keep").method("m"))
        swapped = lib.compiled("swap", lib.get("swap").method("m"))
        lib.load("(behavior swap () (method m () 2))")
        assert lib.compiled("keep", lib.get("keep").method("m")) is kept
        assert lib.compiled("swap", lib.get("swap").method("m")) is not swapped
