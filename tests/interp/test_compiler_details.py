"""Compiler details not covered by the cross-engine property."""

import pytest

from repro.core.errors import InterpreterRuntimeError
from repro.interp import BehaviorLibrary
from repro.interp.compiler import compile_body
from repro.interp.evaluator import Evaluator, base_env
from repro.interp.parser import parse_one, parse_program
from repro.interp.vm import VM


class NullBridge:
    def __getattr__(self, name):
        return lambda *a: None


def run(src):
    return VM(NullBridge()).run(compile_body([parse_one(src)]), [])


class TestCompilation:
    def test_empty_body_yields_nil(self):
        assert VM(NullBridge()).run(compile_body([]), []) is None

    def test_quote_is_fresh_per_execution(self):
        """Mutating a quoted list must not poison later executions."""
        code = compile_body([parse_one("(cons 0 '(1 2))")])
        vm = VM(NullBridge())
        assert vm.run(code, []) == [0, 1, 2]
        assert vm.run(code, []) == [0, 1, 2]

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
        assert code.entry(list(code.registers), vm) == vm.run(code, []) == 42
        assert repr(code) == "<Code '(define n 2)'>"

    def test_every_form_in_one_place(self):
        """Both engines know the same special forms and no others."""
        from repro.interp import compiler, evaluator
        from repro.interp.effects import EFFECT_FORMS

        assert set(compiler._SPECIAL) == set(evaluator._SPECIAL)
        assert set(EFFECT_FORMS) < set(evaluator._SPECIAL)


class TestScopePass:
    """Every name's home is decided at compile time: a register, the
    builtin itself, or nothing."""

    def run_with(self, src, params=()):
        code = compile_body([parse_one(src)], params)
        return code, VM(NullBridge()).run(code, [7] * len(params))

    def test_unshadowed_builtins_never_touch_the_env(self):
        """Bound at compile time: nothing to look up, so the registers
        of a body over builtins and constants hold no name at all."""
        from repro.interp.builtins import BUILTINS

        code, value = self.run_with("(+ 1 (max 2 3))")
        assert value == 4 and set(code.registers) == {1, 2, 3}
        code, value = self.run_with("(list + 1)")
        assert value[1] == 1 and code.registers == [BUILTINS["+"], 1]

    @pytest.mark.parametrize("src", [
        "(begin (+ 1 2) (let ((+ 1)) +))",       # a let target, anywhere
        "(begin (+ 1 2) (define + 1))",          # a define target
        "(begin (+ 1 2) (for + (list) 1))",      # a for target
    ])
    def test_a_body_that_binds_the_name_looks_it_up(self, src):
        """Where the name is the builtin it is called; where the body
        has bound it, it is the value — as the walker resolves it."""
        code, value = self.run_with(src)
        assert value == Evaluator(NullBridge()).run_body(
            [parse_one(src)], base_env())
        assert code.registers  # the binding has a home of its own

    def test_parameters_are_rebindable(self):
        assert self.run_with("max", params=("max",))[1] == 7
        with pytest.raises(InterpreterRuntimeError, match="not callable: max"):
            self.run_with("(max 1 2)", params=("max",))

    def test_acquaintance_named_like_a_builtin_wins(self):
        lib = BehaviorLibrary()
        lib.load("(behavior b (max) (method m (min) (list max min)))")
        definition = lib.get("b")
        code = lib.compiled("b", definition.method("m"), definition.params)
        assert VM(NullBridge()).run(code, [1, 2]) == [1, 2]
        env = base_env().child({"max": 1}).child({"min": 2})
        assert Evaluator(NullBridge()).run_body(
            definition.method("m").body, env) == [1, 2]

    def test_a_message_parameter_shadows_an_acquaintance_of_its_name(self):
        code = compile_body([parse_one("(list v w)")], ("v", "w", "v"))
        assert VM(NullBridge()).run(code, [1, 2, 3]) == [3, 2]

    def test_wrong_number_of_values_is_refused(self):
        code = compile_body([parse_one("v")], ("v",))
        with pytest.raises(InterpreterRuntimeError, match="takes 1 values"):
            VM(NullBridge()).run(code, [])


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


class TestUnboundNames:
    """``Code.unbound``: the names no parameter, ``let``, ``for``,
    ``define`` or builtin can bind — the first slice of ``repro lint``."""

    @staticmethod
    def shipped_scripts():
        import importlib
        import importlib.util
        import pathlib

        from repro.interp.prelude import PRELUDE_SOURCE

        yield "interp/prelude.py", PRELUDE_SOURCE
        examples = pathlib.Path(__file__).resolve().parents[2] / "examples"
        for stem, names in (("script_pool", ["POOL_SCRIPTS"]),
                            ("script_actors", ["SCRIPTS", "UPGRADE"])):
            spec = importlib.util.spec_from_file_location(
                f"{stem}_example", examples / f"{stem}.py")
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            for name in names:
                yield f"examples/{stem}.py::{name}", getattr(module, name)
        e13 = importlib.import_module("benchmarks.test_bench_e13_interp")
        yield "benchmarks/test_bench_e13_interp.py::SCRIPTS", e13.SCRIPTS

    @staticmethod
    def unbound_names(source):
        lib = BehaviorLibrary()
        return {
            f"{definition.name}.{method.name}": code.unbound
            for definition in lib.load(source)
            for method in definition.methods.values()
            for code in [lib.compiled(definition.name, method,
                                      definition.params)]
            if code.unbound}

    def test_no_shipped_script_names_what_nothing_binds(self):
        checked = 0
        for where, source in self.shipped_scripts():
            assert self.unbound_names(source) == {}, where
            checked += 1
        assert checked == 5

    def test_a_planted_typo_is_reported(self):
        source = """
        (behavior s-worker (grain)
          (method job (lo hi)
            (let ((i lo) (total 0))
              (while (< i hi)
                (set! totl (+ total i))
                (set! i (+ i 1)))
              (send-to (reply-addr) (list grian total)))))
        """
        assert self.unbound_names(source) == {
            "s-worker.job": ("totl", "grian")}

    def test_a_name_some_define_may_bind_is_not_reported(self):
        code = compile_body(parse_program("(if p (define w 1)) w ghost"),
                            ("p",))
        assert code.unbound == ("ghost",)
