"""Unit tests: the evaluator's special forms, builtins, and fuel limit."""

import pytest

from repro.core.errors import InterpreterRuntimeError
from repro.interp.evaluator import Evaluator, base_env
from repro.interp.parser import parse_one


class NullBridge:
    """An EffectBridge that records calls (no runtime needed)."""

    def __init__(self):
        self.calls = []
        self.printed = []

    def __getattr__(self, name):
        def record(*args):
            self.calls.append((name, args))
            if name == "emit":
                self.printed.append(args[0])
            if name in ("create", "create_actorspace", "new_capability"):
                return f"<{name}-result>"
            if name in ("self_address", "host_space", "reply_addr"):
                return f"<{name}>"
            if name == "now":
                return 12.5
            return None

        return record


def run(src, bridge=None, env=None, max_steps=100_000):
    evaluator = Evaluator(bridge or NullBridge(), max_steps=max_steps)
    return evaluator.eval(parse_one(src), env if env is not None else base_env())


class TestArithmeticAndComparison:
    @pytest.mark.parametrize("src,expected", [
        ("(+ 1 2 3)", 6),
        ("(- 10 3 2)", 5),
        ("(- 4)", -4),
        ("(* 2 3 4)", 24),
        ("(/ 10 4)", 2.5),
        ("(mod 10 3)", 1),
        ("(min 3 1 2)", 1),
        ("(max 3 1 2)", 3),
        ("(abs -4)", 4),
        ("(= 1 1)", True),
        ("(!= 1 2)", True),
        ("(< 1 2 3)", True),
        ("(< 1 3 2)", False),
        ("(>= 3 3 2)", True),
        ("(not false)", True),
        ("(not 0)", False),  # only false/nil are falsy
    ])
    def test_eval(self, src, expected):
        assert run(src) == expected

    def test_division_by_zero(self):
        with pytest.raises(InterpreterRuntimeError):
            run("(/ 1 0)")

    def test_type_errors_are_interpreter_errors(self):
        with pytest.raises(InterpreterRuntimeError):
            run('(+ 1 "two")')

    @pytest.mark.parametrize("src,expected", [
        ("(+ 1 2.5)", 3.5),
        ("(- 1.5 1)", 0.5),
        ("(/ 7 2)", 3.5),
        ("(<= 2 2.0)", True),
        ('(< "a" "b")', True),
    ])
    def test_two_operands_of_exact_type(self, src, expected):
        result = run(src)
        assert result == expected and type(result) is type(expected)

    @pytest.mark.parametrize("src,complaint", [
        ("(+ 1 true)", "+: expected a number, got True"),
        ('(* "a" 2)', "*: expected a number, got 'a'"),
        ("(< true 1)", "<: cannot compare True"),
        ("(> 1 (list))", ">: cannot compare []"),
        ("(/ 1.0 0)", "division by zero"),
        ('(< 1 "a")', "error in (< 1 \"a\"): '<' not supported between "
                      "instances of 'int' and 'str'"),
    ])
    def test_two_operand_fast_path_keeps_the_checks(self, src, complaint):
        with pytest.raises(InterpreterRuntimeError) as err:
            run(src)
        assert str(err.value) == complaint


class TestListsAndStrings:
    @pytest.mark.parametrize("src,expected", [
        ("(list 1 2 3)", [1, 2, 3]),
        ("(cons 0 (list 1))", [0, 1]),
        ("(head (list 7 8))", 7),
        ("(tail (list 7 8 9))", [8, 9]),
        ("(nth (list 5 6) 1)", 6),
        ("(len (list 1 2))", 2),
        ("(append (list 1) (list 2 3))", [1, 2, 3]),
        ("(reverse (list 1 2))", [2, 1]),
        ("(empty? (list))", True),
        ("(range 3)", [0, 1, 2]),
        ("(contains? (list 1 2) 2)", True),
        ('(str "a" 1 "b")', "a1b"),
        ('(split "a,b,c" ",")', ["a", "b", "c"]),
        ("(number? 4)", True),
        ("(number? true)", False),
        ('(string? "x")', True),
        ("(list? (list))", True),
        ("(nil? nil)", True),
    ])
    def test_eval(self, src, expected):
        assert run(src) == expected

    def test_nth_out_of_range(self):
        with pytest.raises(InterpreterRuntimeError):
            run("(nth (list 1) 5)")


class TestSpecialForms:
    def test_if_branches(self):
        assert run("(if true 1 2)") == 1
        assert run("(if false 1 2)") == 2
        assert run("(if false 1)") is None
        assert run("(if 0 1 2)") == 1  # 0 is truthy

    def test_let_scoping(self):
        assert run("(let ((x 1) (y 2)) (+ x y))") == 3
        assert run("(let ((x 1)) (let ((x 2)) x))") == 2

    def test_let_sequential_bindings(self):
        assert run("(let ((x 1) (y (+ x 1))) y)") == 2

    def test_begin_returns_last(self):
        assert run("(begin 1 2 3)") == 3

    def test_and_or_short_circuit(self):
        bridge = NullBridge()
        assert run("(and 1 2 3)") == 3
        assert run("(and 1 false (send-to 1 2))", bridge) is False
        assert bridge.calls == []  # send-to never evaluated
        assert run("(or false nil 7)") == 7
        assert run("(or 1 (send-to 1 2))", bridge) == 1
        assert bridge.calls == []

    def test_define_and_set(self):
        env = base_env()
        run("(define x 10)", env=env)
        assert run("x", env=env) == 10
        run("(set! x 11)", env=env)
        assert run("x", env=env) == 11

    def test_set_unbound_raises(self):
        with pytest.raises(InterpreterRuntimeError):
            run("(set! ghost 1)")

    def test_while_loop(self):
        env = base_env()
        run("(define i 0)", env=env)
        run("(define total 0)", env=env)
        run("(while (< i 5) (set! total (+ total i)) (set! i (+ i 1)))", env=env)
        assert run("total", env=env) == 10

    def test_for_loop(self):
        env = base_env()
        run("(define acc 0)", env=env)
        run("(for x (list 1 2 3) (set! acc (+ acc x)))", env=env)
        assert run("acc", env=env) == 6

    def test_quote_strips_symbols(self):
        assert run("'(a 1 (b))") == ["a", 1, ["b"]]

    def test_unbound_variable(self):
        with pytest.raises(InterpreterRuntimeError):
            run("mystery")

    def test_calling_noncallable(self):
        with pytest.raises(InterpreterRuntimeError):
            run("(1 2 3)")

    def test_empty_form(self):
        with pytest.raises(InterpreterRuntimeError):
            run("()")


class TestFuelLimit:
    def test_infinite_loop_trapped(self):
        with pytest.raises(InterpreterRuntimeError) as err:
            run("(while true 1)", max_steps=1000)
        assert "steps" in str(err.value)

    def test_fuel_resets_per_body(self):
        bridge = NullBridge()
        ev = Evaluator(bridge, max_steps=200)
        body = [parse_one("(+ 1 2)")]
        for _ in range(10):  # 10 bodies, each well under the limit
            assert ev.run_body(body, base_env()) == 3


class TestEffectForms:
    def test_identity_forms(self):
        b = NullBridge()
        assert run("(self)", b) == "<self_address>"
        assert run("(reply-addr)", b) == "<reply_addr>"
        assert run("(host-space)", b) == "<host_space>"
        assert run("(now)", b) == 12.5

    def test_send_forms_route_to_bridge(self):
        b = NullBridge()
        run('(send-to "target" 42)', b)
        run('(send "a/*" (list 1) "rt")', b)
        run('(broadcast "a/**" 2)', b)
        names = [c[0] for c in b.calls]
        assert names == ["send_to", "send_pattern", "broadcast_pattern"]
        assert b.calls[1][1] == ("a/*", [1], "rt")

    def test_become_and_create(self):
        b = NullBridge()
        run("(become worker 1 2)", b)
        assert b.calls[-1] == ("become", ("worker", [1, 2]))
        assert run("(create worker 5)", b) == "<create-result>"

    def test_visibility_forms(self):
        b = NullBridge()
        run('(make-visible (self) "a/b")', b)
        run('(make-invisible (self))', b)
        run('(change-attributes (self) (list "x" "y"))', b)
        names = [c[0] for c in b.calls]
        assert "make_visible" in names
        assert "make_invisible" in names
        assert "change_attributes" in names

    def test_print_emits(self):
        b = NullBridge()
        run('(print "x =" (+ 1 2))', b)
        assert b.printed == ["x = 3"]

    def test_schedule_and_terminate(self):
        b = NullBridge()
        run("(schedule 1.5 'wake)", b)
        run("(terminate)", b)
        assert ("schedule", (1.5, "wake")) in b.calls
        assert ("terminate", ()) in b.calls
