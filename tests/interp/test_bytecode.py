"""Tests: the compiled engine (section 7's planned extension).

Includes the cross-engine equivalence property: random programs produce
the same value, the same effects and the same error — and run out of
fuel at the same form — under the tree walker and the compiled closures.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import InterpreterRuntimeError
from repro.interp import BehaviorLibrary, InterpretedBehavior
from repro.interp.compiler import compile_body
from repro.interp.evaluator import Evaluator, base_env
from repro.interp.parser import parse_one
from repro.interp.vm import VM
from repro.runtime.network import Topology
from repro.runtime.system import ActorSpaceSystem


class NullBridge:
    def __init__(self):
        self.printed = []
        self.calls = []

    def __getattr__(self, name):
        def record(*args):
            self.calls.append((name, args))
            if name == "emit":
                self.printed.append(args[0])
            if name == "now":
                return 1.5
            if name in ("self_address", "host_space", "reply_addr"):
                return f"<{name}>"
            if name in ("create", "create_actorspace", "new_capability"):
                return f"<{name}>"
            return None

        return record


def run_tree(src, bridge=None, max_steps=100_000):
    return Evaluator(bridge or NullBridge(), max_steps).run_body(
        [parse_one(src)], base_env())


def run_vm(src, bridge=None, max_steps=100_000):
    code = compile_body([parse_one(src)])
    return VM(bridge or NullBridge(), max_steps).run(code, [])


def outcome(run, src, max_steps=100_000):
    """What a run can be observed to do: its value or the text of its
    error, and every bridge call it made on the way."""
    bridge = NullBridge()
    try:
        result = ("value", run(src, bridge, max_steps))
    except InterpreterRuntimeError as exc:
        result = ("error", str(exc))
    return result, bridge.calls


EXPRESSIONS = [
    "(+ 1 2 3)",
    "(- 10 (/ 8 2))",
    "(if (> 3 2) 'yes 'no)",
    "(if false 1)",
    "(let ((x 2) (y (* x 3))) (+ x y))",
    "(begin 1 2 (list 3 4))",
    "(and 1 2 3)",
    "(and 1 false 3)",
    "(and)",
    "(or false nil 7)",
    "(or false nil)",
    "(or)",
    "(begin (define n 0) (while (< n 5) (set! n (+ n 1))) n)",
    "(begin (define acc 0) (for x (list 1 2 3) (set! acc (+ acc x))) acc)",
    "(begin (define total 0) (for x (range 4) (for y (range x) (set! total (+ total 1)))) total)",
    "'(a 1 (b 2))",
    "(str \"n=\" (+ 1 1))",
    "(nth (reverse (list 1 2 3)) 0)",
    "(let ((x 1)) (let ((x 2)) x))",
    "(while false 1)",
    "(contains? (append (list 1) (list 2)) 2)",
    "(let ((+ -)) (+ 3 1))",
    "(begin (define max 5) max)",
    "(let ((+ -)) (set! + *) (+ 3 2))",
    "((if true + -) 3 2)",
    "(< 1.5 2)",
    '(< "a" "b")',
]

#: 200 forms deep: neither engine may lean on Python's stack more than
#: a few frames per level.
DEEP = "(+ 1 " * 100 + "(if true " * 100 + "1" + " 0)" * 100 + ")" * 100


class TestCrossEngineFixedCases:
    @pytest.mark.parametrize("src", EXPRESSIONS)
    def test_same_result(self, src):
        assert run_tree(src) == run_vm(src)

    @pytest.mark.parametrize("src", [
        "(/ 1 0)",
        "(head (list))",
        "unbound",
        "(1 2)",
        "(set! ghost 1)",
        "(for x 42 x)",
        '(< 1 "a")',
        "(+ 1 true)",
        "(mod 1 0)",
        "(set! + 42)",
        "(begin (define max 5) (max 1 2))",
        "(self 1 2)",
        "(terminate 1)",
        "(now 1)",
        "(new-capability 1)",
        "(become 42)",
        "(let (x) 1)",
        "()",
    ])
    def test_same_errors(self, src):
        with pytest.raises(InterpreterRuntimeError) as tree_error:
            run_tree(src)
        with pytest.raises(InterpreterRuntimeError) as vm_error:
            run_vm(src)
        assert str(vm_error.value) == str(tree_error.value)
        assert " at 0x" not in str(vm_error.value)

    def test_deeply_nested_form(self):
        assert run_tree(DEEP) == run_vm(DEEP) == 101

    def test_effects_agree(self):
        src = """(begin (print "a" 1) (send-to (self) (list 1)) (schedule 1 2)
                   (send "p/*" 1) (broadcast "p/**" 2 (reply-addr))
                   (make-visible (create w 1) "a" (create-actorspace))
                   (make-invisible (self) (host-space) (new-capability))
                   (change-attributes (self) (list "b")) (now)
                   (become w (now)) (terminate))"""
        tree_bridge, vm_bridge = NullBridge(), NullBridge()
        run_tree(src, tree_bridge)
        run_vm(src, vm_bridge)
        assert tree_bridge.calls == vm_bridge.calls
        assert tree_bridge.printed == vm_bridge.printed

    def test_vm_fuel_limit(self):
        code = compile_body([parse_one("(while true 1)")])
        with pytest.raises(InterpreterRuntimeError):
            VM(NullBridge(), max_steps=500).run(code, [])

    def test_fuel_buys_the_same_work_under_both_engines(self):
        """``max_steps`` counts forms evaluated, whichever engine runs."""
        loop = "(begin (define n 0) (while (< n 30) (set! n (+ n 1))) n)"
        assert outcome(run_tree, loop, 279) == outcome(run_vm, loop, 279)
        assert outcome(run_vm, loop, 279)[0] == ("value", 30)
        assert outcome(run_tree, loop, 278) == outcome(run_vm, loop, 278)
        assert outcome(run_vm, loop, 278)[0] == (
            "error", "script exceeded 278 evaluation steps")


class TestStaticResolutionPinned:
    """The shapes a change to the compiler's name resolution breaks
    first, each with the answer the tree walker gives."""

    @pytest.mark.parametrize("src, expected", [
        # sequential let: an init reads what its name meant outside
        ("(let ((x 1)) (let ((x (+ x 1))) x))", ("value", 2)),
        # a define that did not run binds nothing
        ("(begin (if false (define w 1)) w)",
         ("error", "unbound variable: w")),
        # a for body is a new frame per item
        ("(begin (for i (list 1 2) (if (= i 1) (define q i)) q) 0)",
         ("error", "unbound variable: q")),
        # a let that a while re-enters starts with its defines unbound:
        # the second pass must not see the first pass's 7
        ("(let ((k 0)) (while (< k 2) (let ((a k)) (if (= a 0) (define b 7))"
         " (set! k (+ k 1)) b)))", ("error", "unbound variable: b")),
        # the builtins frame is frozen; a local of the same name is not
        ("(set! max 1)", ("error", "cannot rebind builtin: max")),
        ("(begin (define max 5) (set! max 6) max)", ("value", 6)),
        # an inner define shadows for one item, then the outer is back
        ("(let ((x 1)) (for i (list 1 2) (if (= i 1) (define x 10))"
         " (set! x (+ x 1))) x)", ("value", 2)),
        # a define inside one let init is seen by the next
        ("(let ((a (if true (define b 1) 2)) (b (+ b 1))) b)", ("value", 2)),
        # a for's list is evaluated outside the frame its body gets
        ("(begin (for i (begin (define z 4) (list 1 2)) z) z)", ("value", 4)),
        # quoted data defines nothing
        ("(begin '(define w 1) w)", ("error", "unbound variable: w")),
    ])
    def test_both_engines_give_the_walkers_answer(self, src, expected):
        assert outcome(run_tree, src)[0] == expected
        assert outcome(run_vm, src) == outcome(run_tree, src)

    @pytest.mark.parametrize("engine", ["tree", "bytecode"])
    def test_a_message_parameter_shadows_an_acquaintance_of_its_name(
            self, engine):
        system = ActorSpaceSystem(seed=0)
        lib = BehaviorLibrary()
        lib.load("(behavior b (v w) (method m (v) (print v w)))")
        actor = system.create_actor(
            InterpretedBehavior(lib, lib.get("b"), ["acq-v", "acq-w"],
                                engine=engine))
        system.send_to(actor, ["m", "param-v"])
        system.run()
        assert system.actor_record(actor).behavior.output == ["param-v acq-w"]


# -- property: random programs agree ---------------------------------------------

ARITH = ["+", "-", "*", "max", "min"]
#: ``program()`` binds x, y and z; nothing binds ``w`` but the program
#: itself, so a reference to it may find it unbound, or bound by a
#: ``define`` that may or may not have run.
VARS = ["x", "y", "z", "w"]


def _form(template, *parts):
    return st.tuples(*parts).map(lambda t: template.format(*t))


def exprs(depth=3):
    """Programs over ``x``, ``y``, ``z`` and the free ``w``: arithmetic
    and comparisons, every control form, assignment, quoted data,
    effects — and the shapes static name resolution can get wrong:
    conditional and bare ``define``s, ``let`` bindings that read each
    other's names, loops whose bodies ``define`` and are re-entered, a
    variable in head position, and builtin names as ``let``, ``define``
    and ``for`` targets."""
    ints = st.integers(-20, 20)
    atoms = st.one_of(ints, st.sampled_from(VARS), st.booleans().map(
        lambda b: "true" if b else "false"))
    if depth == 0:
        return atoms
    sub = exprs(depth - 1)
    binop = st.sampled_from(ARITH)
    cmp_ = st.sampled_from(["<", ">", "=", "<=", ">="])
    var = st.sampled_from(VARS)
    name = st.sampled_from(VARS + ARITH)
    turns = st.integers(0, 3)

    return st.one_of(
        atoms,
        _form("({} {} {})", binop, sub, sub),
        _form("({} {} {})", cmp_, sub, sub),
        _form("({} {} {})", var, sub, sub),
        _form("(if {} {} {})", sub, sub, sub),
        _form("(if {} (define {} {}) {})", sub, name, sub, sub),
        _form("(and {} {})", sub, sub),
        _form("(or {} {})", sub, sub),
        _form("(let (({} {})) {})", name, sub, sub),
        _form("(let (({} {}) ({} {})) {} {})", var, sub, var, sub, sub, sub),
        _form("(begin {} {})", sub, sub),
        _form("(begin {} {} {})", sub, sub, sub),
        _form("(list {} 1)", sub),
        _form("(set! {} {})", name, sub),
        _form("(define {} {})", name, sub),
        _form("(begin (define {} {}) {})", name, sub, sub),
        _form("(let ((k 0)) (while (< k {}) (set! k (+ k 1)) {} {}) k)",
              turns, sub, sub),
        _form("(for {} (range {}) {} {})", name, turns, sub, sub),
        _form("(cons {} '(a 1 (b 2)))", sub),
        _form("(len '({} b))", var),
        _form("(begin (print {}) (send-to (self) {}))", sub, sub),
        _form("(let (({} {})) {})", binop, binop, sub),
    )


def program(inner):
    return f"(let ((x 3) (y 5) (z 7)) {inner})"


def scopes(name):
    """A loop over ``k`` around an optional inner frame (a ``let``, a
    ``for``) around statements that bind, shadow, assign and read the
    names ``name`` draws.  Loops evaluate to nil, so the statements print
    what the names hold; a ``define`` that runs on one turn only is what
    a stale register would keep for the next."""
    turn = st.integers(0, 2)
    value = st.one_of(st.integers(0, 9), name, _form("(+ {} {})", name, turn))
    once = _form("(if (= k {}) (define {} {}))", turn, name, value)
    body = st.lists(st.one_of(
        once, once,
        _form("(print {})", name),
        _form("(print (+ {} {}))", name, turn),
        _form("(print ({} {} 1))", name, name),
        _form("(define {} {})", name, value),
        _form("(set! {} {})", name, value),
    ), min_size=2, max_size=5).map(" ".join)
    init = st.one_of(value, _form("(begin {} {})", once, name))
    frame = st.one_of(
        body,
        _form("(let (({} {}) ({} {})) {})", name, init, name, init, body),
        _form("(for {} (range 2) {})", name, body),
        _form("(if (= k {}) (begin {}) (begin {}))", turn, body, body),
    )
    return st.one_of(
        _form("(let ((x 3) (k 0)) {} (for k (range 3) {}) (print x k))",
              body, frame),
        _form("(let ((x 3) (k 0)) (while (< k 3) {} (set! k (+ k 1)))"
              " (print x k))", frame),
    )


#: What each example of the two properties draws: a general program, and
#: a scoping puzzle over one or two of a name bound outside, a name
#: nothing binds and a builtin (so few that a ``define`` and a read meet).
PROGRAMS = st.tuples(
    exprs().map(program),
    st.lists(st.sampled_from(["x", "w", "max"]), min_size=1, max_size=2)
    .flatmap(lambda names: scopes(st.sampled_from(names))))


#: 400 examples a property in tier-1; a profile that asks for more (the
#: ``conformance`` one of conftest.py) gets what it asks for.
PROPERTY = settings(deadline=None,
                    max_examples=max(400, settings.default.max_examples))


@given(PROGRAMS)
@PROPERTY
def test_engines_agree_on_random_programs(programs):
    for src in programs:
        assert outcome(run_vm, src) == outcome(run_tree, src)


@given(PROGRAMS, st.integers(0, 150))
@PROPERTY
def test_engines_run_out_of_fuel_at_the_same_form(programs, max_steps):
    """Same value, or the same error — the fuel error included — after
    the same effects, for any budget."""
    for src in programs:
        assert (outcome(run_vm, src, max_steps)
                == outcome(run_tree, src, max_steps))


# -- end-to-end: bytecode actors in the runtime --------------------------------------


COUNTER = """
(behavior counter (count)
  (method incr (by) (become counter (+ count by)))
  (method query () (send-to (reply-addr) count)))
"""


class TestBytecodeActors:
    def test_counter_runs_compiled(self):
        system = ActorSpaceSystem(topology=Topology.lan(2), seed=0)
        lib = BehaviorLibrary()
        lib.load(COUNTER)
        actor = system.create_actor(
            InterpretedBehavior(lib, lib.get("counter"), [0],
                                engine="bytecode"))
        got = []
        probe = system.create_actor(lambda ctx, m: got.append(m.payload))
        for _ in range(3):
            system.send_to(actor, ["incr", 4])
            system.run()
        system.send_to(actor, ["query"], reply_to=probe)
        system.run()
        assert got == [12]
        # become preserved the engine across behavior replacement.
        assert system.actor_record(actor).behavior.engine == "bytecode"

    def test_engine_inherited_by_created_children(self):
        system = ActorSpaceSystem(seed=0)
        lib = BehaviorLibrary()
        lib.load("""
        (behavior parent ()
          (method go () (create child 1)))
        (behavior child (v)
          (method noop () v))
        """)
        parent = system.create_actor(
            InterpretedBehavior(lib, lib.get("parent"), [], engine="bytecode"))
        system.send_to(parent, ["go"])
        system.run()
        children = [
            r.behavior for c in system.coordinators
            for r in c.actors.values()
            if isinstance(r.behavior, InterpretedBehavior)
            and r.behavior.definition.name == "child"
        ]
        assert children and all(b.engine == "bytecode" for b in children)

    def test_hot_reload_invalidates_code_cache(self):
        system = ActorSpaceSystem(seed=0)
        lib = BehaviorLibrary()
        lib.load("(behavior b () (method m () (print \"v1\")))")
        actor = system.create_actor(
            InterpretedBehavior(lib, lib.get("b"), [], engine="bytecode"))
        system.send_to(actor, ["m"])
        system.run()
        lib.load("(behavior b () (method m () (print \"v2\")))")
        fresh = system.create_actor(
            InterpretedBehavior(lib, lib.get("b"), [], engine="bytecode"))
        system.send_to(fresh, ["m"])
        system.run()
        out_old = system.actor_record(actor).behavior.output
        out_new = system.actor_record(fresh).behavior.output
        assert out_old == ["v1"]
        assert out_new == ["v2"]

    @pytest.mark.parametrize("engine", ["tree", "bytecode"])
    def test_actor_of_a_replaced_definition_keeps_its_own_code(self, engine):
        """An old actor dispatching after a re-load must neither run the
        new code nor leave its own in the cache for new actors."""
        system = ActorSpaceSystem(seed=0)
        lib = BehaviorLibrary()
        lib.load("(behavior b (tag) (method m () (print tag \"v1\")))")
        old = system.create_actor(
            InterpretedBehavior(lib, lib.get("b"), ["old"], engine=engine))
        lib.load("(behavior b (max) (method m () (print (max 1 2) \"v2\")))")
        new = system.create_actor(
            InterpretedBehavior(lib, lib.get("b"), [min], engine=engine))
        for actor in (old, new, old):
            system.send_to(actor, ["m"])
            system.run()
        assert system.actor_record(old).behavior.output == ["old v1"] * 2
        assert system.actor_record(new).behavior.output == ["1 v2"]

    def test_unknown_engine_rejected(self):
        lib = BehaviorLibrary()
        lib.load(COUNTER)
        with pytest.raises(ValueError):
            InterpretedBehavior(lib, lib.get("counter"), [0], engine="jit")

    def test_prelude_runs_under_bytecode(self):
        from repro.interp.prelude import load_prelude

        system = ActorSpaceSystem(topology=Topology.lan(2), seed=0)
        lib = load_prelude()
        got = []
        probe = system.create_actor(lambda ctx, m: got.append(m.payload))
        cell = system.create_actor(
            InterpretedBehavior(lib, lib.get("cell"), [7], engine="bytecode"))
        system.send_to(cell, ["swap", 9], reply_to=probe)
        system.run()
        system.send_to(cell, ["get"], reply_to=probe)
        system.run()
        assert got == [7, 9]
