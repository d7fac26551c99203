"""Interpreter error paths: scripts that fail must fail loudly and locally."""

import pytest

from repro.core.errors import InterpreterRuntimeError, InterpreterSyntaxError
from repro.interp import BehaviorLibrary, InterpretedBehavior
from repro.interp.evaluator import Evaluator, base_env
from repro.interp.parser import parse_one
from repro.runtime.network import Topology
from repro.runtime.system import ActorSpaceSystem


class NullBridge:
    def __getattr__(self, name):
        def record(*args):
            return None

        return record


def run(src, max_steps=10_000):
    return Evaluator(NullBridge(), max_steps=max_steps).eval(
        parse_one(src), base_env())


class TestEvaluatorErrors:
    @pytest.mark.parametrize("src", [
        "(let (x 1) x)",             # bad binding shape
        "(let ((1 2)) 1)",           # non-symbol binding name
        "(if)",                      # arity
        "(if 1 2 3 4)",
        "(set! 42 1)",               # non-symbol set!
        "(quote)",                   # arity
        "(become 42)",               # non-symbol behavior name
        "(for 1 (list) 2)",          # non-symbol loop var
        '(send-to "x")',             # arity
        "(head (list))",             # empty list
        "(mod 1 0)",                 # modulo by zero
    ])
    def test_raises_interpreter_error(self, src):
        with pytest.raises(InterpreterRuntimeError):
            run(src)

    def test_for_requires_list(self):
        with pytest.raises(InterpreterRuntimeError):
            run("(for x 42 x)")

    def test_error_message_mentions_source(self):
        with pytest.raises(InterpreterRuntimeError) as err:
            run("(nth (list 1 2) 99)")
        assert "nth" in str(err.value)


class TestActorLevelFailures:
    def _system(self):
        return ActorSpaceSystem(topology=Topology.lan(2), seed=0)

    def _spawn(self, system, script, name, args):
        lib = BehaviorLibrary()
        lib.load(script)
        return system.create_actor(
            InterpretedBehavior(lib, lib.get(name), args)), lib

    def test_runtime_error_kills_only_the_failing_actor(self):
        system = self._system()
        bad, _lib = self._spawn(system, """
        (behavior bad ()
          (method boom () (/ 1 0)))
        """, "bad", [])
        healthy_got = []
        healthy = system.create_actor(
            lambda ctx, m: healthy_got.append(m.payload))
        system.send_to(bad, ["boom"])
        system.send_to(healthy, "still-fine")
        system.run()
        assert system.actor_record(bad) is None
        assert healthy_got == ["still-fine"]

    def test_become_unknown_behavior_fails_at_call_time(self):
        system = self._system()
        actor, _lib = self._spawn(system, """
        (behavior shifty ()
          (method go () (become ghost)))
        """, "shifty", [])
        system.send_to(actor, ["go"])
        system.run()
        assert system.actor_record(actor) is None

    def test_infinite_script_is_fuel_limited(self):
        system = self._system()
        actor, _lib = self._spawn(system, """
        (behavior spinner ()
          (method spin () (while true 1)))
        """, "spinner", [])
        record = system.actor_record(actor)
        record.behavior.max_steps = 2_000  # keep the test fast
        system.send_to(actor, ["spin"])
        system.run()
        assert record.terminated
        assert system.actor_record(actor) is None
        assert any(k.startswith("behavior_error")
                   for k in system.tracer.dropped)

    def test_send_with_non_string_destination(self):
        system = self._system()
        actor, _lib = self._spawn(system, """
        (behavior bad-sender ()
          (method go () (send 42 "payload")))
        """, "bad-sender", [])
        system.send_to(actor, ["go"])
        system.run()
        assert system.actor_record(actor) is None

    def test_reply_addr_without_reply_to(self):
        system = self._system()
        actor, _lib = self._spawn(system, """
        (behavior needs-reply ()
          (method q () (send-to (reply-addr) 1)))
        """, "needs-reply", [])
        system.send_to(actor, ["q"])  # no reply_to given
        system.run()
        assert system.actor_record(actor) is None

    def test_bad_attribute_types_rejected(self):
        system = self._system()
        actor, _lib = self._spawn(system, """
        (behavior bad-attrs ()
          (method go () (make-visible (self) 42)))
        """, "bad-attrs", [])
        system.send_to(actor, ["go"])
        system.run()
        assert system.actor_record(actor) is None
