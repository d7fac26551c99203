"""Tests: behavior definitions, the library, and interpreted actors end to end."""

import pytest

from repro.core.errors import InterpreterRuntimeError, InterpreterSyntaxError
from repro.interp.behavior_loader import BehaviorLibrary, parse_behavior
from repro.interp.actor_interface import InterpretedBehavior
from repro.interp.parser import parse_one
from repro.runtime.network import Topology
from repro.runtime.system import ActorSpaceSystem


COUNTER = """
(behavior counter (count)
  (method incr (by) (become counter (+ count by)))
  (method query () (send-to (reply-addr) count)))
"""


class TestBehaviorParsing:
    def test_parse_counter(self):
        lib = BehaviorLibrary()
        [definition] = lib.load(COUNTER)
        assert definition.name == "counter"
        assert definition.params == ("count",)
        assert set(definition.methods) == {"incr", "query"}
        assert definition.method("incr").params == ("by",)

    def test_reload_replaces(self):
        lib = BehaviorLibrary()
        lib.load("(behavior b () (method m () 1))")
        lib.load("(behavior b () (method m () 2))")
        assert lib.get("b").method("m").body == (2,)

    def test_unknown_behavior(self):
        with pytest.raises(InterpreterSyntaxError):
            BehaviorLibrary().get("ghost")

    def test_malformed_behaviors_rejected(self):
        for bad in [
            "(behavior)",
            "(behavior 42 ())",
            "(behavior b (x x) )",          # duplicate params
            "(behavior b () (method))",
            "(behavior b () (method m))",
            "(behavior b () (notmethod m () 1))",
            '(behavior b ("s") (method m () 1))',  # non-symbol param
        ]:
            with pytest.raises(InterpreterSyntaxError):
                parse_behavior(parse_one(bad))

    def test_duplicate_methods_rejected(self):
        with pytest.raises(InterpreterSyntaxError):
            parse_behavior(parse_one(
                "(behavior b () (method m () 1) (method m () 2))"))

    def test_names_listing(self):
        lib = BehaviorLibrary()
        lib.load("(behavior z () (method m () 1)) (behavior a () (method m () 1))")
        assert lib.names() == ["a", "z"]
        assert "a" in lib and "nope" not in lib


class TestInterpretedActors:
    def _system(self):
        return ActorSpaceSystem(topology=Topology.lan(2), seed=0)

    def _counter(self, system, lib=None, start=0):
        lib = lib or BehaviorLibrary()
        if "counter" not in lib:
            lib.load(COUNTER)
        return system.create_actor(
            InterpretedBehavior(lib, lib.get("counter"), [start]))

    def test_state_threads_through_become(self):
        system = self._system()
        counter = self._counter(system)
        got = []
        probe = system.create_actor(lambda ctx, m: got.append(m.payload))
        for _ in range(4):
            system.send_to(counter, ["incr", 3])
            system.run()
        system.send_to(counter, ["query"], reply_to=probe)
        system.run()
        assert got == [12]

    def test_wrong_acquaintance_arity(self):
        lib = BehaviorLibrary()
        lib.load(COUNTER)
        with pytest.raises(InterpreterRuntimeError):
            InterpretedBehavior(lib, lib.get("counter"), [1, 2])

    def test_unknown_method_kills_actor_not_system(self):
        system = self._system()
        counter = self._counter(system)
        system.send_to(counter, ["no-such-method"])
        system.run()
        assert system.actor_record(counter) is None
        assert any(k.startswith("behavior_error") for k in system.tracer.dropped)

    def test_bad_payload_shape_rejected(self):
        system = self._system()
        counter = self._counter(system)
        system.send_to(counter, 42)  # not [method, ...]
        system.run()
        assert system.actor_record(counter) is None

    def test_wrong_method_arity_rejected(self):
        system = self._system()
        counter = self._counter(system)
        system.send_to(counter, ["incr"])  # missing arg
        system.run()
        assert system.actor_record(counter) is None

    def test_interpreted_actor_uses_patterns(self):
        system = self._system()
        lib = BehaviorLibrary()
        lib.load("""
        (behavior publisher ()
          (method announce (what)
            (broadcast "listeners/**" (list "news" what))))
        """)
        got = []
        listener = system.create_actor(lambda ctx, m: got.append(m.payload))
        system.make_visible(listener, "listeners/l1")
        system.run()
        pub = system.create_actor(
            InterpretedBehavior(lib, lib.get("publisher"), []))
        system.send_to(pub, ["announce", "hello"])
        system.run()
        assert got == [["news", "hello"]]

    def test_interpreted_create_returns_address_via_rpc(self):
        system = self._system()
        lib = BehaviorLibrary()
        lib.load("""
        (behavior spawner ()
          (method go ()
            (let ((child (create child-beh 7)))
              (send-to child (list "emit")))))
        (behavior child-beh (value)
          (method emit () (print "value" value)))
        """)
        spawner = system.create_actor(
            InterpretedBehavior(lib, lib.get("spawner"), []))
        system.send_to(spawner, ["go"])
        system.run()
        rec = system.actor_record(spawner)
        assert rec.behavior.ports.rpc == 1
        # Find the child's output.
        outs = []
        for coordinator in system.coordinators:
            for record in coordinator.actors.values():
                if isinstance(record.behavior, InterpretedBehavior):
                    outs.extend(record.behavior.output)
        assert "value 7" in outs

    def test_port_counters_follow_identity(self):
        system = self._system()
        counter = self._counter(system)
        for _ in range(3):
            system.send_to(counter, ["incr", 1])
            system.run()
        ports = system.actor_record(counter).behavior.ports
        assert ports.invocation == 3
        assert ports.behavior == 3
        assert ports.total() == 6

    def test_make_visible_from_script_with_capability(self):
        system = self._system()
        lib = BehaviorLibrary()
        lib.load("""
        (behavior registrar ()
          (method register (attrs)
            (make-visible (self) attrs)))
        """)
        actor = system.create_actor(
            InterpretedBehavior(lib, lib.get("registrar"), []))
        system.send_to(actor, ["register", "svc/from-script"])
        system.run()
        got = []
        probe = system.create_actor(lambda ctx, m: got.append(m.payload))
        system.send("svc/*", ["register", "again"])  # reaches the registrar
        system.run()
        assert system.actor_record(actor) is not None
        entry = system.directory_of(0).space(system.root_space).lookup(actor)
        assert entry is not None


SPINNER = """
(behavior spinner (turns)
  (method turn () (become spinner (+ turns 1)))
  (method spawn () (send-to (reply-addr) (create spinner 0)))
  (method spin () (while true 1)))
"""


@pytest.mark.parametrize("engine", ["tree", "bytecode"])
def test_fuel_limit_survives_become_and_create(engine):
    """A tightened ``max_steps`` (the untrusted-client guard) is the
    actor's, not one behavior object's: the behavior it becomes and the
    children it creates are cut off at the same step."""
    from repro.core.messages import Message

    system = ActorSpaceSystem(seed=0)
    lib = BehaviorLibrary()
    lib.load(SPINNER)
    guarded = InterpretedBehavior(lib, lib.get("spinner"), [0], engine=engine)
    guarded.max_steps = 50
    actor = system.create_actor(guarded)
    children = []
    probe = system.create_actor(lambda ctx, m: children.append(m.payload))
    system.send_to(actor, ["turn"])
    system.run()
    system.send_to(actor, ["spawn"], reply_to=probe)  # by the new behavior
    system.run()
    [child] = children
    for address in (actor, child):
        record = system.actor_record(address)
        assert record.behavior is not guarded
        with pytest.raises(InterpreterRuntimeError,
                           match="script exceeded 50 evaluation steps"):
            record.behavior.receive(system.make_context(record),
                                    Message(["spin"]))
