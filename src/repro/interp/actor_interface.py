"""The ActorInterface: bridge between interpreted behaviors and the runtime.

Fig. 2 of the paper shows the pipeline this module realizes: the
**interpreter** evaluates method bodies; the **ActorInterface** "allows
methods defined in the actor behaviors to be invoked" and mediates all
traffic with the **Coordinator** through the actor's three ports:

* Invocation-port — incoming ``send``/``broadcast`` messages dispatch a
  method;
* Behavior-port — ``become`` routes the next behavior back to the actor;
* RPC-port — system calls with results (``create``, ``create-actorspace``,
  ``new-capability``) count one request/reply round trip each.

The interface keeps per-port traffic counters, so tests and experiment
E13 can verify the port discipline matches the figure.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.actor import ActorContext, Behavior
from repro.core.errors import InterpreterRuntimeError
from repro.core.gc import scan_addresses
from repro.core.messages import Message

from .behavior_loader import BehaviorDef, BehaviorLibrary
from .evaluator import Evaluator, base_env
from .vm import VM


@dataclass
class PortCounters:
    """Message counts through one interpreted actor's three ports."""

    invocation: int = 0
    behavior: int = 0
    rpc: int = 0

    def total(self) -> int:
        return self.invocation + self.behavior + self.rpc


class ActorInterface:
    """Effect bridge for one behavior invocation (implements EffectBridge)."""

    __slots__ = ("ctx", "library", "owner", "reply_to")

    def __init__(self, ctx: ActorContext, library: BehaviorLibrary,
                 owner: "InterpretedBehavior", reply_to):
        self.ctx = ctx
        self.library = library
        self.owner = owner
        self.reply_to = reply_to

    # -- identity ----------------------------------------------------------------

    def self_address(self):
        return self.ctx.self_address

    def host_space(self):
        return self.ctx.host_space

    def reply_addr(self):
        if self.reply_to is None:
            raise InterpreterRuntimeError("no reply address on this message")
        return self.reply_to

    def now(self) -> float:
        return self.ctx.now

    # -- messaging ----------------------------------------------------------------

    def send_to(self, target, payload) -> None:
        self.ctx.send_to(target, payload, reply_to=self.ctx.self_address)

    def send_pattern(self, dest, payload, reply_to) -> None:
        if not isinstance(dest, str):
            raise InterpreterRuntimeError(f"send: destination must be text, got {dest!r}")
        self.ctx.send(dest, payload,
                      reply_to=reply_to if reply_to is not None else self.ctx.self_address)

    def broadcast_pattern(self, dest, payload, reply_to) -> None:
        if not isinstance(dest, str):
            raise InterpreterRuntimeError(f"broadcast: destination must be text, got {dest!r}")
        self.ctx.broadcast(dest, payload,
                           reply_to=reply_to if reply_to is not None else self.ctx.self_address)

    # -- lifecycle -------------------------------------------------------------------

    def _instantiate(self, name: str, args: list) -> "InterpretedBehavior":
        """Behavior ``name`` under its maker's engine and fuel limit."""
        behavior = InterpretedBehavior(self.library, self.library.get(name),
                                       args, engine=self.owner.engine)
        behavior.max_steps = self.owner.max_steps
        return behavior

    def become(self, name: str, args: list) -> None:
        next_behavior = self._instantiate(name, args)
        # The actor's identity persists across become: port counters and
        # print output carry over to the replacement behavior.
        next_behavior.ports = self.owner.ports
        next_behavior.output = self.owner.output
        self.owner.ports.behavior += 1  # next behavior travels the Behavior-port
        self.ctx.become(next_behavior)

    def create(self, name: str, args: list):
        self.owner.ports.rpc += 1  # result (the new address) returns via RPC-port
        return self.ctx.create(self._instantiate(name, args))

    def create_actorspace(self, capability):
        self.owner.ports.rpc += 1
        return self.ctx.create_actorspace(capability)

    def make_visible(self, target, attrs, space, cap) -> None:
        self.ctx.make_visible(target, _as_attrs(attrs), space, cap)

    def make_invisible(self, target, space, cap) -> None:
        self.ctx.make_invisible(target, space, cap)

    def change_attributes(self, target, attrs, space, cap) -> None:
        self.ctx.change_attributes(target, _as_attrs(attrs), space, cap)

    def new_capability(self):
        self.owner.ports.rpc += 1
        return self.ctx.new_capability()

    def terminate(self) -> None:
        self.ctx.terminate()

    def schedule(self, delay, payload) -> None:
        if not isinstance(delay, (int, float)) or isinstance(delay, bool):
            raise InterpreterRuntimeError(f"schedule: delay must be a number, got {delay!r}")
        self.ctx.schedule(float(delay), payload)

    def emit(self, text: str) -> None:
        self.owner.output.append(text)


def _as_attrs(attrs):
    if isinstance(attrs, str):
        return attrs
    if isinstance(attrs, list) and all(isinstance(a, str) for a in attrs):
        return attrs
    raise InterpreterRuntimeError(
        f"attributes must be a string or list of strings, got {attrs!r}"
    )


class InterpretedBehavior(Behavior):
    """A :class:`~repro.core.actor.Behavior` whose code is a parsed script.

    The acquaintance parameters of the behavior definition are bound to
    ``args`` once; each incoming message ``[method, arg...]`` binds the
    method's communication parameters and evaluates its body.
    """

    def __init__(self, library: BehaviorLibrary, definition: BehaviorDef,
                 args: list, engine: str = "tree"):
        if len(args) != len(definition.params):
            raise InterpreterRuntimeError(
                f"behavior {definition.name} expects {len(definition.params)} "
                f"acquaintance parameters, got {len(args)}"
            )
        if engine not in ("tree", "bytecode"):
            raise ValueError(f"unknown engine {engine!r}: use 'tree' or 'bytecode'")
        self.library = library
        self.definition = definition
        #: "tree" = the §7.2 sequential interpreter; "bytecode" = the
        #: byte-compiled intermediary form §7 plans as future work.
        self.engine = engine
        self.state = dict(zip(definition.params, args))
        self.ports = PortCounters()
        #: Lines produced by (print ...) in this actor, in order.
        self.output: list[str] = []
        self.max_steps = 100_000

    def receive(self, ctx: ActorContext, message: Message) -> None:
        self.ports.invocation += 1  # arrived via the Invocation-port
        method_name, args = self._decode(message.payload)
        method = self.definition.method(method_name)
        if method is None:
            raise InterpreterRuntimeError(
                f"behavior {self.definition.name} has no method {method_name!r}"
            )
        if len(args) != len(method.params):
            raise InterpreterRuntimeError(
                f"{self.definition.name}.{method_name} expects {len(method.params)} "
                f"arguments, got {len(args)}"
            )
        interface = ActorInterface(ctx, self.library, self, message.reply_to)
        if self.engine == "bytecode":
            code = self.library.compiled(self.definition.name, method,
                                         self.definition.params)
            VM(interface, self.max_steps).run(
                code, [*self.state.values(), *args])
        else:
            env = base_env().child(self.state).child(
                dict(zip(method.params, args)))
            Evaluator(interface, self.max_steps).run_body(method.body, env)

    def __addresses__(self):
        """The mail addresses this behavior holds, for the coordinator's
        acquaintance scan: the program text's, found once per definition,
        and the acquaintance values' — never fewer than a walk of
        ``vars(self)`` finds, and no re-reading of the parsed program."""
        return (*self.definition.addresses, *scan_addresses(self.state))

    @staticmethod
    def _decode(payload) -> tuple[str, list]:
        """Accept ``[method, args...]`` lists/tuples or a bare method name."""
        if isinstance(payload, str):
            return payload, []
        if isinstance(payload, (list, tuple)) and payload and isinstance(payload[0], str):
            return payload[0], list(payload[1:])
        raise InterpreterRuntimeError(
            f"interpreted actors expect [method, args...] payloads, got {payload!r}"
        )

    def __repr__(self):
        return f"<InterpretedBehavior {self.definition.name}>"
