"""The prototype's behavior-script interpreter (paper section 7).

Load behavior scripts at run time, create interpreted actors, and let
them coordinate through the same ActorSpace primitives native (Python)
behaviors use::

    from repro import ActorSpaceSystem
    from repro.interp import BehaviorLibrary, InterpretedBehavior

    library = BehaviorLibrary()
    library.load('''
      (behavior counter (count)
        (method incr (by) (become counter (+ count by)))
        (method query () (send-to (reply-addr) count)))
    ''')
    system = ActorSpaceSystem()
    actor = system.create_actor(
        InterpretedBehavior(library, library.get("counter"), [0]))
    system.send_to(actor, ["incr", 5])

Two engines run a behavior, chosen per actor with ``engine=``: ``"tree"``,
the section 7.2 tree walker (:mod:`.evaluator`, the readable reference),
and ``"bytecode"``, section 7's planned byte-compiler (:mod:`.compiler`:
each method compiled once into closures, run by :class:`VM`).  They share
the builtins, the table of effect forms (:mod:`.effects`) and one
semantics: they agree on value, effects, errors and fuel.
"""

from .actor_interface import ActorInterface, InterpretedBehavior, PortCounters
from .astnodes import Symbol, to_source
from .behavior_loader import BehaviorDef, BehaviorLibrary, MethodDef, parse_behavior
from .builtins import BUILTINS
from .compiler import Code, compile_body
from .vm import VM
from .env import Env
from .evaluator import Evaluator, base_env
from .lexer import Token, tokenize
from .parser import parse_one, parse_program
from .prelude import PRELUDE_SOURCE, build_ring, load_prelude

__all__ = [
    "ActorInterface",
    "BUILTINS",
    "BehaviorDef",
    "BehaviorLibrary",
    "Code",
    "VM",
    "compile_body",
    "Env",
    "Evaluator",
    "InterpretedBehavior",
    "MethodDef",
    "PRELUDE_SOURCE",
    "PortCounters",
    "build_ring",
    "load_prelude",
    "Symbol",
    "Token",
    "base_env",
    "parse_behavior",
    "parse_one",
    "parse_program",
    "to_source",
    "tokenize",
]
