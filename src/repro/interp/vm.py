"""The entry point of the compiled engine.

A :class:`VM` is what the closures of :mod:`repro.interp.compiler` share
while one body runs: the :class:`EffectBridge` their effect forms call
and the fuel they spend.  It runs over the same
:class:`~repro.interp.env.Env` chain and bridge as the tree-walking
evaluator, and is cut off after the same ``max_steps`` evaluation steps,
so the two engines are interchangeable per behavior.
"""

from __future__ import annotations

from typing import Any

from .compiler import Code
from .effects import EffectBridge
from .env import Env


class VM:
    """Executes compiled bodies against an environment and a bridge."""

    __slots__ = ("bridge", "max_steps", "fuel")

    def __init__(self, bridge: EffectBridge, max_steps: int = 100_000):
        self.bridge = bridge
        self.max_steps = max_steps
        self.fuel = max_steps

    def run(self, code: Code, env: Env) -> Any:
        """Run a compiled body; fresh fuel."""
        self.fuel = self.max_steps
        return code.entry(env, self)
