"""The entry point of the compiled engine.

A :class:`VM` is what the closures of :mod:`repro.interp.compiler` share
while one body runs: the :class:`EffectBridge` their effect forms call
and the fuel they spend.  Each run gets its own flat register list — the
compiled body's template with the parameter values in front — talks to
the same bridge as the tree-walking evaluator, and is cut off after the
same ``max_steps`` evaluation steps, so the two engines are
interchangeable per behavior.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.core.errors import InterpreterRuntimeError

from .compiler import Code
from .effects import EffectBridge


class VM:
    """Executes compiled bodies against a bridge."""

    __slots__ = ("bridge", "max_steps", "fuel")

    def __init__(self, bridge: EffectBridge, max_steps: int = 100_000):
        self.bridge = bridge
        self.max_steps = max_steps
        self.fuel = max_steps

    def run(self, code: Code, args: Sequence) -> Any:
        """Run a compiled body on its parameter values (acquaintances,
        then message arguments); fresh fuel."""
        if len(args) != code.nparams:
            raise InterpreterRuntimeError(
                f"{code!r} takes {code.nparams} values, got {len(args)}")
        regs = code.registers.copy()
        regs[:code.nparams] = args
        self.fuel = self.max_steps
        return code.entry(regs, self)
