"""Hypothesis profiles for the interpreter's properties.

``--hypothesis-profile=conformance`` (the CI job of that name) runs the
engine-equivalence properties of ``test_bytecode.py`` at ten times
tier-1's 400 examples.  Name a path under ``tests/interp`` on the command
line with it: pytest reads this file before the option only then.
"""

from hypothesis import settings

settings.register_profile("conformance", max_examples=4000, deadline=None)
