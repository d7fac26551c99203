"""Destination patterns: regular expressions over atoms.

Section 7.1 of the paper fixes the prototype's pattern representation:
attributes are concatenations of atoms and *patterns are regular
expressions over atoms*, analogous to paths in a UNIX file system.  This
module implements a pattern language with exactly that structure.

A pattern is a ``/``-separated sequence of **atom patterns**.  Each atom
pattern independently constrains one atom of an attribute path, except for
``**`` which absorbs any number of atoms (including zero).  Supported atom
patterns:

``literal``
    Matches exactly that atom (``print`` matches only ``print``).
``*``
    Matches exactly one arbitrary atom.  A bare ``*`` pattern therefore
    "matches any attribute" of length one — this is the wildcard used by
    the paper's process-pool example (``send(*@ProcPool, job, self)``).
``**``
    Matches any sequence of atoms, including the empty sequence.  This is
    the idiom for "anything visible here, at any nesting depth".
``glob``
    An atom containing ``*``, ``?``, ``[...]`` or ``{a,b}`` is a glob over
    the characters of a single atom (``node-?``, ``ver-[0-9]``,
    ``{gif,png}``).
``~regex``
    An atom beginning with ``~`` is a raw (anchored) Python regular
    expression over a single atom — the fully general "regular expression
    over atoms" of the paper.

Patterns are immutable values.  :meth:`Pattern.matches` tests a single
:class:`~repro.core.atoms.AttributePath`; scoped resolution against a whole
actorSpace (including descent into visible nested spaces) lives in
``matching.py``.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterable, Sequence

from .atoms import AttributePath, as_path
from .errors import PatternSyntaxError

# ---------------------------------------------------------------------------
# Atom matchers
# ---------------------------------------------------------------------------


class AtomMatcher:
    """Base class for single-atom matchers.  Subclasses are values."""

    __slots__ = ()

    #: True when the matcher accepts any atom whatsoever.
    is_wild = False

    def matches(self, atom: str) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def __eq__(self, other):
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self):
        return hash((type(self).__name__, self._key()))

    def _key(self):  # pragma: no cover - abstract
        raise NotImplementedError


class LiteralAtom(AtomMatcher):
    """Matches one specific atom."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text

    def matches(self, atom: str) -> bool:
        return atom == self.text

    def _key(self):
        return self.text

    def __repr__(self):
        return f"LiteralAtom({self.text!r})"

    def __str__(self):
        return self.text


class AnyAtom(AtomMatcher):
    """``*`` — matches exactly one arbitrary atom."""

    __slots__ = ()
    is_wild = True

    def matches(self, atom: str) -> bool:
        return True

    def _key(self):
        return ()

    def __repr__(self):
        return "AnyAtom()"

    def __str__(self):
        return "*"


class AnySequence(AtomMatcher):
    """``**`` — matches any run of atoms, including none.

    This matcher is special-cased by the path-matching algorithm; its
    :meth:`matches` accepts any single atom so generic code treating it as
    a one-atom wildcard stays safe.
    """

    __slots__ = ()
    is_wild = True

    def matches(self, atom: str) -> bool:
        return True

    def _key(self):
        return ()

    def __repr__(self):
        return "AnySequence()"

    def __str__(self):
        return "**"


class RegexAtom(AtomMatcher):
    """A regular expression anchored over a single atom."""

    __slots__ = ("source", "_compiled")

    def __init__(self, source: str):
        self.source = source
        try:
            self._compiled = re.compile(source)
        except re.error as exc:
            raise PatternSyntaxError(source, f"bad regex: {exc}") from exc

    def matches(self, atom: str) -> bool:
        return self._compiled.fullmatch(atom) is not None

    def _key(self):
        return self.source

    def __repr__(self):
        return f"RegexAtom({self.source!r})"

    def __str__(self):
        return f"~{self.source}"


_GLOB_CHARS = frozenset("*?[]{}")


def _glob_to_regex(glob: str) -> str:
    """Translate a single-atom glob to an anchored regex source string.

    Supports ``*`` (any run of characters), ``?`` (one character),
    ``[...]`` character classes (with leading ``!`` or ``^`` negation) and
    ``{a,b,...}`` alternation.  Braces do not nest.
    """
    out: list[str] = []
    i, n = 0, len(glob)
    while i < n:
        ch = glob[i]
        if ch == "*":
            out.append("[^/]*")
            i += 1
        elif ch == "?":
            out.append("[^/]")
            i += 1
        elif ch == "[":
            j = i + 1
            if j < n and glob[j] in "!^":
                j += 1
            if j < n and glob[j] == "]":  # first ']' is literal
                j += 1
            while j < n and glob[j] != "]":
                j += 1
            if j >= n:
                raise PatternSyntaxError(glob, "unterminated character class", i)
            body = glob[i + 1 : j]
            if body.startswith("!"):
                body = "^" + body[1:]
            out.append(f"[{body}]")
            i = j + 1
        elif ch == "{":
            j = glob.find("}", i)
            if j < 0:
                raise PatternSyntaxError(glob, "unterminated alternation", i)
            alts = glob[i + 1 : j].split(",")
            out.append("(?:" + "|".join(re.escape(a) for a in alts) + ")")
            i = j + 1
        else:
            out.append(re.escape(ch))
            i += 1
    return "".join(out)


def parse_atom_pattern(text: str) -> AtomMatcher:
    """Parse one ``/``-free token into an :class:`AtomMatcher`."""
    if not text:
        raise PatternSyntaxError(text, "empty atom pattern")
    if text == "*":
        return AnyAtom()
    if text == "**":
        return AnySequence()
    if text.startswith("~"):
        return RegexAtom(text[1:])
    if any(c in _GLOB_CHARS for c in text):
        return RegexAtom(_glob_to_regex(text))
    return LiteralAtom(text)


# ---------------------------------------------------------------------------
# Path patterns
# ---------------------------------------------------------------------------


class Pattern:
    """An immutable destination pattern over attribute paths.

    Build one with :func:`parse_pattern` (or pass pattern text anywhere the
    public API accepts a pattern — coercion is automatic).
    """

    __slots__ = ("matchers", "_text", "_hash")

    def __init__(self, matchers: Sequence[AtomMatcher], text: str | None = None):
        self.matchers: tuple[AtomMatcher, ...] = tuple(matchers)
        if not self.matchers:
            raise PatternSyntaxError(text or "", "pattern must have at least one atom")
        self._text = text if text is not None else "/".join(str(m) for m in self.matchers)
        self._hash = hash(self.matchers)

    # -- classification -------------------------------------------------------

    @property
    def is_literal(self) -> bool:
        """True when the pattern contains no wildcards (it names one path)."""
        return all(isinstance(m, LiteralAtom) for m in self.matchers)

    @property
    def literal_path(self) -> AttributePath:
        """The unique path a literal pattern matches.

        Raises
        ------
        ValueError
            If the pattern is not literal.
        """
        if not self.is_literal:
            raise ValueError(f"{self!r} is not a literal pattern")
        return AttributePath([m.text for m in self.matchers])  # type: ignore[union-attr]

    @property
    def literal_prefix(self) -> tuple[str, ...]:
        """The longest run of leading literal atoms (used for indexing)."""
        prefix: list[str] = []
        for m in self.matchers:
            if isinstance(m, LiteralAtom):
                prefix.append(m.text)
            else:
                break
        return tuple(prefix)

    @property
    def min_length(self) -> int:
        """The minimum number of atoms a matching path must have."""
        return sum(0 if isinstance(m, AnySequence) else 1 for m in self.matchers)

    @property
    def has_multi(self) -> bool:
        """True when the pattern contains ``**``."""
        return any(isinstance(m, AnySequence) for m in self.matchers)

    # -- matching ---------------------------------------------------------------

    def matches(self, path: "AttributePath | str") -> bool:
        """Return ``True`` when ``path`` satisfies this pattern."""
        atoms = as_path(path).atoms
        return _match_seq(self.matchers, atoms)

    def matches_prefix(self, path: "AttributePath | str") -> bool:
        """Return ``True`` when ``path`` could be extended to match.

        Used during nested-space descent: if a space is visible under
        attribute prefix ``p`` and the pattern cannot match any extension of
        ``p``, the space need not be searched.
        """
        atoms = as_path(path).atoms if path else ()
        return _match_prefix(self.matchers, atoms)

    def after_prefix(self, path: "AttributePath | str") -> "list[Pattern]":
        """Residual patterns after consuming ``path`` as a prefix.

        Returns every pattern ``r`` such that ``path ++ q`` matches ``self``
        iff ``q`` matches some ``r``.  Multiple residuals arise from ``**``
        (it may absorb any amount of the prefix).  An empty list means the
        prefix cannot begin a match.
        """
        atoms = as_path(path).atoms if path else ()
        residual_suffixes = _residuals(self.matchers, atoms)
        out: list[Pattern] = []
        seen: set[tuple[AtomMatcher, ...]] = set()
        for suffix in residual_suffixes:
            if suffix and suffix not in seen:
                seen.add(suffix)
                out.append(Pattern(suffix))
        return out

    # -- value semantics ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Pattern):
            return self.matchers == other.matchers
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __str__(self):
        return self._text

    def __repr__(self):
        return f"Pattern({self._text!r})"


def _match_seq(matchers: tuple[AtomMatcher, ...], atoms: tuple[str, ...]) -> bool:
    """Match a matcher sequence against an atom sequence (handles ``**``)."""
    # Iterative two-pointer algorithm with backtracking over the most
    # recent ``**`` — the classic glob algorithm, O(len*len) worst case.
    mi = ai = 0
    star_mi = -1
    star_ai = 0
    nm, na = len(matchers), len(atoms)
    while ai < na:
        if mi < nm and isinstance(matchers[mi], AnySequence):
            star_mi, star_ai = mi, ai
            mi += 1
        elif mi < nm and matchers[mi].matches(atoms[ai]):
            mi += 1
            ai += 1
        elif star_mi >= 0:
            star_ai += 1
            mi, ai = star_mi + 1, star_ai
        else:
            return False
    while mi < nm and isinstance(matchers[mi], AnySequence):
        mi += 1
    return mi == nm


def _match_prefix(matchers: tuple[AtomMatcher, ...], atoms: tuple[str, ...]) -> bool:
    """True when some *strict* extension of ``atoms`` matches ``matchers``.

    Extensions are non-empty because attribute paths contributed by actors
    inside a nested space always have at least one atom.
    """
    return any(suffix for suffix in _residuals(matchers, atoms))


def _residuals(
    matchers: tuple[AtomMatcher, ...], atoms: tuple[str, ...]
) -> list[tuple[AtomMatcher, ...]]:
    """All matcher suffixes reachable after consuming ``atoms`` as a prefix."""
    # Breadth-first over (matcher-index) states; ``**`` induces branching.
    states = {0}
    for atom in atoms:
        next_states: set[int] = set()
        for mi in states:
            j = mi
            # ``**`` may absorb zero atoms: advance past runs of ** lazily.
            while j < len(matchers) and isinstance(matchers[j], AnySequence):
                # Option A: ** absorbs this atom, stay at j.
                next_states.add(j)
                # Option B: ** absorbs nothing, try the next matcher.
                j += 1
            if j < len(matchers) and matchers[j].matches(atom):
                next_states.add(j + 1)
        if not next_states:
            return []
        states = next_states
    return [matchers[mi:] for mi in sorted(states)]


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def parse_pattern(text: "str | Pattern | AttributePath") -> Pattern:
    """Parse pattern text into a :class:`Pattern` (idempotent coercion).

    ``AttributePath`` values become the literal pattern naming that path.
    """
    if isinstance(text, Pattern):
        return text
    if isinstance(text, AttributePath):
        return Pattern([LiteralAtom(a) for a in text.atoms], str(text))
    if not isinstance(text, str):
        raise PatternSyntaxError(repr(text), "pattern must be a string")
    return _parse_pattern_text(text)


@lru_cache(maxsize=256)
def _parse_pattern_text(text: str) -> Pattern:
    """The ``str`` branch of :func:`parse_pattern`, memoised by text (a
    pattern is a value; a malformed text raises and is never cached)."""
    if not text:
        raise PatternSyntaxError(text, "pattern must be non-empty")
    if text.startswith("/") or text.endswith("/"):
        raise PatternSyntaxError(text, "pattern must not begin or end with '/'")
    parts = text.split("/")
    return Pattern([parse_atom_pattern(p) for p in parts], text)


#: Pattern matching any single-atom attribute; the paper's ``*``.
ANY = parse_pattern("*")

#: Pattern matching every attribute at every depth.
ANYWHERE = parse_pattern("**")


def literal_pattern(path: "AttributePath | str") -> Pattern:
    """The pattern matching exactly ``path`` and nothing else."""
    return parse_pattern(as_path(path))
