"""Garbage collection of actors and actorSpaces.

Section 5.5 of the paper fixes the rules this module implements:

* "As long as an actor (or actorSpace) is visible in an actorSpace, it may
  be potentially reachable and thus cannot be garbage collected until the
  container actorSpace has been garbage collected."
* "An actorSpace may be deleted if no actor has a way of accessing it
  (and, as with actors, no messages containing its mail address are
  pending)."
* "When an actor is no longer reachable, and furthermore cannot
  potentially reach a reachable actor, a garbage collection algorithm may
  be able to delete it."  (The second condition is the classic actor-GC
  refinement: an unreachable-but-*active* actor that could still send a
  message into the live computation must be kept.)
* "Since actorSpaces are viewed as passive containers, garbage collecting
  them is simpler than actors: inverse reachability need not be
  considered."

The collector is a mark phase over a conservative acquaintance graph the
runtime maintains: an actor's acquaintances are every mail address that
has appeared in its creation arguments or in messages it has received.
Roots are the external handles the application driver holds plus the
targets and contents of in-flight envelopes.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import fields, is_dataclass
from itertools import chain
from typing import Any, Iterable, Iterator

from .addresses import ActorAddress, MailAddress, SpaceAddress, is_space_address
from .visibility import Directory


#: Exact types the scan settles without an ``isinstance`` test: values
#: that cannot hold an address, and the builtin sequences.
_LEAVES = frozenset({str, bytes, int, float, bool, type(None)})
_SEQUENCES = frozenset({tuple, list, set, frozenset})


def scan_addresses(payload: Any, _depth: int = 0) -> Iterator[MailAddress]:
    """Yield every mail address conservatively discoverable in ``payload``.

    Walks the common container types plus dataclasses.  Opaque objects may
    hide addresses; applications that smuggle addresses through opaque
    state should expose them via an ``__addresses__()`` method, which this
    scanner honours.  Depth is bounded to keep the scan linear even on
    pathological nesting.

    Every delivery scans its payload, and most payloads are a few scalars
    in a tuple, so the walk is one loop filling one list (depth-first, in
    iteration order) that settles a value of *exactly* a builtin type by
    that type; subclasses, other mappings, dataclasses and
    ``__addresses__`` carriers take the ``isinstance`` tests after it.
    """
    found: list[MailAddress] = []
    if _depth > 32:
        return iter(found)
    # (items not yet visited, their depth), innermost container last.
    pending = [(iter((payload,)), _depth)]
    while pending:
        items, depth = pending[-1]
        for item in items:
            kind = type(item)
            if kind in _LEAVES:
                continue
            if isinstance(item, MailAddress):
                found.append(item)
                continue
            if kind in _SEQUENCES:
                contents = item
            elif isinstance(item, Mapping):
                contents = chain.from_iterable(item.items())
            elif isinstance(item, (list, tuple, set, frozenset)):
                contents = item
            elif is_dataclass(item) and not isinstance(item, type):
                contents = [getattr(item, f.name) for f in fields(item)]
            else:
                hook = getattr(item, "__addresses__", None)
                if callable(hook):
                    found.extend(a for a in hook() if isinstance(a, MailAddress))
                continue
            if depth < 32:
                pending.append((iter(contents), depth + 1))
                break
        else:
            pending.pop()
    return iter(found)


class GcReport:
    """Outcome of one collection cycle."""

    __slots__ = (
        "live_actors",
        "live_spaces",
        "collected_actors",
        "collected_spaces",
        "kept_active",
    )

    def __init__(self):
        self.live_actors: set[ActorAddress] = set()
        self.live_spaces: set[SpaceAddress] = set()
        self.collected_actors: set[ActorAddress] = set()
        self.collected_spaces: set[SpaceAddress] = set()
        #: Unreachable-but-active actors retained because they can still
        #: reach the live computation.
        self.kept_active: set[ActorAddress] = set()

    @property
    def collected_count(self) -> int:
        return len(self.collected_actors) + len(self.collected_spaces)

    def __repr__(self):
        return (
            f"<GcReport live={len(self.live_actors)}a/{len(self.live_spaces)}s "
            f"collected={len(self.collected_actors)}a/{len(self.collected_spaces)}s "
            f"kept_active={len(self.kept_active)}>"
        )


class GarbageCollector:
    """Mark-phase collector over the runtime's conservative world view.

    Parameters
    ----------
    directory:
        The visibility directory (container relation + registries).
    acquaintances:
        ``address -> set of addresses`` the actor knows (runtime-maintained).
    """

    __slots__ = ("directory", "acquaintances")

    def __init__(
        self,
        directory: Directory,
        acquaintances: Mapping[ActorAddress, set[MailAddress]],
    ):
        self.directory = directory
        self.acquaintances = acquaintances

    # -- mark ---------------------------------------------------------------------

    def mark(
        self,
        roots: Iterable[MailAddress],
        in_flight: Iterable[MailAddress] = (),
    ) -> tuple[set[ActorAddress], set[SpaceAddress]]:
        """Forward-reachable actors and spaces from ``roots`` + ``in_flight``.

        Propagation rules:

        * actor -> each acquaintance;
        * space -> every member visible in it (actors *and* nested spaces):
          a reachable space makes its members matchable, hence reachable.
        """
        live_actors: set[ActorAddress] = set()
        live_spaces: set[SpaceAddress] = set()
        stack: list[MailAddress] = list(roots) + list(in_flight)
        while stack:
            addr = stack.pop()
            if is_space_address(addr):
                if addr in live_spaces:
                    continue
                if not self.directory.has_space(addr):  # destroyed: not live
                    continue
                live_spaces.add(addr)  # type: ignore[arg-type]
                rec = self.directory.space(addr)  # type: ignore[arg-type]
                stack.extend(e.target for e in rec.entries())
            else:
                if addr in live_actors:
                    continue
                live_actors.add(addr)  # type: ignore[arg-type]
                stack.extend(self.acquaintances.get(addr, ()))  # type: ignore[arg-type]
        return live_actors, live_spaces

    def _can_reach(
        self,
        start: ActorAddress,
        goal_actors: set[ActorAddress],
        goal_spaces: set[SpaceAddress],
    ) -> bool:
        """Can ``start`` reach any live entity through acquaintance/space edges?"""
        seen: set[MailAddress] = {start}
        stack: list[MailAddress] = [start]
        while stack:
            addr = stack.pop()
            if addr != start and (addr in goal_actors or addr in goal_spaces):
                return True
            if is_space_address(addr):
                if self.directory.has_space(addr):  # type: ignore[arg-type]
                    rec = self.directory.space(addr)  # type: ignore[arg-type]
                    children = [e.target for e in rec.entries()]
                else:
                    children = []
            else:
                children = list(self.acquaintances.get(addr, ()))  # type: ignore[arg-type]
            for child in children:
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        return False

    # -- collect ---------------------------------------------------------------------

    def collect(
        self,
        roots: Iterable[MailAddress],
        all_actors: Iterable[ActorAddress],
        active_actors: Iterable[ActorAddress] = (),
        in_flight: Iterable[MailAddress] = (),
    ) -> GcReport:
        """Run one collection cycle (mark only; the caller deletes).

        Parameters
        ----------
        roots:
            External handles held by the application driver.
        all_actors:
            Every live actor address in the system.
        active_actors:
            Actors with pending messages or scheduled work — candidates
            for the "can still reach the live computation" retention rule.
        in_flight:
            Addresses appearing in undelivered envelopes (targets, senders,
            payload-scanned addresses): per the paper, pending messages pin
            their contents.
        """
        report = GcReport()
        live_actors, live_spaces = self.mark(roots, in_flight)
        report.live_actors = set(live_actors)
        report.live_spaces = set(live_spaces)

        active = set(active_actors)
        for actor in all_actors:
            if actor in live_actors:
                continue
            if actor in active and self._can_reach(actor, live_actors, live_spaces):
                report.kept_active.add(actor)
                report.live_actors.add(actor)
            else:
                report.collected_actors.add(actor)

        # Spaces: no inverse reachability — simply unreachable means dead.
        for rec in self.directory.spaces():
            if rec.address not in live_spaces:
                report.collected_spaces.add(rec.address)
        return report
