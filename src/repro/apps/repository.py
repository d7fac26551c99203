"""Pattern-directed software repository (section 1).

"The ActorSpace model allows open flexible interfaces for
pattern-directed retrieval from software repositories. ... Consider each
class as a 'factory' actor which may return its instances.  The interface
specifications of classes may be represented as attributes which are then
used to dynamically access classes from the library."

Each library class is a :class:`ClassFactory` actor, visible in the
repository space under structured interface attributes such as
``collections/list/ordered`` or ``io/stream/buffered``.  Clients retrieve
classes by *interface pattern* rather than by name:

* ``send("collections/*/ordered@repo", ("instantiate", args))`` — any one
  class implementing the interface;
* ``broadcast("io/**@repo", ("describe",))`` — enumerate everything under
  a namespace.

The taxonomy generator builds a deterministic synthetic library for the
E12 experiment (the paper names no concrete library; the substitution is
recorded in DESIGN.md).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.core.actor import ActorContext, Behavior
from repro.core.lattice import And, Desc, Has, subsumes
from repro.core.messages import Destination, Message
from repro.runtime.rng import default_rng
from repro.runtime.system import ActorSpaceSystem

_instance_ids = itertools.count()


class ClassFactory(Behavior):
    """A library class: instantiates itself on request.

    Protocol:

    * ``("instantiate", args)`` — replies ``("instance", class_name,
      instance_id, args)``;
    * ``("describe",)`` — replies ``("class", class_name, interfaces)``.
    """

    def __init__(self, class_name: str, interfaces: list[str]):
        self.class_name = class_name
        self.interfaces = list(interfaces)
        self.instantiations = 0

    def receive(self, ctx: ActorContext, message: Message) -> None:
        kind, *rest = message.payload
        if kind == "instantiate":
            args = rest[0] if rest else None
            self.instantiations += 1
            if message.reply_to is not None:
                ctx.send_to(
                    message.reply_to,
                    ("instance", self.class_name, next(_instance_ids), args),
                )
        elif kind == "describe":
            if message.reply_to is not None:
                ctx.send_to(message.reply_to,
                            ("class", self.class_name, list(self.interfaces)))


class RepositoryClient(Behavior):
    """Collects replies to repository queries."""

    def __init__(self):
        self.instances: list[tuple] = []
        self.classes: list[tuple[str, list[str]]] = []

    def receive(self, ctx: ActorContext, message: Message) -> None:
        kind, *rest = message.payload
        if kind == "instance":
            self.instances.append(tuple(rest))
        elif kind == "class":
            name, interfaces = rest
            self.classes.append((name, interfaces))


#: Synthetic taxonomy: (namespace, kinds, traits) — the cross product
#: generates plausibly structured interface paths.
_TAXONOMY: list[tuple[str, list[str], list[str]]] = [
    ("collections", ["list", "set", "map", "queue", "bag"],
     ["ordered", "sorted", "immutable", "concurrent", "bounded"]),
    ("io", ["stream", "file", "socket", "pipe"],
     ["buffered", "async", "compressed", "encrypted"]),
    ("math", ["matrix", "vector", "poly", "graph"],
     ["dense", "sparse", "symbolic", "parallel"]),
    ("net", ["rpc", "pubsub", "gossip"],
     ["reliable", "ordered", "secure"]),
    ("ui", ["widget", "layout", "chart"],
     ["themed", "responsive", "animated"]),
]


@dataclass
class RepositoryHandle:
    """A built repository: its space plus the factory index."""

    space: object
    factories: dict[str, ClassFactory]
    client_addr: object
    client: RepositoryClient


def build_repository(
    system: ActorSpaceSystem, class_count: int = 200, seed: int = 0
) -> RepositoryHandle:
    """Populate a repository space with ``class_count`` factory actors.

    Each class advertises its primary interface path
    ``<namespace>/<kind>/<trait>`` and the generalization
    ``<namespace>/<kind>/any`` (so both exact and generalized patterns
    have matches).  Deterministic for a given seed.
    """
    rng = default_rng(seed)
    repo = system.create_space(attributes="repo")
    factories: dict[str, ClassFactory] = {}
    node_count = system.topology.node_count
    for i in range(class_count):
        namespace, kinds, traits = _TAXONOMY[int(rng.integers(0, len(_TAXONOMY)))]
        kind = kinds[int(rng.integers(0, len(kinds)))]
        trait = traits[int(rng.integers(0, len(traits)))]
        class_name = f"{namespace}.{kind}.{trait}.v{i}"
        interfaces = [f"{namespace}/{kind}/{trait}", f"{namespace}/{kind}/any"]
        factory = ClassFactory(class_name, interfaces)
        address = system.create_actor(factory, node=i % node_count, space=repo)
        system.make_visible(address, interfaces, repo)
        factories[class_name] = factory
    client = RepositoryClient()
    client_addr = system.create_actor(client, node=0)
    system.run()  # publish everything
    return RepositoryHandle(repo, factories, client_addr, client)


def query_one(system: ActorSpaceSystem, handle: RepositoryHandle,
              pattern: str, args=None) -> None:
    """``send``: instantiate one arbitrary class matching ``pattern``."""
    system.send(Destination(pattern, handle.space), ("instantiate", args),
                reply_to=handle.client_addr)


def query_all(system: ActorSpaceSystem, handle: RepositoryHandle,
              pattern: str) -> None:
    """``broadcast``: describe every class matching ``pattern``."""
    system.broadcast(Destination(pattern, handle.space), ("describe",),
                     reply_to=handle.client_addr)


def interface_desc(paths: list[str]) -> Desc:
    """Lift interface paths to a lattice description (all must hold)."""
    return And([Has(p) for p in paths])


def implements(factory: ClassFactory, requirement: Desc) -> bool:
    """Does ``factory`` satisfy a lattice-level interface requirement?

    This is the subsumption view of retrieval: a requirement is met when
    the factory's advertised interface description lies at or below it.
    """
    return requirement.satisfied_by(factory.interfaces) or subsumes(
        requirement, interface_desc(factory.interfaces)
    )
