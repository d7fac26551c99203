"""Branch-and-bound TSP with broadcast lower bounds (section 5.3).

"The broadcast primitive greatly simplifies expressing many applications.
For instance, in search problems such as the Traveling Salesman, a new
lower bound can be broadcast to all nodes participating in the search for
the shortest route."

Each search worker owns a set of first-level branches (tours fixed after
the first edge) and explores them depth-first, *in chunks*: after
expanding a bounded number of search-tree nodes it reschedules itself,
which is what lets bound broadcasts from other workers interleave with
its search and prune it.  When a worker improves on the best complete
tour it knows, it broadcasts the new bound to ``searchers/**`` in the
search space.

The experiment knob is ``share_bounds``: with it off, each worker prunes
only on its own discoveries — the no-coordination baseline.  The headline
measurement (E3) is total nodes expanded with vs without broadcasting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.actor import ActorContext, Behavior
from repro.core.messages import Destination, Message
from repro.runtime.system import ActorSpaceSystem

if TYPE_CHECKING:
    import numpy as np

def random_instance(n_cities: int, seed: int) -> np.ndarray:
    """A random symmetric TSP instance: points in the unit square."""
    import numpy as np
    rng = np.random.default_rng(seed)
    points = rng.random((n_cities, 2))
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff**2).sum(axis=-1))


def held_karp(dist: np.ndarray) -> float:
    """Exact TSP optimum by Held-Karp DP (ground truth for small n)."""
    import numpy as np
    n = len(dist)
    if n <= 2:
        return float(dist[0, 1] * 2) if n == 2 else 0.0
    full = 1 << (n - 1)  # subsets of cities 1..n-1
    dp = np.full((full, n - 1), np.inf)
    for j in range(n - 1):
        dp[1 << j, j] = dist[0, j + 1]
    for mask in range(full):
        for j in range(n - 1):
            if not mask & (1 << j) or dp[mask, j] == np.inf:
                continue
            base = dp[mask, j]
            for k in range(n - 1):
                if mask & (1 << k):
                    continue
                nxt = mask | (1 << k)
                cand = base + dist[j + 1, k + 1]
                if cand < dp[nxt, k]:
                    dp[nxt, k] = cand
    best = np.inf
    for j in range(n - 1):
        cand = dp[full - 1, j] + dist[j + 1, 0]
        best = min(best, cand)
    return float(best)


@dataclass
class _Frame:
    """One DFS frame: partial tour, visited mask, accumulated cost."""

    path: tuple[int, ...]
    visited: int
    cost: float


class TspWorker(Behavior):
    """One search participant.

    Message protocol:

    * ``("branch", first_city)`` — adopt the subtree rooted at tour
      ``0 -> first_city``;
    * ``("bound", value)`` — a (possibly better) global bound from a peer;
    * ``("go",)`` — expand the next chunk of the DFS stack;
    * the worker reports ``("done", nodes_expanded, best_cost)`` to the
      collector when its stack drains.
    """

    def __init__(self, dist: np.ndarray, space, collector,
                 chunk: int = 200, share_bounds: bool = True,
                 chunk_delay: float = 0.01):
        self.dist = dist
        self.n = len(dist)
        self.space = space
        self.collector = collector
        self.chunk = chunk
        self.share_bounds = share_bounds
        self.chunk_delay = chunk_delay
        self.stack: list[_Frame] = []
        self.best = float("inf")
        self.best_tour: tuple[int, ...] | None = None
        self.nodes_expanded = 0
        self.bounds_heard = 0
        self.running = False
        self.finished = False

    # -- protocol ------------------------------------------------------------------

    def receive(self, ctx: ActorContext, message: Message) -> None:
        kind, *rest = message.payload
        if kind == "branch":
            (first,) = rest
            self.stack.append(
                _Frame(path=(0, first), visited=(1 << 0) | (1 << first),
                       cost=float(self.dist[0, first]))
            )
            self._ensure_running(ctx)
        elif kind == "bound":
            (value,) = rest
            self.bounds_heard += 1
            if value < self.best:
                self.best = value
                self.best_tour = None  # a peer holds the witness tour
        elif kind == "go":
            self.running = False
            self._expand_chunk(ctx)
        else:
            raise ValueError(f"tsp worker got {message.payload!r}")

    def _ensure_running(self, ctx: ActorContext) -> None:
        if not self.running and not self.finished:
            self.running = True
            ctx.schedule(self.chunk_delay, ("go",))

    # -- search ---------------------------------------------------------------------

    def _expand_chunk(self, ctx: ActorContext) -> None:
        budget = self.chunk
        improved = False
        while self.stack and budget > 0:
            frame = self.stack.pop()
            budget -= 1
            self.nodes_expanded += 1
            if frame.cost >= self.best:
                continue  # pruned
            if len(frame.path) == self.n:
                total = frame.cost + float(self.dist[frame.path[-1], 0])
                if total < self.best:
                    self.best = total
                    self.best_tour = frame.path
                    improved = True
                continue
            last = frame.path[-1]
            for city in range(1, self.n):
                if frame.visited & (1 << city):
                    continue
                cost = frame.cost + float(self.dist[last, city])
                if cost < self.best:
                    self.stack.append(
                        _Frame(frame.path + (city,),
                               frame.visited | (1 << city), cost)
                    )
        if improved and self.share_bounds:
            # The paper's line: broadcast the new lower bound to all
            # nodes participating in the search.
            ctx.broadcast(Destination("searchers/**", self.space),
                          ("bound", self.best))
        if self.stack:
            self._ensure_running(ctx)
        elif not self.finished:
            self.finished = True
            ctx.send_to(self.collector,
                        ("done", self.nodes_expanded, self.best))


class TspCollector(Behavior):
    """Gathers per-worker completions into the run result."""

    def __init__(self, expected_workers: int):
        self.expected = expected_workers
        self.reports: list[tuple[int, float]] = []
        self.finished_at: float | None = None

    def receive(self, ctx: ActorContext, message: Message) -> None:
        kind, nodes, best = message.payload
        assert kind == "done"
        self.reports.append((nodes, best))
        if len(self.reports) == self.expected:
            self.finished_at = ctx.now


@dataclass
class TspRunResult:
    """Metrics from one distributed TSP run."""

    best_cost: float
    optimal_cost: float
    nodes_expanded: int
    bound_broadcasts: int
    bounds_heard: int
    makespan: float
    workers: int

    @property
    def found_optimum(self) -> bool:
        return abs(self.best_cost - self.optimal_cost) < 1e-9


def run_tsp(
    system: ActorSpaceSystem,
    n_cities: int = 10,
    workers: int = 4,
    instance_seed: int = 42,
    share_bounds: bool = True,
    chunk: int = 50,
    check_optimum: bool = True,
) -> TspRunResult:
    """Drive one branch-and-bound TSP search on ``system``."""
    dist = random_instance(n_cities, instance_seed)
    # A worker with no first-level branch has nothing to search (and would
    # never report): cap the active pool at the branch count.
    workers = min(workers, n_cities - 1)
    space = system.create_space(attributes="tsp")
    collector = system.create_actor(TspCollector(workers), node=0)
    node_count = system.topology.node_count
    behaviors: list[TspWorker] = []
    for i in range(workers):
        behavior = TspWorker(dist, space, collector, chunk=chunk,
                             share_bounds=share_bounds)
        address = system.create_actor(behavior, node=i % node_count, space=space)
        system.make_visible(address, f"searchers/w{i}", space)
        behaviors.append(behavior)
    system.run()  # let visibility settle before the search starts

    start = system.clock.now
    # Deal first-level branches round-robin across the workers (the deal
    # itself is not what E3 measures, so it uses literal patterns).
    for idx, first_city in enumerate(range(1, n_cities)):
        target = idx % workers
        system.send(Destination(f"searchers/w{target}", space),
                    ("branch", first_city))
    system.run()
    collector_rec = system.actor_record(collector)
    coll: TspCollector = collector_rec.behavior  # type: ignore[assignment]
    assert len(coll.reports) == workers, "search did not finish"
    best = min(b for _n, b in coll.reports)
    from repro.core.messages import Mode

    bound_broadcasts = system.tracer.sent.get(Mode.BROADCAST, 0)
    optimal = held_karp(dist) if check_optimum else best
    return TspRunResult(
        best_cost=best,
        optimal_cost=optimal,
        nodes_expanded=sum(n for n, _b in coll.reports),
        bound_broadcasts=bound_broadcasts,
        bounds_heard=sum(b.bounds_heard for b in behaviors),
        makespan=(coll.finished_at or system.clock.now) - start,
        workers=workers,
    )
