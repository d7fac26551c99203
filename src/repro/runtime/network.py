"""Simulated network topology: nodes, LAN clusters, WAN links.

The paper's process-pool example (section 6) relies on locality structure:
"the broadcast can happen to representatives of a WAN whereas the
subsequent distribution can be localized to be within a LAN".  To measure
that (experiment E4) the simulator needs an explicit two-level topology
with distinct latency classes:

* ``LOCAL``  — both endpoints on the same node (coordinator-internal);
* ``LAN``    — distinct nodes in the same cluster;
* ``WAN``    — nodes in different clusters.

Latencies are a base per class plus seeded jitter, so interleaving is
realistic but reproducible.  :class:`Network` draws the jitter *uniforms*
:data:`_DRAW_BLOCK` at a time, so a hop does not pay a call into numpy: a
block of a ``Generator`` is draw for draw its scalar sequence, so a seed
yields the stream it always did, and a model without jitter consumes none.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

#: Jitter uniforms :meth:`Network.latency` prefetches per refill.
_DRAW_BLOCK = 256


class LinkKind(enum.Enum):
    """Classification of one message hop, for locality accounting."""

    LOCAL = "local"
    LAN = "lan"
    WAN = "wan"

    __hash__ = object.__hash__  # identity, in C: see ``core.messages.Mode``


@dataclass(frozen=True)
class LatencyModel:
    """Base latency and jitter fraction per link class.

    Defaults approximate the classic 3-orders-of-magnitude spread between
    intra-node scheduling, LAN round trips, and WAN round trips; the
    absolute values are arbitrary virtual-time units — experiments report
    ratios and shapes, not wall-clock numbers.
    """

    local: float = 0.001
    lan: float = 0.1
    wan: float = 2.0
    jitter: float = 0.25  #: +/- fraction of the base drawn uniformly

    def base(self, kind: LinkKind) -> float:
        if kind is LinkKind.LOCAL:
            return self.local
        if kind is LinkKind.LAN:
            return self.lan
        return self.wan

    def jittered(self, kind: LinkKind, u: float) -> float:
        """The latency of a ``kind`` hop whose jitter draw on [-1, 1) is ``u``."""
        return max(self.base(kind) * (1.0 + self.jitter * u), 1e-9)

    def sample(self, kind: LinkKind, rng: np.random.Generator) -> float:
        """One latency draw for a hop of the given kind."""
        if self.jitter <= 0:
            return self.base(kind)
        return self.jittered(kind, float(rng.uniform(-1.0, 1.0)))


@dataclass
class Topology:
    """Node-to-cluster assignment.

    ``clusters[i]`` is the number of nodes in LAN cluster ``i``; nodes are
    numbered densely in cluster order, so ``Topology([2, 3])`` yields nodes
    0-1 in cluster 0 and nodes 2-4 in cluster 1.
    """

    clusters: list[int] = field(default_factory=lambda: [1])

    def __post_init__(self):
        if not self.clusters or any(c < 1 for c in self.clusters):
            raise ValueError("topology needs at least one node per cluster")
        self._cluster_of: list[int] = []
        for idx, size in enumerate(self.clusters):
            self._cluster_of.extend([idx] * size)

    # -- constructors ------------------------------------------------------------

    @staticmethod
    def single() -> "Topology":
        """One node: the pure shared-memory case."""
        return Topology([1])

    @staticmethod
    def lan(nodes: int) -> "Topology":
        """One cluster of ``nodes`` nodes."""
        return Topology([nodes])

    @staticmethod
    def wan(*cluster_sizes: int) -> "Topology":
        """Multiple LAN clusters joined by WAN links."""
        return Topology(list(cluster_sizes))

    # -- queries -------------------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self._cluster_of)

    @property
    def nodes(self) -> range:
        return range(self.node_count)

    def cluster_of(self, node: int) -> int:
        """The LAN cluster index containing ``node``."""
        return self._cluster_of[node]

    def cluster_nodes(self, cluster: int) -> list[int]:
        """All node ids in ``cluster``."""
        return [n for n in self.nodes if self._cluster_of[n] == cluster]

    @property
    def cluster_count(self) -> int:
        return len(self.clusters)

    def link_kind(self, src: int, dst: int) -> LinkKind:
        """Classify the hop from ``src`` to ``dst``."""
        if src == dst:
            return LinkKind.LOCAL
        if self._cluster_of[src] == self._cluster_of[dst]:
            return LinkKind.LAN
        return LinkKind.WAN

    def __repr__(self):
        return f"<Topology clusters={self.clusters}>"


class Network:
    """Topology + latency model + the RNG stream for jitter draws."""

    __slots__ = ("topology", "latency_model", "_rng", "_draws", "hop_counts")

    def __init__(
        self,
        topology: Topology,
        latency_model: LatencyModel | None = None,
        rng: np.random.Generator | None = None,
    ):
        self.topology = topology
        self.latency_model = latency_model or LatencyModel()
        self._rng = rng if rng is not None else np.random.default_rng(0)
        #: Prefetched jitter uniforms, next draw last (see the module doc).
        self._draws: list[float] = []
        #: Cumulative hop counts by link kind (locality accounting, E4).
        self.hop_counts: dict[LinkKind, int] = {k: 0 for k in LinkKind}

    def latency(self, src: int, dst: int) -> float:
        """Sample the latency of one hop and account for it."""
        kind = self.topology.link_kind(src, dst)
        self.hop_counts[kind] += 1
        model = self.latency_model
        if model.jitter <= 0:
            return model.base(kind)
        draws = self._draws
        if not draws:
            draws.extend(self._rng.uniform(-1.0, 1.0, _DRAW_BLOCK)[::-1].tolist())
        return model.jittered(kind, draws.pop())

    def reset_counts(self) -> None:
        """Zero the hop counters (between benchmark phases)."""
        for k in self.hop_counts:
            self.hop_counts[k] = 0

    def __repr__(self):
        return f"<Network {self.topology!r} hops={ {k.value: v for k, v in self.hop_counts.items()} }>"
