"""Abstract transport objects.

Section 7.2: "The Coordinator and the executing actors communicate through
abstract transport objects which are subclassed to use a specific message
passing mechanism; the mechanism may be selected at run-time."  The same
abstraction carries coordinator-to-coordinator traffic (section 7.3).

A transport's one job is to answer: *when does this payload arrive, if at
all?*  It returns a latency (or raises/returns ``None`` for a drop) and
the runtime schedules the delivery event.  Three implementations:

* :class:`InstantTransport` — fixed negligible latency; used by unit tests
  that want semantics without timing noise.
* :class:`NetworkTransport` — latencies from the :class:`~repro.runtime.network.Network`
  model; the default.
* :class:`LossyTransport` — wraps another transport and drops each attempt
  with probability ``loss``; paired with sender retransmission so that the
  actor model's guaranteed-eventual-delivery still holds (used by the
  reliability experiment E11 and failure-injection tests).

Crash injection lives here too: a transport consults the set of crashed
nodes and refuses delivery to them.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core.errors import NodeDownError

from .network import Network


class Transport(abc.ABC):
    """Decides delivery latency (or drop) for one hop between nodes.

    Every transport carries per-instance accounting: ``attempts`` counts
    delivery attempts observed, ``drops`` the attempts that were lost.
    They are initialized here, in ``__init__`` — as class attributes they
    looked per-instance but a subclass forgetting its own assignments
    would have silently accumulated counts on the *class*, shared across
    every system in the process.  Subclasses must call
    ``super().__init__()``.
    """

    def __init__(self):
        #: Number of delivery attempts observed (accounting).
        self.attempts = 0
        #: Number of attempts that were dropped.
        self.drops = 0

    @abc.abstractmethod
    def try_deliver(self, src_node: int, dst_node: int) -> float | None:
        """Latency for this attempt, or ``None`` if the attempt is lost."""

    def deliver_latency(
        self, src_node: int, dst_node: int, max_retries: int = 100
    ) -> float:
        """Total latency including retransmissions until success.

        Models a simple stop-and-wait retransmission: each failed attempt
        costs one timeout interval (twice the eventual successful latency
        is a fair stand-in; we use the per-attempt draw).  Guarantees
        eventual delivery as long as the loss rate is below 1.

        Raises
        ------
        RuntimeError
            If ``max_retries`` attempts all fail (loss = 1.0 would
            otherwise loop forever; the actor guarantee presumes a live
            link).
        """
        total = 0.0
        for _ in range(max_retries):
            latency = self.try_deliver(src_node, dst_node)
            if latency is not None:
                return total + latency
            # A lost attempt is detected after a timeout, modelled as one
            # base-latency interval of the successful path.
            total += self.timeout_interval(src_node, dst_node)
        raise RuntimeError(
            f"transport could not deliver {src_node}->{dst_node} after {max_retries} attempts"
        )

    def timeout_interval(self, src_node: int, dst_node: int) -> float:
        """Retransmission timeout for the link (override for tuned models)."""
        return 1.0

    def node_is_down(self, node: int) -> bool:
        """Is ``node`` currently crashed?  (Liveness oracle for the bus
        protocols and the dead-letter queue; transports without crash
        injection report everything live.)"""
        return False

    def metrics_snapshot(self) -> dict:
        """The transport's accounting counters, for observability export."""
        return {"attempts": self.attempts, "drops": self.drops}


class InstantTransport(Transport):
    """Delivers everything after a fixed tiny latency (tests)."""

    def __init__(self, latency: float = 0.001):
        super().__init__()
        self.latency = latency

    def try_deliver(self, src_node: int, dst_node: int) -> float | None:
        self.attempts += 1
        return self.latency

    def timeout_interval(self, src_node: int, dst_node: int) -> float:
        return self.latency * 2


class NetworkTransport(Transport):
    """Latencies from the topology-aware network model (the default)."""

    def __init__(self, network: Network):
        super().__init__()
        self.network = network
        #: Nodes currently crashed: delivery to/from them fails terminally.
        self.crashed: set[int] = set()

    def crash_node(self, node: int) -> None:
        """Mark ``node`` down; messages to it are dropped without retry."""
        self.crashed.add(node)

    def recover_node(self, node: int) -> None:
        """Bring ``node`` back up."""
        self.crashed.discard(node)

    def node_is_down(self, node: int) -> bool:
        return node in self.crashed

    def try_deliver(self, src_node: int, dst_node: int) -> float | None:
        self.attempts += 1
        if src_node in self.crashed or dst_node in self.crashed:
            self.drops += 1
            return None
        return self.network.latency(src_node, dst_node)

    def deliver_latency(self, src_node: int, dst_node: int, max_retries: int = 100) -> float:
        # Crashes are terminal, not transient, and between two live nodes
        # this transport loses nothing: one attempt decides, without the ladder.
        latency = self.try_deliver(src_node, dst_node)
        if latency is None:
            raise NodeDownError(f"node {dst_node if dst_node in self.crashed else src_node} is down")
        return latency

    def timeout_interval(self, src_node: int, dst_node: int) -> float:
        kind = self.network.topology.link_kind(src_node, dst_node)
        return 2.0 * self.network.latency_model.base(kind)


class LossyTransport(Transport):
    """Wraps another transport, losing each attempt with probability ``loss``."""

    def __init__(self, inner: Transport, loss: float, rng: np.random.Generator):
        if not 0.0 <= loss < 1.0:
            raise ValueError("loss probability must be in [0, 1)")
        super().__init__()
        self.inner = inner
        self.loss = loss
        self._rng = rng

    def try_deliver(self, src_node: int, dst_node: int) -> float | None:
        self.attempts += 1
        if float(self._rng.random()) < self.loss:
            self.drops += 1
            return None
        return self.inner.try_deliver(src_node, dst_node)

    def timeout_interval(self, src_node: int, dst_node: int) -> float:
        return self.inner.timeout_interval(src_node, dst_node)

    def node_is_down(self, node: int) -> bool:
        return self.inner.node_is_down(node)

    def metrics_snapshot(self) -> dict:
        """Own counters plus the wrapped transport's, nested under ``inner``."""
        snapshot = super().metrics_snapshot()
        snapshot["inner"] = self.inner.metrics_snapshot()
        return snapshot
