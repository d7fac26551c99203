"""A named-metrics registry: the one place a number lives.

A :class:`MetricsRegistry` owns every metric of a host by name, and
:meth:`MetricsRegistry.snapshot` is the only function that assembles a
dump: status replies, ``repro top``, the telemetry scrape and the tests
are views of it.  A number gets there in one of two ways:

* a **metric** is written where the thing happens —
  :class:`CounterMetric` (a monotone scalar), :class:`LabeledCounter` (a
  ``collections.Counter`` keyed by mode, link kind, drop reason...),
  :class:`HistogramMetric` (a uniform reservoir of ``cap`` observations
  of everything seen) and :class:`RecentHistogram` (the last ``cap``
  observations, no RNG draw; ``count``/``mean``/``max`` exact);
* a **source** is a function read at scrape time.  A component that
  counts in plain attributes on its hot path (the peer hub, a store, a
  transport) or whose value is computed on demand (a queue depth)
  registers one with :meth:`MetricsRegistry.source` when it is built; its
  value — a number or a plain-data dict — appears in every dump under
  that name, always current, and nothing is copied into a second metric.

Everything is deterministic: the histogram reservoir uses its own seeded
RNG, not global randomness.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from typing import Any, Callable


class CounterMetric:
    """A monotone named scalar."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def reset(self) -> None:
        self.value = 0

    def __repr__(self):
        return f"<Counter {self.name}={self.value}>"


class HistogramMetric:
    """A value distribution kept in a bounded reservoir.

    Up to ``cap`` observations are stored verbatim.  Past the cap,
    classic reservoir sampling (Vitter's algorithm R) replaces a random
    held sample with probability ``cap / seen``, so the reservoir stays
    a uniform sample of the full stream and summaries remain unbiased.
    """

    __slots__ = ("name", "cap", "count", "total", "samples", "_rng")

    def __init__(self, name: str, cap: int, seed: int = 0x5EED):
        if cap <= 0:
            raise ValueError(f"histogram cap must be positive, got {cap}")
        self.name = name
        self.cap = cap
        self.count = 0
        self.total = 0.0
        self.samples: list[float] = []
        self._rng = random.Random(seed)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if len(self.samples) < self.cap:
            self.samples.append(value)
            return
        slot = self._rng.randrange(self.count)
        if slot < self.cap:
            self.samples[slot] = value

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0..100) over the held samples."""
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        idx = min(len(ordered) - 1, max(0, round(q / 100 * (len(ordered) - 1))))
        return ordered[idx]

    def summary(self) -> dict[str, float]:
        if not self.samples:
            return {"count": self.count, "mean": 0.0, "p50": 0.0,
                    "p95": 0.0, "max": 0.0}
        return {
            "count": self.count,
            "mean": self.total / self.count,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "max": max(self.samples),
        }

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.samples.clear()

    def __repr__(self):
        return f"<Histogram {self.name} n={self.count} held={len(self.samples)}>"


class RecentHistogram(HistogramMetric):
    """A value distribution over the most recent ``cap`` observations.

    For a process that observes for ever: appending to a bounded deque
    costs what a list append costs and draws no random number.
    ``count``, ``mean`` and ``max`` stay exact over everything seen; the
    percentiles describe the window.
    """

    __slots__ = ("peak",)

    def __init__(self, name: str, cap: int):
        super().__init__(name, cap)
        self.samples = deque(maxlen=cap)
        self.peak = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value > self.peak:
            self.peak = value
        self.samples.append(value)

    def summary(self) -> dict[str, float]:
        summary = super().summary()
        if self.count:
            summary["max"] = self.peak
        return summary

    def reset(self) -> None:
        super().reset()
        self.peak = float("-inf")


class LabeledCounter(Counter):
    """A per-label counter family registered under one name.

    Subclasses :class:`collections.Counter`, so every Counter idiom the
    experiments already use (indexing, ``.values()``, ``.get``) works on
    the registered metric directly.
    """

    def __init__(self, name: str):
        super().__init__()
        self.name = name

    def reset(self) -> None:
        self.clear()


class MetricsRegistry:
    """All metrics of one host, addressable by name.

    ``counter``/``histogram``/``recent``/``labeled`` are get-or-create:
    asking twice for the same name returns the same object, so producers
    and consumers need only agree on names.  Asking for an existing name
    with a different flavour is an error (one name, one type), and so is
    registering a source under a name that is taken.
    """

    __slots__ = ("_metrics", "_sources")

    def __init__(self):
        self._metrics: dict[str, Any] = {}
        self._sources: dict[str, Callable[[], Any]] = {}

    def _get_or_create(self, name: str, kind: type, *args):
        metric = self._metrics.get(name)
        if metric is None:
            if name in self._sources:
                raise TypeError(f"metric {name!r} is a read-at-scrape source")
            metric = kind(name, *args)
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} is {type(metric).__name__}, not {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> CounterMetric:
        return self._get_or_create(name, CounterMetric)

    def histogram(self, name: str, cap: int) -> HistogramMetric:
        return self._get_or_create(name, HistogramMetric, cap)

    def recent(self, name: str, cap: int) -> RecentHistogram:
        return self._get_or_create(name, RecentHistogram, cap)

    def labeled(self, name: str) -> LabeledCounter:
        return self._get_or_create(name, LabeledCounter)

    def source(self, name: str, read: Callable[[], Any]) -> None:
        """Have every dump carry ``read()`` — a number or a plain-data
        dict, computed when the dump is taken — under ``name``."""
        if name in self._metrics or name in self._sources:
            raise TypeError(f"metric {name!r} is already registered")
        self._sources[name] = read

    def __getitem__(self, name: str):
        """The metric registered as ``name`` (``KeyError`` if none is)."""
        return self._metrics[name]

    def snapshot(self) -> dict[str, Any]:
        """A plain-data dump of every current value, by name.

        Counters map to numbers, labeled counters to ``{str(label):
        count}`` dicts, histograms to their summary, sources to what
        they return when read now.
        """
        out: dict[str, Any] = {name: read()
                               for name, read in self._sources.items()}
        for name, metric in self._metrics.items():
            if isinstance(metric, CounterMetric):
                out[name] = metric.value
            elif isinstance(metric, LabeledCounter):
                out[name] = {str(k): v for k, v in sorted(
                    metric.items(), key=lambda kv: str(kv[0]))}
            else:
                out[name] = metric.summary()
        return dict(sorted(out.items()))

    def reset(self) -> None:
        """Zero every metric *in place*.

        Holders of metric objects (the tracer's hooks, daemons) keep
        their references valid across a reset — only the values clear.
        Sources have no value of their own to clear.
        """
        for metric in self._metrics.values():
            metric.reset()

    def __repr__(self):
        return (f"<MetricsRegistry {len(self._metrics)} metrics, "
                f"{len(self._sources)} sources>")
