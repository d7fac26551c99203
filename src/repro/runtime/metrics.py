"""A named-metrics registry: counters, gauges, and histograms.

The experiments read a zoo of ad-hoc counters; this module gives them a
single structured home.  A :class:`MetricsRegistry` owns every metric by
name, so a run can be summarized (``registry.snapshot()``), reset between
benchmark phases without losing the registered structure, and scraped by
monitoring daemons.  :class:`~repro.runtime.tracing.Tracer` is a façade
over one registry: its historical attributes (``sent``, ``dropped``,
``suspended_count``, ...) are live views of registry metrics, so existing
experiments keep working unchanged while new code can address metrics by
name.

Metric flavours:

* :class:`CounterMetric` — a monotone scalar (``inc``).
* :class:`GaugeMetric` — a settable scalar (queue depth, parked age).
* :class:`HistogramMetric` — a value distribution with a bounded
  reservoir: below the cap every observation is kept; beyond it,
  reservoir sampling keeps a uniform sample of everything seen, so
  long runs get honest percentiles in bounded memory.
* :class:`RecentHistogram` — the same summary over the last ``cap``
  observations, with no RNG draw per observation (a serving node's
  per-delivery histograms).
* :class:`LabeledCounter` — a ``collections.Counter`` keyed by label
  (mode, link kind, drop reason...), registered under one name.

Everything is deterministic: the histogram reservoir uses its own seeded
RNG, not global randomness.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from typing import Any, Iterable


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


class GaugeMetric:
    """A named scalar that can move both ways."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, n: float = 1) -> None:
        self.value += n

    def dec(self, n: float = 1) -> None:
        self.value -= n

    def reset(self) -> None:
        self.value = 0.0

    def __repr__(self):
        return f"<Gauge {self.name}={self.value}>"


class HistogramMetric:
    """A value distribution kept in a bounded reservoir.

    Up to ``cap`` observations are stored verbatim.  Past the cap,
    classic reservoir sampling (Vitter's algorithm R) replaces a random
    held sample with probability ``cap / seen``, so the reservoir stays
    a uniform sample of the full stream and summaries remain unbiased.
    ``cap=None`` keeps everything (the historical behavior).
    """

    __slots__ = ("name", "cap", "count", "total", "samples", "_rng")

    def __init__(self, name: str, cap: int | None = None, seed: int = 0x5EED):
        if cap is not None and cap <= 0:
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
        if self.cap is None or len(self.samples) < self.cap:
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
        super().__init__(name)
        self.cap = cap
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

    def inc(self, label: Any, n: int = 1) -> None:
        self[label] += n

    def reset(self) -> None:
        self.clear()


class MetricsRegistry:
    """All metrics of one run, addressable by name.

    ``counter``/``gauge``/``histogram``/``labeled`` are get-or-create:
    asking twice for the same name returns the same object, so producers
    and consumers need only agree on names.  Asking for an existing name
    with a different flavour is an error (one name, one type).
    """

    __slots__ = ("_metrics",)

    def __init__(self):
        self._metrics: dict[str, Any] = {}

    def _get_or_create(self, name: str, kind: type, factory):
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} is {type(metric).__name__}, not {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> CounterMetric:
        return self._get_or_create(name, CounterMetric, lambda: CounterMetric(name))

    def gauge(self, name: str) -> GaugeMetric:
        return self._get_or_create(name, GaugeMetric, lambda: GaugeMetric(name))

    def histogram(self, name: str, cap: int | None = None) -> HistogramMetric:
        return self._get_or_create(
            name, HistogramMetric, lambda: HistogramMetric(name, cap=cap)
        )

    def recent(self, name: str, cap: int) -> RecentHistogram:
        return self._get_or_create(
            name, RecentHistogram, lambda: RecentHistogram(name, cap))

    def labeled(self, name: str) -> LabeledCounter:
        return self._get_or_create(name, LabeledCounter, lambda: LabeledCounter(name))

    def get(self, name: str):
        """The registered metric, or ``None``."""
        return self._metrics.get(name)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> dict[str, Any]:
        """A plain-data dump of every metric's current value.

        Counters/gauges map to numbers, labeled counters to
        ``{str(label): count}`` dicts, histograms to their summary.
        """
        out: dict[str, Any] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, (CounterMetric, GaugeMetric)):
                out[name] = metric.value
            elif isinstance(metric, LabeledCounter):
                out[name] = {str(k): v for k, v in sorted(
                    metric.items(), key=lambda kv: str(kv[0]))}
            elif isinstance(metric, HistogramMetric):
                out[name] = metric.summary()
            else:  # pragma: no cover - no other flavours registered
                out[name] = repr(metric)
        return out

    def reset(self) -> None:
        """Zero every metric *in place*.

        Holders of metric objects (the tracer façade, daemons) keep
        their references valid across a reset — only the values clear.
        """
        for metric in self._metrics.values():
            metric.reset()

    def __repr__(self):
        return f"<MetricsRegistry {len(self._metrics)} metrics>"
