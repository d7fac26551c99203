"""Small statistics helpers shared by experiments and tests (each imports
numpy when it runs, so importing :mod:`repro.util` does not)."""

from __future__ import annotations

from typing import Iterable, Sequence


def summarize(values: Iterable[float]) -> dict:
    """Mean / std / min / p50 / p95 / max of a sample (empty-safe)."""
    import numpy as np
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return {k: 0.0 for k in ("count", "mean", "std", "min", "p50", "p95", "max")}
    return {
        "count": int(arr.size),
        "mean": float(arr.mean()),
        "std": float(arr.std()),
        "min": float(arr.min()),
        "p50": float(np.percentile(arr, 50)),
        "p95": float(np.percentile(arr, 95)),
        "max": float(arr.max()),
    }


def chi_square_uniform(counts: Sequence[int]) -> float:
    """Chi-square statistic of ``counts`` against the uniform distribution.

    Used by E2 to test that ``send`` load-balances replicas: small values
    mean near-uniform assignment.  Returns 0 for degenerate inputs.
    """
    import numpy as np
    arr = np.asarray(counts, dtype=float)
    if arr.size < 2 or arr.sum() == 0:
        return 0.0
    expected = arr.sum() / arr.size
    return float(((arr - expected) ** 2 / expected).sum())


def coefficient_of_variation(values: Sequence[float]) -> float:
    """std/mean — the load-imbalance metric for E14 (0 = perfectly balanced)."""
    import numpy as np
    arr = np.asarray(values, dtype=float)
    if arr.size == 0 or arr.mean() == 0:
        return 0.0
    return float(arr.std() / arr.mean())


def gini(values: Sequence[float]) -> float:
    """Gini coefficient of non-negative ``values`` (another imbalance lens)."""
    import numpy as np
    arr = np.sort(np.asarray(values, dtype=float))
    if arr.size == 0 or arr.sum() == 0:
        return 0.0
    n = arr.size
    index = np.arange(1, n + 1)
    return float((2 * (index * arr).sum() - (n + 1) * arr.sum()) / (n * arr.sum()))
