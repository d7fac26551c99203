#!/usr/bin/env python3
"""Compare two report files written by ``run.py --out``.

    python3 benchmarks/perf/compare.py A.json B.json

For every (workload, end-to-end metric) pair it prints B's worsening
relative to A — as a share of A, signed so that positive is worse —
against the bound ``BENCHMARK.json`` fixes for that metric:

* ``REGRESSION``  worse by more than the bound;
* ``improved``    better by more than the bound;
* ``unresolved``  within the bound, but the spread between the slices of
  either run (IQR/median, ``harness.slice_spread``) is wider than the
  bound, so "no change" cannot be claimed from these two runs;
* ``unchanged``   within the bound and the slices were steady.

A higher ``fail_ratio`` is always a regression.  Per-layer rows of the
traced pass, when both files have them, are listed below each workload
as plain deltas (they carry no bound).  Exit status 1 on any regression.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def _index(path: str) -> dict[tuple[str, str], dict]:
    with open(path, encoding="utf-8") as fh:
        return {(rec["workload"], rec["pass"]): rec for rec in json.load(fh)}


def worsening(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    if a == 0:
        return 0.0
    return (b - a) / a if better == "lower" else (a - b) / a


def verdict(worse: float, bound: float, spread: float) -> str:
    if worse > bound:
        return "REGRESSION"
    if worse < -bound:
        return "improved"
    return "unresolved" if spread > bound else "unchanged"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    first, second = _index(argv[0]), _index(argv[1])
    regressions = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        a, b = first.get((workload, "untraced")), second.get((workload, "untraced"))
        if a is None or b is None:
            continue
        print(f"\n== {workload}   (seeds {a['seed']} / {b['seed']}, "
              f"commits {a['provenance']['commit'][:10]} / "
              f"{b['provenance']['commit'][:10]})")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            ma, mb = a["metrics"][name], b["metrics"][name]
            worse = worsening(ma["value"], mb["value"], metric["better"])
            spread = max(ma["slice_spread"], mb["slice_spread"])
            word = verdict(worse, metric["bound"], spread)
            regressions += word == "REGRESSION"
            print(f"  {name:<16} {ma['value']:>14.4f} -> {mb['value']:>14.4f} "
                  f"{metric['unit']:<4} worse by {worse:+7.3f} "
                  f"(bound {metric['bound']:.2f}, slice spread {spread:.3f})  "
                  f"{word}")
        if b["fail_ratio"] > a["fail_ratio"]:
            regressions += 1
            print(f"  fail_ratio       {a['fail_ratio']:.6f} -> "
                  f"{b['fail_ratio']:.6f}  REGRESSION")
        ta, tb = first.get((workload, "traced")), second.get((workload, "traced"))
        if ta is None or tb is None:
            continue
        for name, ma in ta["metrics"].items():
            mb = tb["metrics"][name]
            if ma["value"] or mb["value"]:
                print(f"    {name:<36} {ma['value']:>12.4f} -> "
                      f"{mb['value']:>12.4f} {ma['unit']}")
    print(f"\n{regressions} regression(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
