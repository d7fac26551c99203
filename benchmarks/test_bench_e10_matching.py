"""E10 — sections 5.1 and 7.1: pattern-matching throughput at scale.

The prototype's patterns are regular expressions over atoms resolved
against per-space registries.  The experiment sweeps registry size and
pattern class (literal / one-level wildcard / glob / deep ``**`` with
nested spaces) and reports resolutions per second plus entries examined.
E10d adds the epoch-invalidated resolution cache: repeated resolutions
under stable visibility (a hot group re-resolved per send) cached vs
uncached, and E10e the churn scenarios distinguishing an on-path
change (the one changed entry repaired) from unrelated-mutation
revalidation.
"""

import time

from repro.core.actorspace import SpaceRecord
from repro.core.addresses import ActorAddress, SpaceAddress
from repro.core.matching import MatchStats, ResolutionCache, resolve_actors
from repro.core.visibility import Directory
from repro.util import TextTable

from .common import emit


def _registry(n_entries, nested=False):
    d = Directory()
    root = SpaceAddress(0, 0)
    d.add_space(SpaceRecord(root))
    if not nested:
        for i in range(n_entries):
            d.make_visible(
                ActorAddress(0, i + 1),
                f"services/kind{i % 50}/inst{i}",
                root,
            )
        return d, root
    # Nested: 10 sub-spaces, entries spread under them.
    subs = []
    for s in range(10):
        sub = SpaceAddress(1, s)
        d.add_space(SpaceRecord(sub))
        d.make_visible(sub, f"dept{s}", root)
        subs.append(sub)
    for i in range(n_entries):
        d.make_visible(
            ActorAddress(0, i + 1),
            f"kind{i % 50}/inst{i}",
            subs[i % 10],
        )
    return d, root


def _measure(d, root, pattern, repeats=30):
    stats = MatchStats()
    t0 = time.perf_counter()
    for _ in range(repeats):
        result = resolve_actors(d, pattern, root, stats)
    elapsed = (time.perf_counter() - t0) / repeats
    return len(result), elapsed * 1e3, stats.entries_examined // repeats


def _measure_cached(d, root, pattern, repeats=30):
    cache = ResolutionCache()
    resolve_actors(d, pattern, root, cache=cache)  # fill (one miss)
    t0 = time.perf_counter()
    for _ in range(repeats):
        result = resolve_actors(d, pattern, root, cache=cache)
    elapsed = (time.perf_counter() - t0) / repeats
    return len(result), elapsed * 1e3, cache


PATTERNS = [
    ("literal", "services/kind7/inst7"),
    ("one-star", "services/kind7/*"),
    ("glob", "services/kind?/inst1*"),
    ("deep", "**/inst42"),
]


def test_bench_e10_matching(benchmark):
    flat = TextTable(
        ["registry", "pattern class", "matches", "ms/resolve",
         "entries examined"],
        title="E10a: flat registry resolution",
    )
    for n in (100, 1_000, 10_000, 100_000):
        d, root = _registry(n)
        for label, pattern in PATTERNS:
            matches, ms, examined = _measure(
                d, root, pattern, repeats=5 if n >= 100_000 else 30)
            flat.add_row([n, label, matches, ms, examined])

    index = TextTable(
        ["registry", "pattern", "ms (indexed fast path)", "ms (full scan)",
         "speedup"],
        title="E10c: literal-prefix index ablation",
    )
    for n in (10_000, 100_000):
        d, root = _registry(n)
        # Indexed: first atom is the literal "services" -> narrow bucket?
        # All entries share "services" here, so use a per-kind registry
        # where the first atom discriminates.
        d2 = Directory()
        root2 = SpaceAddress(0, 0)
        d2.add_space(SpaceRecord(root2))
        for i in range(n):
            d2.make_visible(ActorAddress(0, i + 1),
                            f"kind{i % 50}/inst{i}", root2)
        _m, indexed_ms, _e = _measure(d2, root2, "kind7/inst7",
                                      repeats=5 if n >= 100_000 else 30)
        # Full scan: leading one-atom wildcard defeats the index while
        # matching the same single entry.
        _m, scan_ms, _e = _measure(d2, root2, "kind?/inst7",
                                   repeats=5 if n >= 100_000 else 30)
        index.add_row([n, "kind7/inst7 vs kind?/inst7", indexed_ms, scan_ms,
                       scan_ms / indexed_ms])

    nested = TextTable(
        ["registry", "pattern class", "matches", "ms/resolve"],
        title="E10b: nested registries (10 sub-spaces, structured attributes)",
    )
    for n in (1_000, 10_000):
        d, root = _registry(n, nested=True)
        for label, pattern in [
            ("structured literal", "dept3/kind13/inst13"),
            ("structured star", "dept3/kind13/*"),
            ("cross-space deep", "**/inst77"),
        ]:
            matches, ms, _ex = _measure(d, root, pattern)
            nested.add_row([n, label, matches, ms])

    cached_tbl = TextTable(
        ["registry", "pattern class", "ms uncached", "ms cached", "speedup",
         "hits", "misses"],
        title="E10d: resolution cache, repeated resolution, stable visibility",
    )
    for n in (1_000, 10_000, 100_000):
        d, root = _registry(n)
        repeats = 5 if n >= 100_000 else 30
        for label, pattern in PATTERNS:
            _m, uncached_ms, _e = _measure(d, root, pattern, repeats)
            _m, cached_ms, cache = _measure_cached(d, root, pattern, repeats)
            speedup = uncached_ms / cached_ms if cached_ms else float("inf")
            cached_tbl.add_row([n, label, uncached_ms, cached_ms, speedup,
                                cache.hits, cache.misses])
            if n >= 10_000:
                # Acceptance floor; in practice the hit path is a dict
                # probe and the speedup is orders of magnitude.
                assert speedup >= 2.0, (
                    f"cache speedup {speedup:.2f}x < 2x for {label} at n={n}"
                )

    churn = TextTable(
        ["registry", "churn kind", "ms/resolve", "hits", "misses",
         "invalidations", "repairs"],
        title="E10e: one visibility op between resolutions "
              "(on-path repairs the changed entry; unrelated revalidates "
              "by epoch)",
    )
    for n in (10_000,):
        for kind in ("on-path", "unrelated"):
            d, root = _registry(n)
            other = SpaceAddress(3, 0)
            d.add_space(SpaceRecord(other))
            mutated = root if kind == "on-path" else other
            cache = ResolutionCache()
            resolve_actors(d, "services/kind7/*", root, cache=cache)
            repeats, toggle = 30, ActorAddress(2, 0)
            t0 = time.perf_counter()
            for i in range(repeats):
                if i % 2:
                    d.make_invisible(toggle, mutated)
                else:
                    d.make_visible(toggle, "churn/x", mutated)
                resolve_actors(d, "services/kind7/*", root, cache=cache)
            elapsed = (time.perf_counter() - t0) / repeats
            churn.add_row([n, kind, elapsed * 1e3, cache.hits, cache.misses,
                           cache.invalidations, cache.repairs])
            if kind == "on-path":
                # One re-test instead of a walk of the whole bucket.
                _m, walk_ms, _e = _measure(d, root, "services/kind7/*")
                assert walk_ms >= 50 * elapsed * 1e3, (
                    f"on-path repair {elapsed * 1e3:.3f} ms is not 50x "
                    f"cheaper than a {walk_ms:.3f} ms walk")
    emit("e10_matching", flat, index, nested, cached_tbl, churn)

    d, root = _registry(10_000)
    cache = ResolutionCache()
    resolve_actors(d, "services/kind7/*", root, cache=cache)
    benchmark(lambda: resolve_actors(d, "services/kind7/*", root, cache=cache))
