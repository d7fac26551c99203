"""``pool-script``: the §6 process pool, every behaviour in the script language.

The divide-and-conquer pool of ``examples/script_pool.py`` — its
``POOL_SCRIPTS`` are loaded verbatim, so the program under test is the
shipped example — on ``Topology.lan(3)`` with 6 workers of grain 512.
A job sums ``0..n``: workers split it with ``send "procpool/**"``, leaves
run a ``while`` iteration per item, collectors (``create``, ``become``,
``terminate``) merge the partial sums, and the client prints the total,
which must equal the closed form.

The four native workloads never enter ``repro.interp``; here it does
most of the work.

* phase L — fine-grained jobs (a second tree-engine pool of grain 2, so
  128 items split into 64 leaves and 63 collectors): ``op_p50_ms`` is the
  median latency of one such job — all ``send``/``create``/``become``,
  hardly any loop;
* phase A — big jobs, tree engine: ``ops_per_s`` is items summed/second;
* phase B — big jobs, bytecode engine: ``alt_ops_per_s`` likewise.
"""

from __future__ import annotations

import importlib.util
import random
import time

from repro.interp import BehaviorLibrary, InterpretedBehavior

import harness
from stats import median, percentile, spread
from harness import ROOT, SLICES, Result, Timed, scaled

NODES = 3
WORKERS = 6
GRAIN = 512
#: Items per big job (one job is one slice) at scale 1.
JOB_ITEMS = 45_000
FINE_GRAIN = 2
FINE_ITEMS = 64 * FINE_GRAIN
FINE_JOBS_PER_SLICE = 12
SETUPS = 9


def _pool_scripts() -> str:
    """``POOL_SCRIPTS`` of the shipped example, without running it."""
    spec = importlib.util.spec_from_file_location(
        "script_pool_example", ROOT / "examples" / "script_pool.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.POOL_SCRIPTS


class _Pool:
    def __init__(self, engine: str, grain: int, seed: int, recorder,
                 scripts: str):
        rng = random.Random(seed)
        self.engine = engine
        self.driver = harness.SimDriver(NODES, seed, recorder)
        self.system = self.driver.system
        self.library = BehaviorLibrary()
        self.library.load(scripts)
        for _ in range(WORKERS):
            worker = self.system.create_actor(
                InterpretedBehavior(self.library, self.library.get("s-worker"),
                                    [grain], engine=engine),
                node=rng.randrange(NODES))
            self.system.make_visible(worker,
                                     f"procpool/w{rng.randrange(10**6)}")
        self.system.run()
        self.jobs = 0
        self.wrong = 0

    def job(self, items: int) -> float:
        """Sum ``0..items`` through the pool; seconds it took."""
        started = time.perf_counter()
        client = self.system.create_actor(InterpretedBehavior(
            self.library, self.library.get("s-client"),
            ["procpool/**", 0, items], engine=self.engine))
        self.system.send_to(client, ["start"])
        self.system.run()
        elapsed = time.perf_counter() - started
        output = self.system.actor_record(client).behavior.output
        self.jobs += 1
        if output != [f"result: {items * (items - 1) // 2}"]:
            self.wrong += 1
        return elapsed


def run(name: str, seed: int, scale: float, traced: bool, recorder,
        spans_dir=None) -> Result:
    result = Result(name, seed, scale, traced)
    scripts = _pool_scripts()
    setups = []
    for _ in range(1 if traced else SETUPS):
        started = time.perf_counter()
        tree = _Pool("tree", GRAIN, seed, recorder, scripts)
        tree.job(FINE_ITEMS)
        setups.append(time.perf_counter() - started)
    vm = _Pool("bytecode", GRAIN, seed, recorder, scripts)
    fine = _Pool("tree", FINE_GRAIN, seed, recorder, scripts)
    driver = tree.driver
    fraction = harness.TRACED_FRACTION if traced else 1.0
    items = scaled(JOB_ITEMS * fraction, scale)
    fine_jobs = scaled(FINE_JOBS_PER_SLICE * fraction, scale)

    tree.job(items)  # one untimed job per pool
    vm.job(items)
    fine.job(FINE_ITEMS)
    baseline = None
    if traced:
        baseline = max(
            items / tree.job(items) for _ in range(harness.BASELINE_SLICES))
        harness.start_tracing(driver)

    fine_s, tree_s, vm_s = [], [], []
    timed = Timed(driver.pids)
    # The three phases take turns so each samples the whole run.
    for _ in range(SLICES):
        with timed:
            fine_s += [fine.job(FINE_ITEMS) for _ in range(fine_jobs)]
            tree_s.append(tree.job(items))
            vm_s.append(vm.job(items))
    round_items = fine_jobs * FINE_ITEMS + 2 * items
    summed = SLICES * round_items

    if traced:
        table = harness.traced_table(driver, spans_dir, summed, timed.wall_s)
        rates = [items / s for s in tree_s]
        table["harness.trace_overhead_ratio"] = max(rates) / baseline
        table["harness.slice_spread"] = spread(rates)
        result.table(table)
    else:
        result.metric("setup_s", median(setups), samples=len(setups),
                      slices=setups)
        result.fastest("ops_per_s", items, tree_s)
        result.fastest("alt_ops_per_s", items, vm_s)
        result.quickest(
            "op_p50_ms",
            [percentile(sorted(fine_s[i:i + fine_jobs]), 0.5) * 1e3
             for i in range(0, len(fine_s), fine_jobs)], samples=len(fine_s))
        result.quickest("cpu_us_per_op",
                        [cpu * 1e6 / round_items for cpu in timed.cpu_blocks],
                        samples=SLICES)
        result.metric("peak_rss_mb", harness.peak_rss_mb(driver.pids))

    pools = (tree, vm, fine)
    wrong = sum(pool.wrong for pool in pools)
    failures = sum(sum(pool.driver.failure_counts().values()) for pool in pools)
    result.check("results_match_closed_form", wrong == 0)
    result.check("no_dead_letters_shed_or_rejected", failures == 0)
    result.check("replicas_coherent",
                 all(pool.driver.coherent() for pool in pools))
    result.offered(sum(pool.jobs for pool in pools), wrong + failures)
    driver.close()
    return result
