"""Smoke test of the benchmark itself (``pytest benchmarks/perf -q``).

Outside tier-1 ``testpaths``: it starts real node processes.  Every pass
runs at 1/20 length through the same command line the driver uses.
"""

from __future__ import annotations

import functools
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SIMULATED = [w for w in WORKLOADS if w.endswith("-sim")]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

sys.path.insert(0, str(HERE))


def _run(workload: str, trace: int, seed: int = 5, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
         "--trace", str(trace), "--smoke"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170)


@functools.lru_cache(maxsize=None)
def smoke(workload: str, trace: int, repeat: int = 0) -> dict:
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_spec_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert 2 <= len(WORKLOADS) <= 8 and 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.match(n) for n in names) and len(set(names)) == len(names)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}


def test_per_layer_names_are_the_layer_table():
    import layers

    assert [m["name"] for m in SPEC["per_layer"]] == list(layers.ALL)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_pass(workload):
    out = smoke(workload, 0)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert set(out["metrics"]) == set(units)
    for name, metric in out["metrics"].items():
        assert metric["unit"] == units[name]
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_pass_budget_adds_up(workload):
    import layers

    out = smoke(workload, 1)
    assert out["correct"] is True
    value = {name: m["value"] for name, m in out["metrics"].items()}
    assert set(value) == set(layers.ALL)
    rows = sum(value[name] for name in layers.SELF_TIME)
    assert rows == pytest.approx(value["budget.layers_us_per_op"], rel=1e-9)
    total = (value["budget.layers_us_per_op"] + value["budget.idle_us_per_op"]
             + value["budget.unaccounted_us_per_op"])
    assert total == pytest.approx(value["budget.e2e_us_per_op"], rel=1e-9)
    if workload in SIMULATED:
        assert value["budget.accounted_ratio"] >= 0.8


@pytest.mark.parametrize("workload", WORKLOADS)
def test_written_predictions_hold(workload):
    value = {n: m["value"] for n, m in smoke(workload, 1)["metrics"].items()}
    wire = [n for n in value if n.startswith(("net.", "store."))]
    if not workload.endswith("-tcp"):
        assert not any(value[n] for n in wire), \
            [n for n in wire if value[n]]
    interp = [n for n in value if n.startswith("interp.")]
    if workload == "pool-script":
        assert all(value[n] > 0 for n in interp)
    else:
        assert not any(value[n] for n in interp)
    assert (value["store.node_store.fsyncs_per_op"] > 0) == \
        (workload == "vis-durable-tcp")
    if workload == "churn-sim":
        assert value["core.matching.hit_ratio"] == 0.75
        assert value["core.visibility.apply_us"] > 0
    if workload in ("rpc-sim", "rpc-tcp"):
        assert value["core.matching.hit_ratio"] == 1.0
        assert value["core.visibility.apply_us"] == 0


@pytest.mark.parametrize("workload", SIMULATED)
def test_counts_repeat_exactly_for_a_fixed_seed(workload):
    counts = [m["name"] for m in SPEC["per_layer"]
              if m["unit"] in ("count", "ratio")
              and not m["name"].startswith(("harness.", "budget."))]
    first, second = smoke(workload, 1, 0), smoke(workload, 1, 1)
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


def test_fails_without_the_system_under_test(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__", ".run"))
    done = _run("rpc-sim", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_compare_flags_regressions_and_unsteady_runs(tmp_path):
    import compare

    def report(ops_per_s, spread, failed=0):
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"],
                               "slice_spread": 0.0}
                   for m in SPEC["end_to_end"]}
        metrics["ops_per_s"] = {"value": ops_per_s, "unit": "1/s",
                                "slice_spread": spread}
        return [{"workload": "rpc-sim", "pass": "untraced", "seed": 1,
                 "fail_ratio": failed, "metrics": metrics,
                 "provenance": {"commit": "0" * 40}}]

    def compared(a, b):
        for name, rows in (("a.json", a), ("b.json", b)):
            (tmp_path / name).write_text(json.dumps(rows), encoding="utf-8")
        return compare.main([str(tmp_path / "a.json"), str(tmp_path / "b.json")])

    assert compared(report(1000, 0.01), report(980, 0.01)) == 0
    assert compared(report(1000, 0.01), report(700, 0.01)) == 1
    assert compared(report(1000, 0.01), report(1000, 0.01, failed=0.1)) == 1
    assert compare.verdict(0.02, 0.10, 0.30) == "unresolved"
    assert compare.verdict(0.02, 0.10, 0.03) == "unchanged"
    assert compare.verdict(-0.2, 0.10, 0.03) == "improved"
    assert compare.verdict(0.2, 0.10, 0.03) == "REGRESSION"
