"""Tests: the conformance oracle end-to-end.

Clean sweeps must stay clean; injected bugs must be caught AND shrunk to
small replayable traces — the harness's own acceptance test (a checker
that can't catch a planted bug proves nothing).
"""

import json

import pytest

from repro.check import check_scenario, generate_scenario
from repro.check.cli import run_check
from repro.check.inject import INJECTIONS
from repro.check.schedule import RandomTieBreaker
from repro.check.shrink import shrink_scenario


class TestCleanSweep:
    @pytest.mark.parametrize("seed", [0, 1, 2, 4, 7])
    def test_generated_scenarios_conform(self, seed):
        report = check_scenario(generate_scenario(seed))
        assert report.ok, report.summary() + "".join(
            f"\n  {d}" for d in report.divergences)

    @pytest.mark.parametrize("seed", [3, 23])
    def test_crash_recover_scenarios_conform(self, seed):
        scenario = generate_scenario(seed)
        assert any(c["op"] == "crash" for c in scenario.commands)
        report = check_scenario(scenario)
        assert report.ok, report.summary() + "".join(
            f"\n  {d}" for d in report.divergences)
        assert report.crashes >= 1

    def test_random_walk_schedules_conform(self):
        scenario = generate_scenario(3)
        for walk in range(3):
            report = check_scenario(scenario,
                                    tiebreaker=RandomTieBreaker(walk))
            assert report.ok, report.summary()


def first_divergence(inject, seeds):
    """The first generated scenario the injected bug diverges on."""
    for seed in seeds:
        scenario = generate_scenario(seed)
        report = check_scenario(scenario, inject=inject)
        if not report.ok:
            return scenario, report
    raise AssertionError("injected bug never caught")


class TestInjectedBugs:
    def test_arbitration_bug_caught_and_shrunk(self):
        inject = INJECTIONS["arbitration-stale"]
        scenario, report = first_divergence(inject, range(30, 40))
        assert any("5.3" in d or "arbitration" in d
                   for d in map(str, report.divergences))
        shrunk, _checks = shrink_scenario(
            scenario, lambda s: check_scenario(s, inject=inject))
        assert len(shrunk) <= 10
        assert not check_scenario(shrunk, inject=inject).ok
        # The shrunk trace is clean on the unbroken runtime.
        assert check_scenario(shrunk).ok

    def test_stale_resolution_bug_caught_and_shrunk(self):
        inject = INJECTIONS["stale-resolution"]
        scenario, report = first_divergence(inject, range(0, 10))
        shrunk, _checks = shrink_scenario(
            scenario, lambda s: check_scenario(s, inject=inject))
        assert len(shrunk) <= 10
        assert not check_scenario(shrunk, inject=inject).ok
        assert check_scenario(shrunk).ok

    def test_repair_bug_caught_and_shrunk(self):
        inject = INJECTIONS["repair-keeps-stale"]
        scenario, _report = first_divergence(inject, range(0, 40))
        shrunk, _checks = shrink_scenario(
            scenario, lambda s: check_scenario(s, inject=inject))
        assert len(shrunk) <= 10
        assert not check_scenario(shrunk, inject=inject).ok
        assert check_scenario(shrunk).ok

    def test_injection_teardown_restores_runtime(self):
        inject = INJECTIONS["arbitration-stale"]
        scenario, _report = first_divergence(inject, range(30, 40))
        # After the injected run tears down, the same scenario is clean.
        assert check_scenario(scenario).ok


class TestCheckCommand:
    def test_clean_sweep_exits_zero(self, capsys):
        assert run_check(["--seeds", "4"]) == 0
        out = capsys.readouterr().out
        assert "0 divergences" in out

    def test_injected_sweep_exits_one_and_writes_artifact(self, tmp_path,
                                                          capsys):
        code = run_check(["--seeds", "10", "--seed", "30",
                          "--inject", "arbitration-stale",
                          "--out", str(tmp_path)])
        assert code == 1
        out = capsys.readouterr().out
        assert "DIVERGENCE" in out and "shrunk" in out
        artifacts = list(tmp_path.glob("conformance-*.repro.json"))
        assert len(artifacts) == 1
        artifact = json.loads(artifacts[0].read_text())
        assert artifact["inject"] == "arbitration-stale"
        assert len(artifact["scenario"]["commands"]) <= 10
        assert artifact["divergences"]

        # Replay reproduces the failure (the artifact records the injection).
        assert run_check(["--replay", str(artifacts[0])]) == 1
        # Without the recorded injection the trace is clean.
        artifact["inject"] = None
        clean = tmp_path / "clean.repro.json"
        clean.write_text(json.dumps(artifact))
        assert run_check(["--replay", str(clean)]) == 0

    def test_budget_bounds_the_sweep(self, capsys):
        assert run_check(["--seeds", "500", "--budget", "2"]) in (0, 1)
        out = capsys.readouterr().out
        assert "budget exhausted" in out or "0 divergences" in out

    def test_bad_replay_path_exits_two(self, capsys):
        assert run_check(["--replay", "/no/such/file.json"]) == 2

    def test_main_module_wires_check(self, capsys):
        from repro.__main__ import main
        assert main(["check", "--seeds", "1"]) == 0
        assert "conformance" in capsys.readouterr().out
