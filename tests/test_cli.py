"""Tests: the ``python -m repro`` command line, incl. the trace exporter."""

import json

from repro.__main__ import (
    EXAMPLES,
    EXPERIMENTS,
    examples_dir,
    experiments_drift,
    main,
)
from repro.runtime.eventlog import validate_chrome_trace


class TestBasicCommands:
    def test_help_exit_codes(self, capsys):
        assert main(["help"]) == 0
        assert main(["no-such-command"]) == 1

    def test_examples_listing(self, capsys):
        assert main(["examples"]) == 0
        out = capsys.readouterr().out
        for name, _ in EXAMPLES:
            assert name in out

    def test_experiments_listing(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "E10" in out and "E19" in out

    def test_version(self, capsys):
        assert main(["version"]) == 0
        assert capsys.readouterr().out.strip()


class TestExperimentsDrift:
    def test_table_matches_benchmarks_on_disk(self):
        """CI drift check: EXPERIMENTS must mirror benchmarks/ exactly."""
        missing, untracked = experiments_drift()
        assert missing == [], f"EXPERIMENTS lists absent benchmarks: {missing}"
        assert untracked == [], (
            f"benchmark files not listed in EXPERIMENTS: {untracked}"
        )

    def test_table_shape(self):
        assert len(EXPERIMENTS) == 19
        assert all(len(row) == 4 for row in EXPERIMENTS)


class TestTraceCommand:
    def test_trace_resolves_bare_example_name(self, tmp_path, capsys):
        out_file = tmp_path / "quickstart.trace.json"
        assert main(["trace", "quickstart.py", "--out", str(out_file)]) == 0
        trace = json.loads(out_file.read_text())
        assert validate_chrome_trace(trace) == []
        phases = {r["ph"] for r in trace["traceEvents"]}
        assert {"M", "i", "X", "s", "f"} <= phases

    def test_trace_missing_example(self, capsys):
        assert main(["trace", "definitely-not-here.py"]) == 2

    def test_trace_needs_argument(self, capsys):
        assert main(["trace"]) == 2
        assert main(["trace", "--out"]) == 2

    def test_examples_dir_exists_and_lists_shipped_scripts(self):
        names = {p.name for p in examples_dir().glob("*.py")}
        for name, _ in EXAMPLES:
            assert name in names


class TestFaultInjectionFlags:
    def test_trace_with_crash_and_recover_schedule(self, tmp_path, capsys):
        out_file = tmp_path / "faulty.trace.json"
        assert main([
            "trace", "quickstart.py", "--out", str(out_file),
            "--crash", "0.5:1", "--recover", "2.0:1",
        ]) == 0
        trace = json.loads(out_file.read_text())
        assert validate_chrome_trace(trace) == []

    def test_crash_spec_must_be_time_colon_node(self, capsys):
        assert main(["trace", "quickstart.py", "--crash", "nonsense"]) == 2
        assert main(["trace", "quickstart.py", "--crash", "0.5"]) == 2
        assert main(["trace", "quickstart.py", "--crash", "x:1"]) == 2
        assert main(["trace", "quickstart.py", "--recover", "1:y"]) == 2

    def test_fault_flag_needs_value(self, capsys):
        assert main(["trace", "quickstart.py", "--crash"]) == 2
