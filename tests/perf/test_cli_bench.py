"""``repro bench`` CLI: happy path, error paths, the gate exit code.

The only benchmark actually executed is ``trace`` (sub-second); the
simulation benchmarks are exercised through the unit-level helpers and
the golden/throughput suites, not through the CLI.
"""

from __future__ import annotations

import json

from repro.cli import main
from repro.perf.bench import BenchResult
from repro.perf.gate import read_baseline, write_baseline


def read_result(tmp_path):
    return BenchResult.read(tmp_path / "BENCH_trace.json")


class TestHappyPath:
    def test_writes_result_file(self, tmp_path, capsys):
        rc = main(["bench", "trace", "--quick",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        result = read_result(tmp_path)
        assert result.name == "trace" and result.quick
        assert result.metrics["replay_uops_per_sec"] > 0
        assert result.calibration_ops_per_sec > 0
        assert result.provenance["python"]
        assert "trace" in capsys.readouterr().out

    def test_write_baseline(self, tmp_path):
        baseline_path = tmp_path / "baseline.json"
        rc = main(["bench", "trace", "--quick",
                   "--out-dir", str(tmp_path),
                   "--write-baseline", str(baseline_path)])
        assert rc == 0
        baseline = read_baseline(baseline_path)
        assert set(baseline) == {"trace"}

    def test_profile_flag_adds_phases(self, tmp_path):
        rc = main(["bench", "trace", "--quick", "--profile",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        # The trace benchmark runs no cycle loop, but the phases dict
        # must still be present (all-zero) when profiling is requested.
        assert read_result(tmp_path).phases["cycles"] == 0


class TestErrorPaths:
    def test_unknown_benchmark_name(self, tmp_path, capsys):
        rc = main(["bench", "nope", "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_missing_baseline_file(self, tmp_path, capsys):
        rc = main(["bench", "trace", "--quick",
                   "--out-dir", str(tmp_path),
                   "--baseline", str(tmp_path / "absent.json")])
        assert rc == 2

    def test_corrupt_baseline_file(self, tmp_path, capsys):
        bad = tmp_path / "baseline.json"
        bad.write_text("{broken")
        rc = main(["bench", "trace", "--quick",
                   "--out-dir", str(tmp_path), "--baseline", str(bad)])
        assert rc == 2


class TestGateExitCodes:
    def _run_gated(self, tmp_path, mutate):
        """Run once to get a real baseline, mutate it, re-run gated."""
        baseline_path = tmp_path / "baseline.json"
        assert main(["bench", "trace", "--quick",
                     "--out-dir", str(tmp_path),
                     "--write-baseline", str(baseline_path)]) == 0
        baseline = read_baseline(baseline_path)
        mutate(baseline["trace"])
        write_baseline(baseline, baseline_path)
        return main(["bench", "trace", "--quick",
                     "--out-dir", str(tmp_path),
                     "--baseline", str(baseline_path)])

    def test_gate_passes_against_own_result(self, tmp_path):
        def deflate(entry):
            # Pretend the baseline throughput was 100x worse, the mirror
            # of test_gate_fails_on_regression: the pass path must not
            # depend on two timed runs landing within 20% of each other.
            entry.metrics["replay_uops_per_sec"] /= 100
        assert self._run_gated(tmp_path, deflate) == 0

    def test_gate_fails_on_regression(self, tmp_path, capsys):
        def inflate(entry):
            # Pretend the baseline machine-normalized throughput was 100x
            # better: the fresh run must trip the 20% gate.
            entry.metrics["replay_uops_per_sec"] *= 100
        assert self._run_gated(tmp_path, inflate) == 1
        assert "GATE FAIL" in capsys.readouterr().out

    def test_quick_mismatch_is_a_clean_error(self, tmp_path, capsys):
        def flip_quick(entry):
            entry.quick = False
        assert self._run_gated(tmp_path, flip_quick) == 2
        assert "quick" in capsys.readouterr().err

    def test_missing_entry_not_gated(self, tmp_path, capsys):
        baseline_path = tmp_path / "baseline.json"
        write_baseline({}, baseline_path)
        rc = main(["bench", "trace", "--quick",
                   "--out-dir", str(tmp_path),
                   "--baseline", str(baseline_path)])
        assert rc == 0
        assert "not gated" in capsys.readouterr().out


def test_result_json_on_disk_is_schema_versioned(tmp_path):
    assert main(["bench", "trace", "--quick",
                 "--out-dir", str(tmp_path)]) == 0
    raw = json.loads((tmp_path / "BENCH_trace.json").read_text())
    assert raw["schema"] == 1
