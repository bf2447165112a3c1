"""CLI round trips at tiny volumes, in-process through ``repro.cli.main``.

Each test drives one multi-command workflow the way a user would:
checkpoints (create -> info --verify -> rebase -> run), event traces
(run --events -> info -> dump -> export) and sweep telemetry (sweep -> report
manifests).
"""

from __future__ import annotations

import json

import pytest

from repro.checkpoint.format import read_info
from repro.cli import main


@pytest.fixture
def tiny_env(tmp_path, monkeypatch):
    """Tiny REPRO_* volumes, a private result cache and a scratch cwd."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("REPRO_WARMUP", "200")
    monkeypatch.setenv("REPRO_MEASURE", "600")
    monkeypatch.setenv("REPRO_FUNC_WARMUP", "1500")
    monkeypatch.setenv("REPRO_JOBS", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path


def _ok(capsys, argv) -> str:
    """Run one command that must succeed; return its stdout."""
    assert main(argv) == 0, argv
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out


class TestCheckpointRoundTrip:
    def test_functional_create_verify_rebase_run(self, tiny_env, capsys):
        out = _ok(capsys, ["checkpoint", "create", "gzip", "SpecSched_4",
                           "--uops", "2000", "-o", "g.ckpt"])
        assert "at 2000 stream µops -> g.ckpt" in out
        info = _ok(capsys, ["checkpoint", "info", "g.ckpt", "--verify"])
        assert "config     SpecSched_4" in info
        assert "mode       functional" in info
        assert "payload    digest OK" in info

        rebased = _ok(capsys, ["checkpoint", "rebase", "g.ckpt",
                               "Baseline_0", "-o", "g-base.ckpt"])
        assert "under Baseline_0 at 2000 stream µops" in rebased
        assert "source     SpecSched_4" in rebased
        info = _ok(capsys, ["checkpoint", "info", "g-base.ckpt", "--verify"])
        assert "config     Baseline_0" in info
        assert "payload    digest OK" in info

        run = _ok(capsys, ["run", "gzip", "Baseline_0", "--from-checkpoint",
                           "g-base.ckpt", "--measure", "500"])
        assert run.startswith("gzip under Baseline_0:")
        assert "IPC" in run

        # The rebased state is the one a native warming would have saved.
        _ok(capsys, ["checkpoint", "create", "gzip", "Baseline_0",
                     "--uops", "2000", "-o", "native.ckpt"])
        assert read_info("native.ckpt").digest == \
            read_info("g-base.ckpt").digest

    def test_detailed_create_verify_run(self, tiny_env, capsys,
                                        monkeypatch):
        # A detailed checkpoint warms functionally by REPRO_FUNC_WARMUP.
        monkeypatch.setenv("REPRO_FUNC_WARMUP", "1000")
        out = _ok(capsys, ["checkpoint", "create", "gzip", "SpecSched_4",
                           "--mode", "detailed", "--uops", "400",
                           "-o", "d.ckpt"])
        assert "-> d.ckpt" in out
        info = _ok(capsys, ["checkpoint", "info", "d.ckpt", "--verify"])
        assert "mode       detailed" in info
        assert "functional_warmup_uops 1000" in info
        assert "payload    digest OK" in info
        run = _ok(capsys, ["run", "gzip", "SpecSched_4", "--from-checkpoint",
                           "d.ckpt", "--measure", "500"])
        assert "IPC" in run
        # Only a purely functional checkpoint can be re-targeted.
        assert main(["checkpoint", "rebase", "d.ckpt", "Baseline_0",
                     "-o", "d-base.ckpt"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tiny_env / "d-base.ckpt").exists()


class TestEventsRoundTrip:
    def test_record_info_dump_export(self, tiny_env, capsys, monkeypatch):
        # No detailed warmup: the trace covers exactly the measured region.
        monkeypatch.setenv("REPRO_WARMUP", "0")
        plain = _ok(capsys, ["run", "mcf", "SpecSched_4", "--measure", "400"])
        out = _ok(capsys, ["run", "mcf", "SpecSched_4", "--measure", "400",
                           "--metrics", "--events", "m.events.jsonl.gz"])
        # Recording observes the reported cell without changing it.
        assert out.startswith(plain)
        assert out.rstrip().endswith("-> m.events.jsonl.gz")
        recorded = int(out.rstrip().splitlines()[-1].split()[1])
        census = {}
        for line in out.split("event census:\n")[1].splitlines():
            if not line.startswith("  "):
                break
            kind, count = line.split()
            census[kind] = int(count.replace(",", ""))
        committed = int(plain.split("committed_uops")[1].split()[0])

        info = _ok(capsys, ["events", "info", "m.events.jsonl.gz"])
        assert "workload   mcf" in info and "config     SpecSched_4" in info
        counts = {}
        for line in info.split("  events")[1].splitlines()[1:]:
            kind, count = line.split()
            counts[kind] = int(count)
        assert sum(counts.values()) == recorded
        assert counts == census
        assert counts["issue"] > 0 and counts["commit"] == committed

        dump = _ok(capsys, ["events", "dump", "m.events.jsonl.gz",
                            "--kind", "issue", "--limit", "5"])
        lines = dump.splitlines()
        assert len(lines) == 5
        assert all(line.split()[1] == "issue" for line in lines)
        everything = _ok(capsys, ["events", "dump", "m.events.jsonl.gz",
                                  "--kind", "commit"])
        assert len(everything.splitlines()) == counts["commit"]

        exported = _ok(capsys, ["events", "export", "m.events.jsonl.gz"])
        viewer = tiny_env / "m.o3pipeview.txt"
        assert exported.strip().endswith(f"-> {viewer.name}")
        assert viewer.read_text().startswith("O3PipeView:fetch:")


class TestSweepReportRoundTrip:
    def test_sweep_then_manifests(self, tiny_env, capsys):
        (tiny_env / "mini.toml").write_text(
            'name = "mini"\nbaseline = "Baseline_0"\n'
            'workloads = ["gzip", "swim"]\n\n'
            '[[series]]\nlabel = "Baseline_0"\npreset = "Baseline_0"\n\n'
            '[[series]]\nlabel = "SpecSched_4"\npreset = "SpecSched_4"\n')
        out = _ok(capsys, ["sweep", "mini.toml"])
        assert "cells: 4 computed, 0 cached (4 total)" in out

        text = _ok(capsys, ["report", "manifests"])
        assert text.startswith("manifests under ")
        assert "cells: 4  (simulated 4, cached 0)" in text
        assert "SpecSched_4" in text and "swim" in text

        summary = json.loads(_ok(capsys, ["report", "manifests", "--json"]))
        assert summary["total"]["cells"] == summary["total"]["simulated"] == 4
        assert sorted(summary["by_config"]) == ["Baseline_0", "SpecSched_4"]
        assert sorted(summary["by_workload"]) == ["gzip", "swim"]

        # The same grid again is all cache hits and prints the same tables.
        again = _ok(capsys, ["sweep", "mini.toml"])
        assert "cells: 0 computed, 4 cached (4 total)" in again
        assert again.split("\ncells:")[0] == out.split("\ncells:")[0]
