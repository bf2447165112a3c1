import pytest

from repro.cli import build_parser, main
from repro.core.hm_filter import FilterPrediction, HitMissFilter


class TestSilenceBitAblation:
    def test_plain_counters_never_defer(self):
        f = HitMissFilter(entries=16, use_silence_bit=False)
        for i in range(10):
            f.train(0x10, hit=(i % 2 == 0))
            assert f.predict(0x10) in (FilterPrediction.SURE_HIT,
                                       FilterPrediction.SURE_MISS)

    def test_plain_counters_msb_decides(self):
        f = HitMissFilter(entries=16, use_silence_bit=False)
        f.train(0x10, hit=True)     # init 2 -> 3
        assert f.predict(0x10) is FilterPrediction.SURE_HIT
        for _ in range(3):
            f.train(0x10, hit=False)
        assert f.predict(0x10) is FilterPrediction.SURE_MISS

    def test_plain_counters_keep_training(self):
        """Without silence bits, counters always move with outcomes."""
        f = HitMissFilter(entries=16, use_silence_bit=False)
        f.train(0x10, hit=False)
        f.train(0x10, hit=False)    # saturated low
        f.train(0x10, hit=True)     # would silence in the paper's scheme
        f.train(0x10, hit=True)
        f.train(0x10, hit=True)
        assert f.predict(0x10) is FilterPrediction.SURE_HIT


class TestCli:
    def test_parser_commands(self):
        parser = build_parser()
        for argv in (["table1"], ["table2"], ["figure", "5"], ["list"],
                     ["run", "gzip", "SpecSched_4"]):
            args = parser.parse_args(argv)
            assert args.command == argv[0]

    def test_unknown_workload_rejected(self):
        # Workload validation happens in the registry (names may be
        # recordings or RV32I images), not in argparse: clean error, exit 2.
        assert main(["run", "quake3", "SpecSched_4"]) == 2

    def test_table1_command(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "192-entry ROB" in out

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "xalancbmk" in out and "SpecSched_4_Crit" in out

    def test_run_command(self, capsys):
        assert main(["run", "gzip", "SpecSched_4", "--measure", "1500"]) == 0
        out = capsys.readouterr().out
        assert "IPC" in out and "replayed_miss" in out

    def test_parser_engine_flags(self):
        args = build_parser().parse_args(
            ["figure", "5", "--jobs", "4", "--cache-dir", "/tmp/x"])
        assert args.jobs == 4 and args.cache_dir == "/tmp/x"
        args = build_parser().parse_args(["sweep", "grid.toml"])
        assert args.command == "sweep" and args.file == "grid.toml"

    def test_sweep_command(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "1")       # restored on teardown
        monkeypatch.setenv("REPRO_CACHE_DIR", "off")
        sweep_file = tmp_path / "mini.toml"
        sweep_file.write_text(
            'name = "mini"\n'
            'baseline = "Baseline_0"\n'
            'workloads = ["gzip"]\n'
            'warmup_uops = 400\nmeasure_uops = 1200\n'
            'functional_warmup_uops = 4000\n\n'
            '[[series]]\nlabel = "Baseline_0"\npreset = "Baseline_0"\n'
            'banked = false\n\n'
            '[[series]]\nlabel = "SpecSched_4"\npreset = "SpecSched_4"\n')
        assert main(["sweep", str(sweep_file), "--jobs", "1",
                     "--cache-dir", "off"]) == 0
        out = capsys.readouterr().out
        assert "SpecSched_4" in out and "gmean" in out
        assert "speedup" in out


_SWEEP = ('name = "mini"\nbaseline = "Baseline_0"\n'
          '[[series]]\nlabel = "Baseline_0"\npreset = "Baseline_0"\n')


class TestSweepErrors:
    """Bad sweep inputs end in one ``error:`` line and exit 2."""

    @pytest.mark.parametrize("text, jobs, message", [
        (None, "1", "No such file"),
        ("name = \n", "1", "line 1"),
        ("surprise = 1\n" + _SWEEP, "1", "unknown sweep fields"),
        (_SWEEP.replace("[[series]]", '[sampling]\nmode = "cells"\n\n'
                                      "[[series]]"),
         "1", "unknown sampling fields: ['mode']"),
        (_SWEEP, "abc", "REPRO_JOBS must be an integer"),
    ], ids=["missing-file", "bad-toml", "unknown-field",
            "sampling-mode-key", "non-integer-jobs"])
    def test_clean_error(self, tmp_path, capsys, monkeypatch, text, jobs,
                         message):
        monkeypatch.setenv("REPRO_JOBS", jobs)
        monkeypatch.setenv("REPRO_CACHE_DIR", "off")
        path = tmp_path / "sweep.toml"
        if text is not None:
            path.write_text(text)
        assert main(["sweep", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_worker_command_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["worker"])

    def test_bench_command_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["trace", "replay", "g.trc", "SpecSched_4"],
         "invalid choice: 'replay'"),
        (["rv32i", "capture", "ptr-chase"], "invalid choice: 'capture'"),
        (["events", "record", "gzip", "SpecSched_4", "--o3pipeview"],
         "invalid choice: 'record'"),
        (["events", "record", "gzip", "SpecSched_4"],
         "invalid choice: 'record'"),
        (["checkpoint", "create", "gzip", "SpecSched_4",
          "--functional-warmup", "7"],
         "unrecognized arguments: --functional-warmup 7"),
        (["trace", "record", "gzip", "--no-compress"],
         "unrecognized arguments: --no-compress"),
        (["checkpoint", "create", "gzip", "SpecSched_4", "--no-compress"],
         "unrecognized arguments: --no-compress"),
        (["checkpoint", "rebase", "a.ckpt", "Baseline_0", "--no-compress"],
         "unrecognized arguments: --no-compress"),
    ], ids=["trace-replay", "rv32i-capture", "events-o3pipeview",
            "events-record", "checkpoint-create-functional-warmup",
            "trace-record-no-compress", "checkpoint-create-no-compress",
            "checkpoint-rebase-no-compress"])
    def test_duplicate_surface_is_gone(self, tmp_path, capsys, monkeypatch,
                                       argv, message):
        # Each removed command or flag duplicated a remaining one: `run
        # FILE.trc`, `trace record`, `events export`, `run --events`,
        # REPRO_FUNC_WARMUP; records are always zlib-framed.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_report_manifests_takes_no_jobs(self, capsys):
        # The rollup runs no cell, so a worker count would be ignored.
        with pytest.raises(SystemExit) as excinfo:
            main(["report", "manifests", "--jobs", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


class TestPositiveCounts:
    """Every µop-count flag rejects non-positive values at parse time,
    before any trace, checkpoint or event file is written."""

    @pytest.mark.parametrize("argv, flag", [
        (["run", "gzip", "SpecSched_4"], "--measure"),
        (["trace", "record", "gzip", "-o", "{out}"], "--uops"),
        (["checkpoint", "create", "gzip", "SpecSched_4", "-o", "{out}"],
         "--uops"),
        (["run", "gzip", "SpecSched_4", "--events", "{out}"], "--measure"),
    ], ids=["run", "trace-record", "checkpoint-create", "events-record"])
    @pytest.mark.parametrize("value", ["0", "-3", "ten"])
    def test_rejected_with_flag_named(self, tmp_path, capsys, argv, flag,
                                      value):
        out = tmp_path / "out"
        argv = [arg.format(out=out) for arg in argv] + [flag, value]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: expected a positive integer" in err
        assert not out.exists()


class TestTraceCli:
    def test_record_info_replay_roundtrip(self, tmp_path, capsys,
                                          monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_WARMUP", "300")
        monkeypatch.setenv("REPRO_MEASURE", "1200")
        monkeypatch.setenv("REPRO_FUNC_WARMUP", "2000")
        assert main(["trace", "record", "gzip", "-o", "g.trc"]) == 0
        assert main(["trace", "info", "g.trc", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "digest OK" in out and "wp_seed" in out
        assert main(["run", "g.trc", "SpecSched_4", "--measure", "1200"]) == 0
        assert "IPC" in capsys.readouterr().out

    def test_info_missing_file_clean_error(self, capsys):
        assert main(["trace", "info", "no-such.trc"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_replay_missing_file_clean_error(self, capsys):
        assert main(["run", "no-such.trc", "SpecSched_4"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_replay_undersized_trace_clean_error(self, tmp_path, capsys,
                                                 monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["trace", "record", "gzip", "-o", "tiny.trc",
                     "--uops", "200"]) == 0
        capsys.readouterr()
        assert main(["run", "tiny.trc", "SpecSched_4"]) == 2
        assert "re-record" in capsys.readouterr().err

    def test_record_unknown_workload_clean_error(self, capsys):
        assert main(["trace", "record", "quake3"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_record_refuses_a_recording(self, tmp_path, capsys):
        trace = tmp_path / "g.trc"
        assert main(["trace", "record", "gzip", "-o", str(trace),
                     "--uops", "200"]) == 0
        capsys.readouterr()
        assert main(["trace", "record", str(trace), "-o",
                     str(tmp_path / "again.trc")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: refusing to re-record")
        assert err.count("\n") == 1
        assert not (tmp_path / "again.trc").exists()

    def test_record_unwritable_output_clean_error(self, tmp_path, capsys):
        out = tmp_path / "missing-dir" / "g.trc"
        assert main(["trace", "record", "gzip", "-o", str(out),
                     "--uops", "200"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "missing-dir" in err

    def test_run_corrupt_trace_clean_error(self, tmp_path, capsys,
                                           monkeypatch):
        monkeypatch.chdir(tmp_path)
        bad = tmp_path / "bad.trc"
        bad.write_bytes(b"RPTR not a real trace")
        assert main(["run", str(bad), "SpecSched_4"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_replay_defaults_follow_env_volumes(self, tmp_path, capsys,
                                                monkeypatch):
        # A recording auto-sized for the current REPRO_* volumes must
        # run under those same volumes with no extra flags; --measure
        # overrides the measured count.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_WARMUP", "300")
        monkeypatch.setenv("REPRO_MEASURE", "1200")
        monkeypatch.setenv("REPRO_FUNC_WARMUP", "2000")
        assert main(["trace", "record", "gzip", "-o", "g.trc"]) == 0
        capsys.readouterr()
        # The budget, give or take one retire group.
        assert 1200 <= _committed(capsys, ["run", "g.trc", "SpecSched_4"]) \
            < 1300
        assert 800 <= _committed(capsys, ["run", "g.trc", "SpecSched_4",
                                          "--measure", "800"]) < 900

    def test_run_follows_env_volumes(self, capsys, monkeypatch):
        # A suite workload runs under the same REPRO_* volumes as a
        # recording: the env sets the defaults, --measure overrides.
        from repro.pipeline.sim import run_workload

        monkeypatch.setenv("REPRO_WARMUP", "300")
        monkeypatch.setenv("REPRO_MEASURE", "900")
        monkeypatch.setenv("REPRO_FUNC_WARMUP", "2000")
        committed = _committed(capsys, ["run", "gzip", "SpecSched_4"])
        assert 900 <= committed < 1000
        expected = run_workload("gzip", "SpecSched_4", warmup_uops=300,
                                measure_uops=900,
                                functional_warmup_uops=2000)
        assert committed == expected.stats.committed_uops
        assert 700 <= _committed(capsys, ["run", "gzip", "SpecSched_4",
                                          "--measure", "700"]) < 800


def _committed(capsys, argv) -> int:
    """``committed_uops`` printed by one successful ``repro run``."""
    assert main(argv) == 0
    out = capsys.readouterr().out
    return int(out.split("committed_uops")[1].split()[0])
