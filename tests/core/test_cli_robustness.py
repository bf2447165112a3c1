"""Malformed inputs through every CLI subcommand: one ``error:`` line, exit 2.

A table of truncated recordings, checkpoints, RV32I images and event
traces (the ``events-record-*`` rows record through ``run --events``),
recordings and checkpoints whose header lacks the zlib flag or whose
meta JSON is not an object, a version-1 checkpoint file, bad
TOML, unknown workload and configuration names, and bad
``REPRO_*`` values, each sent through every subcommand that reads it.
None may end in a traceback or a silent success. Digest mismatches
and refused payloads under ``--verify`` keep their documented exit 1,
each reported on its own line.
"""

from __future__ import annotations

import pickle
import shutil

import pytest

from repro.checkpoint.format import CONTAINER, load_checkpoint
from repro.cli import main
from repro.common.container import FRAME_HEADER, HEADER
from repro.isa.rv32i.corpus import bundled_programs

TINY = {"REPRO_WARMUP": "200", "REPRO_MEASURE": "500",
        "REPRO_FUNC_WARMUP": "1000", "REPRO_JOBS": "1",
        "REPRO_CACHE_DIR": "off"}

SAMPLE = ["--sample", "--intervals", "2", "--interval-uops", "200",
          "--sample-warmup", "100", "--period", "1000", "--offset", "500"]

#: The same geometry with its first interval past the 2,000-µop
#: functional checkpoints below, so a chain may start from them.
SAMPLE_LATE = SAMPLE[:-1] + ["3000"]

_SWEEP = ('name = "s"\nbaseline = "B"\nworkloads = ["{workload}"]\n'
          '[[series]]\nlabel = "B"\npreset = "{preset}"\n')


def _cut(src, dst, keep) -> None:
    data = src.read_bytes()
    dst.write_bytes(data[:keep(len(data))])


def _clear_flags(src, dst) -> None:
    """Copy a recording or checkpoint with its header's flags field
    (the zlib bit) cleared."""
    data = bytearray(src.read_bytes())
    data[6:8] = b"\0\0"
    dst.write_bytes(bytes(data))


def _meta_not_object(src, dst) -> None:
    """Copy a recording or checkpoint with its meta JSON replaced by
    ``[1]``, valid JSON that is not an object."""
    data = src.read_bytes()
    header = bytearray(data[:HEADER.size])
    header[48:52] = (3).to_bytes(4, "little")       # the meta_len field
    dst.write_bytes(bytes(header) + b"[1]"
                    + data[HEADER.size + HEADER.unpack_from(data)[5]:])


def _format_v1(src, dst) -> None:
    """Copy a checkpoint as the version-1 layout held it: the same
    header and meta, the payload one bare zlib stream."""
    data = src.read_bytes()
    first = HEADER.size + HEADER.unpack_from(data)[5]
    dst.write_bytes(data[:4] + (1).to_bytes(2, "little") + data[6:first]
                    + data[first + FRAME_HEADER.size:])


def _rewrite(src, dst, payload) -> None:
    """Copy a checkpoint's header with ``payload`` as its state, under a
    digest that holds."""
    CONTAINER.write(dst, CONTAINER.header(src).meta,
                    (pickle.dumps(payload, protocol=4),), level=1)


def _relabel_version(src, dst, version) -> None:
    """Copy a checkpoint with its machine state's layout version set to
    ``version``, as an older build would have written it."""
    payload = load_checkpoint(src).payload
    payload["sim"]["version"] = version
    _rewrite(src, dst, payload)


def _l2_mismatch(src, dst) -> None:
    """Copy a checkpoint as saved under an L2 of half the ways: warm
    state no cell of the default memory configuration may restore."""
    payload = load_checkpoint(src).payload
    payload["config"]["memory"]["l2"]["assoc"] = 8
    _rewrite(src, dst, payload)


def _not_a_state(src, dst) -> None:
    """Copy a checkpoint's header with a payload whose digest holds but
    which is not a checkpoint state (the list ``[1, 2, 3]``)."""
    _rewrite(src, dst, [1, 2, 3])


def _second_frame_offset(path) -> int:
    data = path.read_bytes()
    first = HEADER.size + HEADER.unpack_from(data)[5]
    _, stored_len = FRAME_HEADER.unpack_from(data, first)
    return first + FRAME_HEADER.size + stored_len


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A directory of good and damaged input files."""
    root = tmp_path_factory.mktemp("inputs")
    with pytest.MonkeyPatch.context() as patch:
        for name, value in TINY.items():
            patch.setenv(name, value)
        assert main(["trace", "record", "gzip", "--uops", "3000",
                     "-o", str(root / "good.trc")]) == 0
        assert main(["trace", "record", "gzip", "--uops", "10000",
                     "-o", str(root / "long.trc")]) == 0
        assert main(["checkpoint", "create", "gzip", "SpecSched_4",
                     "--uops", "2000", "-o", str(root / "good.ckpt")]) == 0
        assert main(["checkpoint", "create", "gzip", "SpecSched_4",
                     "--mode", "detailed", "--uops", "400",
                     "-o", str(root / "detailed.ckpt")]) == 0
        for events in ("good.events.jsonl.gz", "good.events.jsonl"):
            assert main(["run", "gzip", "SpecSched_4", "--measure", "300",
                         "--events", str(root / events)]) == 0
    shutil.copy(bundled_programs()["ptr-chase"], root / "good.hex")
    # Cut inside the recording's only frame, and inside each header.
    _cut(root / "good.trc", root / "cut.trc", lambda n: n // 2)
    _cut(root / "good.trc", root / "head.trc", lambda n: 10)
    # Cut cleanly after the first of three frames: every run below reads
    # only that frame, so only the header's µop count betrays the cut.
    _cut(root / "long.trc", root / "tail.trc",
         lambda n: _second_frame_offset(root / "long.trc"))
    _clear_flags(root / "good.trc", root / "raw.trc")
    _clear_flags(root / "good.ckpt", root / "raw.ckpt")
    _meta_not_object(root / "good.trc", root / "meta-not-object.trc")
    _meta_not_object(root / "good.ckpt", root / "meta-not-object.ckpt")
    _format_v1(root / "good.ckpt", root / "format-v1.ckpt")
    _cut(root / "good.ckpt", root / "cut.ckpt", lambda n: n - 100)
    _relabel_version(root / "good.ckpt", root / "v1.ckpt", 1)
    _relabel_version(root / "good.ckpt", root / "v2.ckpt", 2)
    _relabel_version(root / "good.ckpt", root / "v3.ckpt", 3)
    _relabel_version(root / "good.ckpt", root / "v4.ckpt", 4)
    _relabel_version(root / "good.ckpt", root / "v5.ckpt", 5)
    _l2_mismatch(root / "good.ckpt", root / "l2-mismatch.ckpt")
    _not_a_state(root / "good.ckpt", root / "odd.ckpt")
    _cut(root / "good.ckpt", root / "head.ckpt", lambda n: 10)
    # Mid-word: the last line keeps 4 of its 8 hex digits.
    _cut(root / "good.hex", root / "cut.hex", lambda n: n - 5)
    _cut(root / "good.hex", root / "cut.bin", lambda n: 10)
    (root / "undecodable.hex").write_text("00000010\n")
    _cut(root / "good.events.jsonl.gz", root / "cut.events.jsonl.gz",
         lambda n: n - 50)
    _cut(root / "good.events.jsonl.gz", root / "head.events.jsonl.gz",
         lambda n: 5)
    # Inside the last event line, whatever its length.
    _cut(root / "good.events.jsonl", root / "cut.events.jsonl",
         lambda n: n - 5)
    (root / "bad.toml").write_text("name = \n")
    for label, workload, preset in (
            ("cut-trace", root / "cut.trc", "Baseline_0"),
            ("unknown-workload", "quake3", "Baseline_0"),
            ("unknown-config", "gzip", "Turbo_9")):
        (root / f"sweep-{label}.toml").write_text(
            _SWEEP.format(workload=workload, preset=preset))
    return root


#: A sound checkpoint that does not fit the run: an older state layout,
#: a configuration the checkpoint cannot restore under, or detailed
#: state where only a functional checkpoint will do.
_CHECKPOINT_MISMATCHES = {
    "run-from-v1-ckpt": ["run", "gzip", "SpecSched_4",
                         "--from-checkpoint", "v1.ckpt"],
    "run-sample-from-v1-ckpt": ["run", "gzip", "SpecSched_4",
                                "--from-checkpoint", "v1.ckpt"] + SAMPLE_LATE,
    # Version 2 is the layout before the FU pool lost its counters.
    "run-from-v2-ckpt": ["run", "gzip", "SpecSched_4",
                         "--from-checkpoint", "v2.ckpt"],
    # Version 3 is the layout before the policy lost its kind tag and
    # its absent tables.
    "run-from-v3-ckpt": ["run", "gzip", "SpecSched_4",
                         "--from-checkpoint", "v3.ckpt"],
    # Version 4 is the layout before the components lost the counters
    # nothing reported and the stages lost their state hook.
    "run-from-v4-ckpt": ["run", "gzip", "SpecSched_4",
                         "--from-checkpoint", "v4.ckpt"],
    # Version 5 is the layout before the wrong-path groups became runs
    # and the kernels and wrong-path synthesizer lost their labels.
    "run-from-v5-ckpt": ["run", "gzip", "SpecSched_4",
                         "--from-checkpoint", "v5.ckpt"],
    "run-from-ckpt-l2-mismatch": ["run", "gzip", "SpecSched_4",
                                  "--from-checkpoint", "l2-mismatch.ckpt"],
    # Detailed state resumes only its own configuration, and never
    # starts a sampled chain (its cursor runs ahead of commit).
    "run-from-detailed-ckpt-other-config": ["run", "gzip", "Baseline_0",
                                            "--from-checkpoint",
                                            "detailed.ckpt"],
    "run-sample-from-detailed-ckpt": ["run", "gzip", "SpecSched_4",
                                      "--from-checkpoint",
                                      "detailed.ckpt"] + SAMPLE,
    # A chain starts at its checkpoint, so the checkpoint must not lie
    # past the first interval.
    "run-sample-from-ckpt-past-offset": ["run", "gzip", "SpecSched_4",
                                         "--from-checkpoint",
                                         "good.ckpt"] + SAMPLE,
}


def _bad_input_cases():
    cases = []

    def add(case_id, argv, env=None):
        cases.append(pytest.param(argv, env or {}, id=case_id))

    for trace in ("cut.trc", "head.trc", "tail.trc", "raw.trc",
                  "meta-not-object.trc"):
        stem = trace.split(".")[0]
        add(f"run-{stem}-trc", ["run", trace, "SpecSched_4"])
        add(f"run-sample-{stem}-trc", ["run", trace, "SpecSched_4"] + SAMPLE)
        add(f"checkpoint-create-{stem}-trc",
            ["checkpoint", "create", trace, "SpecSched_4", "--uops", "1500",
             "-o", "out.ckpt"])
        add(f"events-record-{stem}-trc",
            ["run", trace, "SpecSched_4", "--measure", "1500",
             "--events", "out.events.jsonl"])
        add(f"table2-{stem}-trc", ["table2"], {"REPRO_WORKLOADS": trace})
        add(f"figure-{stem}-trc", ["figure", "5"], {"REPRO_WORKLOADS": trace})
    for trace in ("head.trc", "raw.trc", "meta-not-object.trc"):
        stem = trace.split(".")[0]
        add(f"trace-info-{stem}-trc", ["trace", "info", trace])
        add(f"trace-info-verify-{stem}-trc", ["trace", "info", trace,
                                              "--verify"])
    add("trace-record-cut-trc", ["trace", "record", "cut.trc",
                                 "-o", "out.trc"])
    add("sweep-cut-trc", ["sweep", "sweep-cut-trace.toml"])

    for ckpt in ("cut.ckpt", "head.ckpt", "raw.ckpt", "meta-not-object.ckpt",
                 "format-v1.ckpt"):
        stem = ckpt.split(".")[0]
        add(f"run-from-{stem}-ckpt",
            ["run", "gzip", "SpecSched_4", "--from-checkpoint", ckpt])
        add(f"run-sample-from-{stem}-ckpt",
            ["run", "gzip", "SpecSched_4", "--from-checkpoint", ckpt]
            + SAMPLE_LATE)
    for case_id, argv in _CHECKPOINT_MISMATCHES.items():
        add(case_id, argv)
    for ckpt in ("head.ckpt", "raw.ckpt", "meta-not-object.ckpt",
                 "format-v1.ckpt"):
        stem = ckpt.split(".")[0]
        add(f"checkpoint-info-{stem}-ckpt", ["checkpoint", "info", ckpt])
        add(f"checkpoint-info-verify-{stem}-ckpt",
            ["checkpoint", "info", ckpt, "--verify"])

    for image in ("cut.hex", "cut.bin", "undecodable.hex"):
        stem = image.replace(".", "-")
        add(f"rv32i-run-{stem}", ["rv32i", "run", image])
        add(f"run-{stem}", ["run", image, "SpecSched_4"])
        add(f"trace-record-{stem}", ["trace", "record", image,
                                     "--uops", "500", "-o", "out.trc"])
        add(f"checkpoint-create-{stem}",
            ["checkpoint", "create", image, "SpecSched_4", "--uops", "500",
             "-o", "out.ckpt"])
        add(f"events-record-{stem}",
            ["run", image, "SpecSched_4", "--measure", "200",
             "--events", "out.events.jsonl"])

    for events in ("cut.events.jsonl.gz", "head.events.jsonl.gz",
                   "cut.events.jsonl"):
        stem = events.replace(".events.", "-").replace(".", "-")
        add(f"events-info-{stem}", ["events", "info", events])
        add(f"events-dump-{stem}", ["events", "dump", events])
        add(f"events-export-{stem}", ["events", "export", events,
                                      "-o", "out.o3pipeview.txt"])

    add("sweep-bad-toml", ["sweep", "bad.toml"])
    add("run-bad-toml", ["run", "bad.toml", "SpecSched_4"])
    add("trace-record-bad-toml", ["trace", "record", "bad.toml"])
    add("checkpoint-create-bad-toml",
        ["checkpoint", "create", "bad.toml", "SpecSched_4"])
    add("events-record-bad-toml", ["run", "bad.toml", "SpecSched_4",
                                   "--events", "out.events.jsonl"])
    add("table2-bad-toml", ["table2"], {"REPRO_WORKLOADS": "bad.toml"})

    for command, argv in (
            ("run", ["run", "quake3", "SpecSched_4"]),
            ("run-sample", ["run", "quake3", "SpecSched_4"] + SAMPLE),
            ("trace-record", ["trace", "record", "quake3"]),
            ("checkpoint-create", ["checkpoint", "create", "quake3",
                                   "SpecSched_4"]),
            ("events-record", ["run", "quake3", "SpecSched_4",
                               "--events", "out.events.jsonl"]),
            ("rv32i-run", ["rv32i", "run", "quake3"]),
            ("sweep", ["sweep", "sweep-unknown-workload.toml"])):
        add(f"{command}-unknown-workload", argv)
    for command, argv in (
            ("run", ["run", "gzip", "Turbo_9"]),
            ("run-sample", ["run", "gzip", "Turbo_9"] + SAMPLE),
            ("checkpoint-create", ["checkpoint", "create", "gzip",
                                   "Turbo_9"]),
            ("events-record", ["run", "gzip", "Turbo_9",
                               "--events", "out.events.jsonl"]),
            ("sweep", ["sweep", "sweep-unknown-config.toml"])):
        add(f"{command}-unknown-config", argv)
    # A sampled cell runs at the spec's volumes, uninstrumented.
    for flag in (["--measure", "5000"], ["--metrics"],
                 ["--events", "out.events.jsonl"]):
        add(f"run-sample{flag[0][1:]}",
            ["run", "gzip", "SpecSched_4"] + SAMPLE + flag)
    for command, argv in (
            ("run-sample", ["run", "gzip", "SpecSched_4"] + SAMPLE),
            ("table2", ["table2"]),
            ("sweep", ["sweep", "sweep-unknown-config.toml"]),
            ("report-manifests", ["report", "manifests"])):
        add(f"{command}-bad-jobs", argv, {"REPRO_JOBS": "abc"})
    return cases


@pytest.mark.parametrize("argv, env", _bad_input_cases())
def test_bad_input_is_one_error_line(inputs, tmp_path, capsys, monkeypatch,
                                     argv, env):
    def located(arg):
        return str(inputs / arg) if (inputs / arg).is_file() else arg

    for name, value in {**TINY, **env}.items():
        monkeypatch.setenv(name, located(value))
    monkeypatch.chdir(tmp_path)
    assert main([located(arg) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "out.events.jsonl").exists()   # no partial trace


@pytest.mark.parametrize("case_id, message", [
    ("run-from-v1-ckpt", "checkpoint state version 1 (this build reads 6)"),
    ("run-sample-from-v1-ckpt",
     "checkpoint state version 1 (this build reads 6)"),
    ("run-from-v2-ckpt", "checkpoint state version 2 (this build reads 6)"),
    ("run-from-v3-ckpt", "checkpoint state version 3 (this build reads 6)"),
    ("run-from-v4-ckpt", "checkpoint state version 4 (this build reads 6)"),
    ("run-from-v5-ckpt", "checkpoint state version 5 (this build reads 6)"),
    ("run-from-ckpt-l2-mismatch", "(memory.l2.assoc: checkpoint 8, cell 16)"),
    ("run-from-detailed-ckpt-other-config", "checkpoint has detailed state"),
    ("run-sample-from-detailed-ckpt",
     "a sampled chain starts from a purely functional checkpoint"),
    ("run-sample-from-ckpt-past-offset",
     "the checkpoint is at stream position 2000, past the first interval "
     "at sampling.offset_uops 500 (--offset)"),
])
def test_checkpoint_mismatch_names_what_differs(inputs, tmp_path, capsys,
                                                monkeypatch, case_id,
                                                message):
    for name, value in TINY.items():
        monkeypatch.setenv(name, value)
    monkeypatch.chdir(tmp_path)
    argv = [str(inputs / arg) if (inputs / arg).is_file() else arg
            for arg in _CHECKPOINT_MISMATCHES[case_id]]
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["trace", "info", "cut.trc", "--verify"],
    ["checkpoint", "info", "cut.ckpt", "--verify"],
], ids=["trace", "checkpoint"])
def test_verify_reports_digest_mismatch_with_exit_1(inputs, capsys, argv):
    # The header is intact, so the file describes itself; the payload
    # check fails.
    assert main(argv[:2] + [str(inputs / argv[2])] + argv[3:]) == 1
    assert "DIGEST MISMATCH" in capsys.readouterr().out


def test_checkpoint_verify_names_a_digest_mismatch(inputs, capsys):
    assert main(["checkpoint", "info", str(inputs / "cut.ckpt"),
                 "--verify"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("  payload    DIGEST MISMATCH (")
    assert not any("REFUSED" in line for line in lines)


def test_checkpoint_verify_names_a_refused_payload(inputs, capsys):
    """A payload whose digest holds but which is not a checkpoint
    state is refused on its own line, not reported as a mismatch."""
    assert main(["checkpoint", "info", str(inputs / "odd.ckpt"),
                 "--verify"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2] == "  payload    digest OK"
    assert lines[-1].startswith("  state      REFUSED (")
    assert "payload is not a checkpoint state" in lines[-1]
    assert not any("DIGEST MISMATCH" in line for line in lines)


_ENV_COMMANDS = {
    "run": ["run", "gzip", "SpecSched_4"],
    "table2": ["table2"],
    "figure": ["figure", "5"],
    "sweep": ["sweep", "sweep.toml"],
    "trace-record": ["trace", "record", "gzip", "-o", "out.trc"],
    "checkpoint-create-detailed": ["checkpoint", "create", "gzip",
                                   "SpecSched_4", "--mode", "detailed",
                                   "--uops", "300", "-o", "out.ckpt"],
}

_BAD_ENV = [
    ("REPRO_WARMUP", "-1", "REPRO_WARMUP must be a non-negative integer"),
    ("REPRO_WARMUP", "lots", "REPRO_WARMUP must be a non-negative integer"),
    ("REPRO_MEASURE", "0", "REPRO_MEASURE must be a positive integer"),
    ("REPRO_MEASURE", "abc", "REPRO_MEASURE must be a positive integer"),
    ("REPRO_FUNC_WARMUP", "-5",
     "REPRO_FUNC_WARMUP must be a non-negative integer"),
    ("REPRO_FUNC_WARMUP", "1.5",
     "REPRO_FUNC_WARMUP must be a non-negative integer"),
    ("REPRO_WORKLOADS", "nope", "REPRO_WORKLOADS: unknown workload 'nope'"),
    ("REPRO_WORKLOADS", ",", "REPRO_WORKLOADS names no workloads"),
]


@pytest.mark.parametrize("name, value, message", _BAD_ENV,
                         ids=[f"{n}={v}" for n, v, _ in _BAD_ENV])
@pytest.mark.parametrize("argv", list(_ENV_COMMANDS.values()),
                         ids=list(_ENV_COMMANDS))
def test_bad_env_value_is_one_error_line(tmp_path, capsys, monkeypatch,
                                         argv, name, value, message):
    for key, tiny in TINY.items():
        monkeypatch.setenv(key, tiny)
    monkeypatch.setenv(name, value)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sweep.toml").write_text(
        _SWEEP.format(workload="gzip", preset="Baseline_0"))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert sorted(path.name for path in tmp_path.iterdir()) == ["sweep.toml"]


def test_format_v1_checkpoint_names_both_versions(inputs, capsys):
    assert main(["checkpoint", "info", str(inputs / "format-v1.ckpt")]) == 2
    err = capsys.readouterr().err
    assert "checkpoint format version 1 (this build reads 2)" in err


#: (``checkpoint create`` flags, default output file, ``info``'s L1D line).
_L1D_PORTING = [
    ([], "gzip-SpecSched_4.ckpt", "banked"),
    (["--dual-ported"], "gzip-SpecSched_4-dual-ported.ckpt", "dual-ported"),
]


def test_checkpoint_default_name_and_info_carry_the_l1d_porting(
        tmp_path, capsys, monkeypatch):
    """A banked and a dual-ported checkpoint of one preset land in their
    own default files, and ``checkpoint info`` tells them apart."""
    for name, value in TINY.items():
        monkeypatch.setenv(name, value)
    monkeypatch.chdir(tmp_path)
    for flags, output, _ in _L1D_PORTING:
        assert main(["checkpoint", "create", "gzip", "SpecSched_4",
                     "--uops", "300", *flags]) == 0
        assert capsys.readouterr().out.splitlines()[0].endswith(f"-> {output}")
    assert sorted(path.name for path in tmp_path.iterdir()) \
        == sorted(output for _, output, _ in _L1D_PORTING)
    for _, output, l1d in _L1D_PORTING:
        assert main(["checkpoint", "info", output]) == 0
        assert f"  l1d        {l1d}" in capsys.readouterr().out.splitlines()
