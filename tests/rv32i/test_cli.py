"""CLI surface for the rv32i workload kind.

Exercises ``repro rv32i run``, capture through ``repro trace record``,
bundled-name resolution through ``repro run`` / ``repro list``, and the
clean-error paths — all in-process through ``repro.cli.main``. The
bundled images' staleness check is
``test_goldens.py::test_images_match_listings``.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.isa.rv32i.corpus import BUNDLED
from repro.traces.format import read_info


class TestRv32iRun:
    def test_bundled_kernel_runs_to_halt(self, capsys):
        assert main(["rv32i", "run", "memcpy-stream"]) == 0
        out = capsys.readouterr().out
        assert "halt=ebreak" in out
        assert "mem digest" in out

    def test_image_path_accepted(self, capsys):
        from repro.isa.rv32i.corpus import bundled_programs

        image = bundled_programs()["ptr-chase"]
        assert main(["rv32i", "run", str(image)]) == 0
        assert "ptr-chase" in capsys.readouterr().out

    def test_step_cap_reported_as_failure(self, capsys):
        assert main(["rv32i", "run", "matmul-inner",
                     "--max-steps", "50"]) == 1
        assert "step cap" in capsys.readouterr().out

    def test_non_rv32i_workload_rejected(self, capsys):
        assert main(["rv32i", "run", "gzip"]) == 2
        assert "not an RV32I program" in capsys.readouterr().err

    def test_unknown_name_rejected(self, capsys):
        assert main(["rv32i", "run", "no-such-kernel"]) == 2
        assert "unknown workload" in capsys.readouterr().err


class TestRv32iCapture:
    def test_capture_writes_replayable_trace(self, tmp_path, capsys):
        from repro.traces.registry import resolve_workload

        out = tmp_path / "dhry.trc"
        assert main(["trace", "record", "dhry-mix", "-o", str(out),
                     "--uops", "5000"]) == 0
        info = read_info(out)
        assert info.uop_count == 5000
        assert info.provenance["workload"] == "dhry-mix"
        assert info.provenance["image_sha"] == \
            resolve_workload("dhry-mix").digest
        assert main(["run", str(out), "SpecSched_4",
                     "--measure", "2000"]) == 0
        assert "IPC" in capsys.readouterr().out

    def test_capture_seed_only_changes_wrong_path(self, tmp_path):
        a = tmp_path / "a.trc"
        b = tmp_path / "b.trc"
        assert main(["trace", "record", "ptr-chase", "-o", str(a),
                     "--uops", "2000", "--seed", "5"]) == 0
        assert main(["trace", "record", "ptr-chase", "-o", str(b),
                     "--uops", "2000", "--seed", "9"]) == 0
        # Same committed stream -> same record digest; only wp_seed moves.
        info_a, info_b = read_info(a), read_info(b)
        assert info_a.digest == info_b.digest
        assert (info_a.wp_seed, info_b.wp_seed) == (5, 9)
        assert info_a.provenance["image_sha"] == \
            info_b.provenance["image_sha"]


class TestRegistrySurface:
    def test_repro_run_accepts_bundled_name(self, capsys):
        assert main(["run", "state-machine", "SpecSched_4",
                     "--measure", "2000"]) == 0
        assert "IPC" in capsys.readouterr().out

    def test_trace_record_accepts_bundled_name(self, tmp_path, capsys):
        out = tmp_path / "mat.trc"
        assert main(["trace", "record", "matmul-inner", "-o", str(out),
                     "--uops", "3000"]) == 0
        assert read_info(out).uop_count == 3000
        # Only RV32I recordings carry an image sha.
        other = tmp_path / "gzip.trc"
        assert main(["trace", "record", "gzip", "-o", str(other),
                     "--uops", "300"]) == 0
        assert "image_sha" not in read_info(other).provenance

    def test_list_shows_rv32i_kind(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in BUNDLED:
            assert f"{name}" in out
        assert "(rv32i)" in out

    def test_checkpoint_info_names_the_program(self, tmp_path, capsys):
        ckpt = tmp_path / "pc.ckpt"
        assert main(["checkpoint", "create", "ptr-chase", "SpecSched_4",
                     "--uops", "2000", "-o", str(ckpt)]) == 0
        capsys.readouterr()
        assert main(["checkpoint", "info", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "  workload   ptr-chase\n" in out

    def test_sampled_run_on_bundled_kernel(self, capsys):
        assert main(["run", "ptr-chase", "SpecSched_4", "--sample",
                     "--intervals", "3", "--interval-uops", "400",
                     "--sample-warmup", "200", "--period", "1500",
                     "--offset", "1000"]) == 0
        assert "95% CI" in capsys.readouterr().out


@pytest.mark.parametrize("args", [
    ["trace", "record", "no-such-kernel"],
    ["trace", "record", "dhry-mix", "--uops", "500",
     "-o", "{tmp}/missing-dir/dhry.trc"],
])
def test_capture_clean_errors(args, tmp_path, capsys):
    assert main([arg.format(tmp=tmp_path) for arg in args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
