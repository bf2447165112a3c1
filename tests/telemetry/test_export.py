"""O3PipeView export: record shapes, replay semantics, golden output."""

from __future__ import annotations

import io
from pathlib import Path

import pytest

from repro.core.presets import make_config
from repro.isa.opclass import OpClass
from repro.pipeline.cpu import Simulator
from repro.telemetry.events import EventBus, JsonlEventWriter
from repro.telemetry.export import (
    TICKS_PER_CYCLE,
    export_o3pipeview,
    write_o3pipeview,
)
from repro.workloads.suite import SUITE

GOLDEN_PATH = Path(__file__).parent / "golden_o3pipeview.txt"

LOAD = int(OpClass.LOAD)


def _lines(events):
    out = io.StringIO()
    count = write_o3pipeview(events, out)
    return count, out.getvalue().splitlines()


def test_retired_uop_record():
    events = [
        (10, "fetch", 1, 0x400, 0, LOAD),
        (11, "rename", 1, 0x400, 0, 0),
        (14, "issue", 1, 0x400, 1, 4),
        (18, "writeback", 1, 0x400, 0, 0),
        (20, "commit", 1, 0x400, 0, 0),
    ]
    count, lines = _lines(events)
    assert count == 1
    assert lines == [
        f"O3PipeView:fetch:{10 * TICKS_PER_CYCLE}:0x00000400:0:1:load",
        f"O3PipeView:decode:{10 * TICKS_PER_CYCLE}",
        f"O3PipeView:rename:{11 * TICKS_PER_CYCLE}",
        f"O3PipeView:dispatch:{11 * TICKS_PER_CYCLE}",
        f"O3PipeView:issue:{14 * TICKS_PER_CYCLE}",
        f"O3PipeView:complete:{18 * TICKS_PER_CYCLE}",
        f"O3PipeView:retire:{20 * TICKS_PER_CYCLE}"
        f":store:{18 * TICKS_PER_CYCLE}",
    ]


def test_flushed_uop_reports_zero_for_unreached_stages():
    events = [(5, "fetch", 2, 0x500, 1, 0), (6, "rename", 2, 0x500, 0, 0),
              (9, "squash", 2, 0x500, 0, 0)]
    count, lines = _lines(events)
    assert count == 1
    assert lines[0].endswith(":2:int_alu (wrong-path)")
    assert lines[4] == "O3PipeView:issue:0"       # never issued
    assert lines[6] == "O3PipeView:retire:0:store:0"


def test_replayed_uop_reports_last_issue_and_final_completion():
    events = [
        (10, "fetch", 3, 0x600, 0, LOAD),
        (11, "rename", 3, 0x600, 0, 0),
        (14, "issue", 3, 0x600, 1, 4),
        (18, "writeback", 3, 0x600, 0, 0),
        (22, "issue", 3, 0x600, 2, 4),     # replay re-issue
        (30, "writeback", 3, 0x600, 0, 0),
        (32, "commit", 3, 0x600, 0, 0),
    ]
    _, lines = _lines(events)
    assert lines[4] == f"O3PipeView:issue:{22 * TICKS_PER_CYCLE}"
    assert lines[5] == f"O3PipeView:complete:{30 * TICKS_PER_CYCLE}"


def test_reissue_voids_a_stale_completion():
    events = [
        (10, "fetch", 4, 0x700, 0, LOAD),
        (11, "rename", 4, 0x700, 0, 0),
        (14, "issue", 4, 0x700, 1, 4),
        (18, "writeback", 4, 0x700, 0, 0),
        (22, "issue", 4, 0x700, 2, 4),     # re-issued, still in flight
    ]
    _, lines = _lines(events)
    assert lines[5] == "O3PipeView:complete:0"


def test_records_sorted_by_sequence_number():
    events = [(9, "fetch", 7, 0x100, 0, 0), (3, "fetch", 2, 0x200, 0, 0)]
    _, lines = _lines(events)
    assert ":2:" in lines[0]
    assert ":7:" in lines[7]


# ---------------------------------------------------------------------------
# Golden: a fixed-seed recorded run exports to exactly this file


def _record_and_export(tmp_path) -> str:
    events_path = tmp_path / "golden.events.jsonl.gz"
    out_path = tmp_path / "golden.o3pipeview.txt"
    config = make_config("SpecSched_4_Crit", banked=True)
    trace = SUITE["mcf"].build_trace(1)
    with JsonlEventWriter(events_path) as writer:
        Simulator(config, trace,
                  event_bus=EventBus(writer)).run(max_uops=250)
    header, count = export_o3pipeview(events_path, out_path)
    assert header["format"] == "repro-events"
    assert count >= 250
    return out_path.read_text()


def test_golden_o3pipeview(tmp_path, request):
    text = _record_and_export(tmp_path)
    if request.config.getoption("--regen-goldens"):
        GOLDEN_PATH.write_text(text)
        return
    if not GOLDEN_PATH.exists():
        pytest.fail(f"{GOLDEN_PATH} missing; run pytest tests/telemetry "
                    f"--regen-goldens and commit it")
    assert text == GOLDEN_PATH.read_text(), (
        "O3PipeView export drifted; if intentional, regenerate with "
        "--regen-goldens and commit the diff")
