"""Event bus, sinks, and the JSONL event-trace format."""

from __future__ import annotations

import json

import pytest

from repro.core.presets import make_config
from repro.pipeline.cpu import Simulator
from repro.telemetry.events import (
    EV_FILTER_OUT,
    EV_ISSUE,
    EV_REPLAY,
    EVENT_FIELDS,
    EVENTS_FORMAT,
    EVENTS_VERSION,
    AggregatorSink,
    EventBus,
    EventsFormatError,
    JsonlEventWriter,
    count_events,
    null_emit,
    open_events,
)
from repro.workloads.suite import SUITE


class ListSink:
    """Keeps every event it is sent, in order."""

    def __init__(self) -> None:
        self.events = []

    def emit(self, cycle, kind, seq, pc=0, a=0, b=0) -> None:
        self.events.append((cycle, kind, seq, pc, a, b))


# ---------------------------------------------------------------------------
# Bus


def test_empty_bus_emits_to_the_null_sink():
    bus = EventBus()
    assert bus.emit is null_emit
    bus.emit(1, EV_ISSUE, 2)            # must be callable and do nothing


def test_single_sink_bus_uses_the_sinks_bound_emit():
    sink = ListSink()
    bus = EventBus()
    assert bus.attach(sink) is sink     # assignment-friendly return
    assert bus.emit == sink.emit
    bus.emit(7, EV_ISSUE, 3, pc=0x40, a=1, b=2)
    assert sink.events == [(7, EV_ISSUE, 3, 0x40, 1, 2)]


def test_multi_sink_bus_fans_out_to_every_sink():
    first, second = ListSink(), ListSink()
    bus = EventBus(first)
    bus.attach(second)
    bus.emit(1, EV_ISSUE, 1)
    assert first.events == second.events == [(1, EV_ISSUE, 1, 0, 0, 0)]


def test_emission_points_see_sinks_attached_mid_run():
    bus = EventBus()
    emitting = bus
    sink = ListSink()
    bus.attach(sink)
    emitting.emit(5, EV_ISSUE, 9)       # read through the bus, not captured
    assert len(sink.events) == 1


# ---------------------------------------------------------------------------
# Sinks


def test_aggregator_histograms_and_census():
    sink = AggregatorSink()
    sink.emit(10, EV_REPLAY, 1, a=3, b=7)
    sink.emit(20, EV_REPLAY, 2, a=3, b=9)
    sink.emit(30, EV_ISSUE, 3)
    assert sink.counts == {EV_REPLAY: 2, EV_ISSUE: 1}
    assert sink.replay_burst == {3: 2}
    assert sink.issue_to_replay == {7: 1, 9: 1}
    report = sink.report()
    assert report["replay_burst"] == {"3": 2}    # JSON-able string keys
    assert report["events"][EV_ISSUE] == 1


def test_aggregator_filter_accuracy_quadrants():
    sink = AggregatorSink()
    # pc 0x10: predicted hit / was hit (correct) twice.
    sink.emit(1, EV_FILTER_OUT, 1, pc=0x10, a=1, b=1)
    sink.emit(2, EV_FILTER_OUT, 2, pc=0x10, a=1, b=1)
    # pc 0x20: predicted hit / was miss, then predicted miss / was miss.
    sink.emit(3, EV_FILTER_OUT, 3, pc=0x20, a=1, b=0)
    sink.emit(4, EV_FILTER_OUT, 4, pc=0x20, a=0, b=0)
    assert sink.filter_pcs[0x10] == [2, 0, 0, 0]
    assert sink.filter_pcs[0x20] == [0, 1, 0, 1]
    assert sink.filter_accuracy() == pytest.approx(3 / 4)


def test_filter_accuracy_empty_is_zero():
    assert AggregatorSink().filter_accuracy() == 0.0


# ---------------------------------------------------------------------------
# JSONL writer + reader


EVENTS = [
    (1, EV_ISSUE, 1, 0x100, 0, 4),
    (5, EV_REPLAY, 1, 0x100, 2, 4),
]


def _write(path, provenance=None):
    with JsonlEventWriter(path, provenance=provenance) as writer:
        for event in EVENTS:
            writer.emit(*event)
    return writer


@pytest.mark.parametrize("name", ["t.events.jsonl", "t.events.jsonl.gz"])
def test_writer_round_trip(tmp_path, name):
    path = tmp_path / name
    writer = _write(path, provenance={"workload": "unit"})
    assert writer.count == len(EVENTS)
    assert writer.compressed == name.endswith(".gz")
    header, events = open_events(path)
    assert header["format"] == EVENTS_FORMAT
    assert header["version"] == EVENTS_VERSION
    assert header["fields"] == list(EVENT_FIELDS)
    assert header["provenance"] == {"workload": "unit"}
    assert list(events) == EVENTS


def test_count_events(tmp_path):
    path = tmp_path / "t.events.jsonl.gz"
    _write(path)
    _, counts = count_events(path)
    assert counts == {EV_ISSUE: 1, EV_REPLAY: 1}


def test_identical_streams_produce_identical_gzip_bytes(tmp_path):
    first, second = tmp_path / "a.jsonl.gz", tmp_path / "b.jsonl.gz"
    _write(first, provenance={"seed": 1})
    _write(second, provenance={"seed": 1})
    assert first.read_bytes() == second.read_bytes()


def test_open_events_rejects_non_event_files(tmp_path):
    path = tmp_path / "bogus.jsonl"
    path.write_text('{"format": "something-else"}\n')
    with pytest.raises(EventsFormatError):
        open_events(path)
    path.write_text("not json at all\n")
    with pytest.raises(EventsFormatError):
        open_events(path)


def test_open_events_rejects_future_versions(tmp_path):
    path = tmp_path / "future.jsonl"
    header = {"format": EVENTS_FORMAT, "version": EVENTS_VERSION + 1,
              "fields": list(EVENT_FIELDS), "provenance": {}}
    path.write_text(json.dumps(header) + "\n")
    with pytest.raises(EventsFormatError, match="version"):
        open_events(path)


def test_corrupt_event_line_raises_on_iteration(tmp_path):
    path = tmp_path / "corrupt.jsonl"
    header = {"format": EVENTS_FORMAT, "version": EVENTS_VERSION,
              "fields": list(EVENT_FIELDS), "provenance": {}}
    path.write_text(json.dumps(header) + "\n[1,\n")
    _, events = open_events(path)
    with pytest.raises(EventsFormatError, match="corrupt"):
        list(events)


# ---------------------------------------------------------------------------
# End to end: same seed => byte-identical recorded trace


def _record(path, seed: int) -> None:
    config = make_config("SpecSched_4_Crit", banked=True)
    trace = SUITE["mcf"].build_trace(seed)
    with JsonlEventWriter(path, provenance={"seed": seed}) as writer:
        sim = Simulator(config, trace, event_bus=EventBus(writer))
        sim.run(max_uops=1_500)


def test_recorded_runs_are_byte_deterministic(tmp_path):
    first, second = tmp_path / "a.events.jsonl.gz", tmp_path / "b.events.jsonl.gz"
    _record(first, seed=1)
    _record(second, seed=1)
    assert first.read_bytes() == second.read_bytes()
    header, counts = count_events(first)
    assert header["provenance"]["seed"] == 1
    assert counts["commit"] >= 1_500     # every retirement was recorded
