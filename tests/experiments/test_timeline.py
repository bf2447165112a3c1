from repro.experiments.timeline import TimelineSink, render_timeline
from repro.isa.trace import ListTrace
from repro.pipeline.cpu import Simulator
from repro.telemetry.events import EV_ISSUE, EV_SQUASH, EventBus, SQUASH_BRANCH, SQUASH_REPLAY

from tests.conftest import alu, load, run_to_completion, spec_config


def traced(config, uops):
    timeline = TimelineSink(config.core.issue_to_execute_delay)
    sim = Simulator(config, ListTrace(uops), event_bus=EventBus(timeline))
    return sim, timeline


def test_render_back_to_back_chain():
    sim, timeline = traced(spec_config(delay=4), [alu([2], 4), alu([4], 5)])
    run_to_completion(sim)
    art = render_timeline(timeline, labels={0: "add r4", 1: "add r5"})
    lines = art.splitlines()
    assert lines[1].startswith("add r4")
    assert "I" in art and "E" in art


def test_replayed_attempt_marked():
    sim, timeline = traced(spec_config(delay=4),
                           [load(0x1000, dst=4), alu([4], 5)])
    sim.hierarchy.l2.fill(0x1000)       # L1 miss -> replay
    run_to_completion(sim)
    art = render_timeline(timeline)
    assert "x" in art                   # squashed issue attempt visible


def test_no_events_handled():
    assert "no issue events" in render_timeline(TimelineSink(4))


def test_issue_log_has_every_uop():
    sim, timeline = traced(spec_config(delay=2),
                           [alu([2], 4), alu([2], 5), alu([4], 6)])
    run_to_completion(sim)
    assert set(timeline.issue_log) == {0, 1, 2}


def test_only_replay_squashes_mark_the_latest_attempt():
    timeline = TimelineSink(4)
    timeline.emit(10, EV_ISSUE, 7)
    timeline.emit(14, EV_SQUASH, 7, a=SQUASH_BRANCH)
    assert timeline.issue_log[7] == [[10, 15, 0]]
    timeline.emit(14, EV_SQUASH, 7, a=SQUASH_REPLAY)
    timeline.emit(16, EV_ISSUE, 7)
    assert timeline.issue_log[7] == [[10, 15, 1], [16, 21, 0]]
