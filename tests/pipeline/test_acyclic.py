"""A finished machine is freed by reference counting alone.

The engine runs every cell with the cyclic garbage collector paused
(``repro.experiments.engine._gc_paused``). That is only safe while the
machine holds no reference cycle: a dead simulator must leave nothing
for the collector to find. These tests run cells with the collector off
and assert that ``gc.collect()`` then finds no garbage, across every
preset on programs that exercise store→load violations (gzip), a flooded
frontend pipe (libquantum) and a memory-bound stream (mcf), with
telemetry, per-stage timing and the produce → restore chain.
They also pin the pause itself: the collector's prior state comes back
however a cell ends.
"""

from __future__ import annotations

import gc

import pytest

from repro.checkpoint.sampling import SamplingSpec, chained_cell_payloads
from repro.core.presets import PRESET_NAMES
from repro.experiments.engine import (
    EngineOptions,
    cell_payload,
    produce_checkpoint,
    simulate_payload,
)
from repro.perf.instrument import PhaseProfile
from repro.pipeline.stages.base import SimulationError, Stage
from repro.telemetry.events import AggregatorSink, EventBus
from repro.telemetry.probes import MetricsCollector
from repro.traces.format import capture
from repro.traces.registry import TraceWorkload
from repro.workloads.suite import SUITE

VOLUMES = {"warmup_uops": 200, "measure_uops": 800,
           "functional_warmup_uops": 2000, "seed": 1}


@pytest.fixture(autouse=True)
def collector_off():
    """Collect stray garbage, then run the test body with the collector
    off; its prior state is restored afterwards."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def _payload(preset: str, workload: str = "gzip") -> dict:
    return cell_payload(preset, SUITE[workload], **VOLUMES)


@pytest.mark.parametrize("workload", ["gzip", "libquantum", "mcf"])
@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_cell_leaves_no_cyclic_garbage(preset, workload):
    stats = simulate_payload(_payload(preset, workload))
    assert stats["committed_uops"] > 0
    assert gc.collect() == 0


def test_gzip_exercises_store_load_violations():
    # The premise of picking gzip: its cells squash on store→load
    # violations (early, while store sets train), so the squash paths run
    # under the acyclicity check above.
    stats = simulate_payload({**_payload("SpecSched_4"), "warmup_uops": 0})
    assert stats["memory_order_violations"] > 0
    assert gc.collect() == 0


def test_telemetry_cell_leaves_no_cyclic_garbage():
    # Two sinks on the bus, so events go through the bus's fan-out.
    collector = MetricsCollector(EventBus(AggregatorSink()))
    stats = simulate_payload(_payload("SpecSched_4_Combined"),
                             collector=collector)
    assert stats["telemetry"]["events"]
    del collector
    assert gc.collect() == 0


def test_phase_profiled_cell_leaves_no_cyclic_garbage():
    profile = PhaseProfile()
    simulate_payload(_payload("SpecSched_4", "mcf"), phase_profile=profile)
    assert profile.cycles > 0
    assert gc.collect() == 0


def test_produce_restore_chain_leaves_no_cyclic_garbage(tmp_path):
    spec = SamplingSpec(intervals=2, interval_uops=300, warmup_uops=100,
                        period_uops=1000, offset_uops=1000)
    bases = [_payload(preset) for preset in ("SpecSched_4", "SpecSched_6")]
    payloads = chained_cell_payloads(
        bases, spec, tmp_path, options=EngineOptions(jobs=1, cache_dir="off"))
    # One warming chain, restored under the second configuration too.
    assert len({p["checkpoint"]["digest"] for p in payloads}) == 2
    for payload in payloads:
        simulate_payload(payload)
    assert gc.collect() == 0


# ---------------------------------------------------------------------------
# The pause restores the collector's prior state


class _Seam:
    """The collector seam of ``simulate_payload``: no bus, one stage."""

    def __init__(self, stage) -> None:
        self.bus = None
        self.probes = [stage]

    def finalize(self, sim, stats) -> None:
        pass


class _RecordGc(Stage):
    name = "record_gc"
    seen = []

    def tick(self, now: int) -> None:
        self.seen.append(gc.isenabled())


class _Wedge(Stage):
    name = "wedge"

    def tick(self, now: int) -> None:
        raise SimulationError("wedged")


def test_cell_pauses_then_restores_an_enabled_collector():
    gc.enable()
    _RecordGc.seen.clear()
    simulate_payload(_payload("SpecSched_4"), collector=_Seam(_RecordGc))
    assert _RecordGc.seen and not any(_RecordGc.seen)
    assert gc.isenabled()


def test_producer_restores_an_enabled_collector(tmp_path):
    base = _payload("SpecSched_4")
    payload = {**base, "warmup_uops": 0, "measure_uops": 0,
               "functional_warmup_uops": 0, "produce": {"position": 500},
               "checkpoint_store": str(tmp_path)}
    gc.enable()
    assert produce_checkpoint(payload)["position"] == 500
    assert gc.isenabled()


def test_simulation_error_restores_an_enabled_collector():
    gc.enable()
    with pytest.raises(SimulationError, match="wedged"):
        simulate_payload(_payload("SpecSched_4"), collector=_Seam(_Wedge))
    assert gc.isenabled()


def test_too_short_recording_restores_an_enabled_collector(tmp_path):
    path = tmp_path / "short.trc"
    capture(SUITE["gzip"].build_trace(1), path, 300, wp_seed=1)
    payload = cell_payload("SpecSched_4", TraceWorkload(path), **VOLUMES)
    gc.enable()
    with pytest.raises(ValueError, match="holds only 300"):
        simulate_payload(payload)
    assert gc.isenabled()


def test_cell_leaves_a_disabled_collector_disabled():
    simulate_payload(_payload("SpecSched_4"))
    assert not gc.isenabled()
    with pytest.raises(SimulationError):
        simulate_payload(_payload("SpecSched_4"), collector=_Seam(_Wedge))
    assert not gc.isenabled()
