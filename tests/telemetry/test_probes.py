"""Metric probes: zero perturbation, occupancy sampling, the collector."""

from __future__ import annotations

from repro.core.presets import make_config
from repro.pipeline.cpu import Simulator
from repro.telemetry.events import AggregatorSink, EventBus
from repro.telemetry.probes import (
    MetricsCollector,
    OccupancyProbe,
    render_metrics,
)
from repro.workloads.suite import SUITE

UOPS = 2_000


def _run(collector=None):
    config = make_config("SpecSched_4_Crit", banked=True)
    trace = SUITE["mcf"].build_trace(1)
    if collector is None:
        sim = Simulator(config, trace)
    else:
        sim = Simulator(config, trace, event_bus=collector.bus,
                        extra_stages=collector.probes)
    sim.run(max_uops=UOPS)
    return sim


def test_instrumented_stats_are_bit_identical_to_plain():
    """The whole point of the seam: observing must not perturb."""
    plain = _run().stats.to_dict()
    collector = MetricsCollector()
    sim = _run(collector)
    collector.finalize(sim)
    instrumented = sim.stats.to_dict()
    instrumented.pop("telemetry")
    assert instrumented == plain
    assert "telemetry" not in plain      # events-off dicts stay unchanged


def test_occupancy_probe_samples_every_cycle():
    collector = MetricsCollector()
    sim = _run(collector)
    probe = sim.stage(OccupancyProbe.name)
    assert probe.cycles == sim.now
    summary = probe.summary()
    assert summary["cycles"] == sim.now
    assert set(summary["structures"]) == set(OccupancyProbe.STRUCTURES)
    for row in summary["structures"].values():
        assert sum(row["hist"].values()) == sim.now
        assert row["peak"] >= 0
    # A real OoO run keeps the window busy: the ROB must have been
    # non-empty at some point.
    assert summary["structures"]["rob"]["peak"] > 0


def test_collector_finalize_fills_the_telemetry_table():
    collector = MetricsCollector()
    sim = _run(collector)
    table = collector.finalize(sim)
    assert sim.stats.telemetry is table
    assert table["events"]["commit"] >= UOPS
    assert 0.0 <= table["filter_accuracy"] <= 1.0
    assert table["occupancy"]["cycles"] == sim.now
    # The table must survive the stats dict round trip.
    from repro.common.stats import SimStats

    rebuilt = SimStats.from_dict(sim.stats.to_dict())
    assert rebuilt.telemetry == table


def test_collector_bus_accepts_extra_sinks():
    bus = EventBus()
    extra = bus.attach(AggregatorSink())
    collector = MetricsCollector(bus)
    assert collector.bus is bus
    _run(collector)
    assert collector.aggregator.counts  # both sinks saw the whole stream
    assert extra.counts == collector.aggregator.counts


def test_finalize_without_probe_omits_occupancy():
    collector = MetricsCollector()
    config = make_config("Baseline_0", banked=False)
    trace = SUITE["gzip"].build_trace(1)
    # Bus wired, probes not: e.g. a caller recording events only.
    sim = Simulator(config, trace, event_bus=collector.bus)
    sim.run(max_uops=500)
    table = collector.finalize(sim)
    assert "occupancy" not in table


def test_render_metrics_lists_every_section():
    collector = MetricsCollector()
    sim = _run(collector)
    text = render_metrics(collector.finalize(sim))
    assert "event census:" in text
    assert "filter accuracy" in text
    assert "occupancy over" in text
    assert "rob" in text


def test_run_workload_collector_integration():
    from repro.pipeline.sim import run_workload

    collector = MetricsCollector()
    result = run_workload("mcf", "SpecSched_4_Crit", warmup_uops=200,
                          measure_uops=800, functional_warmup_uops=1_000,
                          collector=collector)
    assert result.stats.telemetry["events"]
    plain = run_workload("mcf", "SpecSched_4_Crit", warmup_uops=200,
                         measure_uops=800, functional_warmup_uops=1_000)
    assert plain.stats.telemetry == {}
    measured = result.stats.to_dict()
    measured.pop("telemetry")
    assert measured == plain.stats.to_dict()
