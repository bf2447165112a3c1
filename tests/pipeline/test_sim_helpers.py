"""Run-helper coverage: run_workload / functional warmup."""

import pytest

from repro.checkpoint.sampling import SamplingSpec
from repro.common.config import SimConfig
from repro.experiments.engine import cell_payload, simulate_payload
from repro.pipeline.sim import RunResult, run_workload
from repro.telemetry import MetricsCollector
from repro.workloads.suite import SUITE

TINY = dict(warmup_uops=400, measure_uops=1200, functional_warmup_uops=4000)


def test_run_workload_by_names():
    result = run_workload("gzip", "SpecSched_4", **TINY)
    assert isinstance(result, RunResult)
    assert result.workload == "gzip"
    assert result.config_name == "SpecSched_4"
    assert result.ipc > 0


def test_run_workload_with_spec_and_config_objects():
    spec = SUITE["swim"]
    config = SimConfig(name="custom").with_core(issue_to_execute_delay=2)
    result = run_workload(spec, config, **TINY)
    assert result.config_name == "custom"
    assert result.stats.committed_uops >= 1200


def test_banked_flag_only_for_names():
    banked = run_workload("swim", "SpecSched_4", banked=True, **TINY)
    dual = run_workload("swim", "SpecSched_4", banked=False, **TINY)
    assert banked.stats.l1d_bank_conflicts >= dual.stats.l1d_bank_conflicts
    assert dual.stats.l1d_bank_conflicts == 0


def test_seed_override_changes_stream():
    a = run_workload("xalancbmk", "SpecSched_4", seed=1, **TINY)
    b = run_workload("xalancbmk", "SpecSched_4", seed=2, **TINY)
    assert (a.stats.cycles, a.stats.issued_total) != \
        (b.stats.cycles, b.stats.issued_total)


def test_functional_warmup_improves_hit_rate():
    cold = run_workload("xalancbmk", "Baseline_0", banked=False,
                        warmup_uops=400, measure_uops=1200,
                        functional_warmup_uops=0)
    warm = run_workload("xalancbmk", "Baseline_0", banked=False, **TINY)
    # The warm run should see noticeably fewer DRAM reads in measurement.
    assert warm.stats.dram_reads <= cold.stats.dram_reads


def test_run_workload_spec_matches_name():
    by_name = run_workload("mcf", "SpecSched_4", **TINY)
    by_spec = run_workload(SUITE["mcf"], "SpecSched_4", **TINY)
    assert by_name.stats.to_dict() == by_spec.stats.to_dict()


def test_unknown_config_name_raises():
    with pytest.raises(ValueError):
        run_workload("gzip", "HyperSched_9000", **TINY)


@pytest.mark.parametrize("preset, workload, banked", [
    ("SpecSched_4_Crit", "mcf", True),
    ("Baseline_0", "gzip", False),
])
def test_one_cell_one_recipe(preset, workload, banked):
    """A single cell is the grid cell of the same preset, workload,
    volumes and seed: same payload, no cycle cap, same counters."""
    single = run_workload(workload, preset, banked=banked, seed=1, **TINY)
    grid = simulate_payload(cell_payload(preset, SUITE[workload],
                                         banked=banked, seed=1, **TINY))
    assert single.stats.to_dict() == grid
    assert single.intervals == [] and single.ipc == single.stats.ipc


def test_sampled_cell_refuses_a_collector():
    spec = SamplingSpec(intervals=2, interval_uops=200, warmup_uops=100,
                        period_uops=1_000, offset_uops=500)
    with pytest.raises(ValueError, match="one detailed cell"):
        run_workload("gzip", "SpecSched_4", sampling=spec,
                     collector=MetricsCollector())
