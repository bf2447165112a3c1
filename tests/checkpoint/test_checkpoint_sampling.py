"""Sampling-layer tests: spec validation, cell compilation, cache keys,
determinism, aggregation, the sampled sweep/report path and the
``repro run --sample`` front end (bit-identity with the from-zero
oracle, refusal of a too-short trace)."""

from __future__ import annotations

import math

import pytest

from repro.checkpoint.format import save_checkpoint
from repro.checkpoint.sampling import (
    SamplingError,
    SamplingSpec,
    sample_payloads,
)
from repro.common.mathutil import ci95_half_width, mean, sample_stdev
from repro.common.stats import SimStats
from repro.core.presets import make_config
from repro.cli import main
from repro.experiments.engine import (
    EngineOptions,
    ResultCache,
    Sweep,
    base_cell_payload,
    cell_key,
    cell_payload,
    checkpoint_reference,
    run_cells,
    simulate_payload,
)
from repro.experiments.report import sampling_table
from repro.experiments.runner import Settings, run_sweep
from repro.pipeline.cpu import Simulator
from repro.pipeline.sim import RunResult, run_workload
from repro.traces.registry import resolve_workload

SPEC = SamplingSpec(intervals=3, interval_uops=1_000, warmup_uops=300,
                    period_uops=4_000, offset_uops=6_000)
OFF = EngineOptions(jobs=1, cache_dir="off")


# ---------------------------------------------------------------------------
# Spec


def test_spec_geometry():
    assert SPEC.interval_offset(0) == 6_000
    assert SPEC.interval_offset(2) == 14_000
    assert SPEC.detailed_uops == 3 * 1_300
    assert SPEC.span_uops == 14_000 + 1_300


def test_spec_validation_errors():
    with pytest.raises(SamplingError):
        SamplingSpec(intervals=0).validate()
    with pytest.raises(SamplingError):
        SamplingSpec(interval_uops=0).validate()
    with pytest.raises(SamplingError):
        # Overlapping intervals: period shorter than warmup + interval.
        SamplingSpec(interval_uops=5_000, warmup_uops=2_000,
                     period_uops=6_000).validate()
    with pytest.raises(SamplingError):
        SamplingSpec.from_dict({"intervals": 4, "intervalz": 1})
    with pytest.raises(SamplingError):
        SPEC.interval_offset(3)


def test_spec_roundtrip_and_hash():
    again = SamplingSpec.from_dict(SPEC.to_dict())
    assert again == SPEC
    assert again.content_hash() == SPEC.content_hash()
    assert SamplingSpec().content_hash() != SPEC.content_hash()


# ---------------------------------------------------------------------------
# Statistics helpers


def test_ci_math():
    values = [1.0, 2.0, 3.0, 4.0]
    assert mean(values) == 2.5
    assert sample_stdev(values) == pytest.approx(
        math.sqrt(sum((v - 2.5) ** 2 for v in values) / 3))
    assert ci95_half_width(values) == pytest.approx(
        1.96 * sample_stdev(values) / 2.0)
    assert ci95_half_width([1.0]) == 0.0
    assert sample_stdev([1.0]) == 0.0


def test_sampled_result_aggregation():
    a = SimStats(cycles=100, committed_uops=200, issued_total=250,
                 unique_issued=240, replayed_miss=8, replayed_bank=2)
    b = SimStats(cycles=100, committed_uops=100, issued_total=120,
                 unique_issued=110, replayed_miss=6, replayed_bank=4)
    result = RunResult.from_intervals("w", "c", [a, b])
    assert [stats.ipc for stats in result.intervals] == [2.0, 1.0]
    assert result.ipc == 1.5
    assert result.ipc_ci95 == pytest.approx(ci95_half_width([2.0, 1.0]))
    total = result.stats
    assert total.cycles == 200 and total.committed_uops == 300
    assert (total.issued_total, total.unique_issued) == (370, 350)
    assert (total.replayed_miss, total.replayed_bank) == (14, 6)
    # A plain cell: no intervals, the region's own IPC, no interval.
    plain = RunResult("w", "c", a)
    assert (plain.ipc, plain.ipc_ci95) == (2.0, 0.0)


# ---------------------------------------------------------------------------
# Cell compilation + cache keys


def _base_payload():
    return cell_payload("SpecSched_4", resolve_workload("gzip"),
                        warmup_uops=300, measure_uops=1_000,
                        functional_warmup_uops=5_000, seed=1)


def test_sample_payloads_shape_and_keys():
    cells = sample_payloads(_base_payload(), SPEC)
    assert len(cells) == SPEC.intervals
    keys = {cell_key(cell) for cell in cells}
    assert len(keys) == SPEC.intervals          # every interval distinct
    for index, cell in enumerate(cells):
        assert cell["sampling"] == {"spec": SPEC.to_dict(), "index": index}
        assert cell["functional_warmup_uops"] == 0
        assert cell["warmup_uops"] == SPEC.warmup_uops
        assert cell["measure_uops"] == SPEC.interval_uops
    # The base cell (no sampling) keys differently from interval 0.
    assert cell_key(_base_payload()) not in keys


def test_checkpoint_cells_key_on_digest_not_path(tmp_path):
    workload = resolve_workload("gzip")
    sim = Simulator(make_config("SpecSched_4"), workload.build_trace(1))
    sim.fast_forward(2_000)
    info_a = save_checkpoint(sim, tmp_path / "a.ckpt", workload=workload,
                             seed=1, provenance={"stream_uops": 2_000})
    save_checkpoint(sim, tmp_path / "b.ckpt", workload=workload, seed=1,
                    provenance={"stream_uops": 2_000})

    base = _base_payload()
    with_a = {**base, "checkpoint": checkpoint_reference(tmp_path / "a.ckpt")}
    with_b = {**base, "checkpoint": checkpoint_reference(tmp_path / "b.ckpt")}
    assert with_a["checkpoint"]["digest"] == info_a.digest
    assert with_a["checkpoint"]["position"] == 2_000
    # Same state at two paths: same key. No checkpoint: different key.
    assert cell_key(with_a) == cell_key(with_b)
    assert cell_key(with_a) != cell_key(base)


# ---------------------------------------------------------------------------
# Execution paths


def test_interval_cell_simulation_is_deterministic():
    cells = sample_payloads(_base_payload(), SPEC)
    first = simulate_payload(cells[1])
    again = simulate_payload(cells[1])
    assert first == again
    committed = SimStats.from_dict(first).committed_uops
    assert committed >= SPEC.interval_uops


def _oracle(config="SpecSched_4", checkpoint=None):
    """From-zero interval cells (optionally based on a checkpoint)."""
    base = base_cell_payload(
        make_config(config) if isinstance(config, str) else config,
        resolve_workload("gzip"), warmup_uops=SPEC.warmup_uops,
        measure_uops=SPEC.interval_uops, functional_warmup_uops=0, seed=1)
    if checkpoint is not None:
        base["checkpoint"] = checkpoint_reference(checkpoint)
    stats = run_cells(sample_payloads(base, SPEC), options=OFF,
                      cache=ResultCache(None))
    return RunResult.from_intervals("gzip", base["config"]["name"], stats)


def test_run_sampled_uses_cache(tmp_path):
    sweep = Sweep.from_dict({
        "name": "rerun", "baseline": "spec",
        "series": [{"label": "spec", "preset": "SpecSched_4"}],
        "workloads": ["gzip"], "sampling": SPEC.to_dict(),
    })
    settings = Settings(workloads=("gzip",))
    options = EngineOptions(jobs=1, cache_dir=str(tmp_path / "cache"))
    cache = ResultCache(tmp_path / "cache")
    first = run_sweep(sweep, settings=settings, options=options, cache=cache)
    assert cache.misses == SPEC.intervals
    rerun_cache = ResultCache(tmp_path / "cache")
    again = run_sweep(sweep, settings=settings, options=options,
                      cache=rerun_cache)
    assert rerun_cache.misses == 0
    assert rerun_cache.disk_hits == SPEC.intervals
    assert again.get("spec", "gzip").to_dict() \
        == first.get("spec", "gzip").to_dict()
    mean_ipc, half = first.ipc_ci["spec"]["gzip"]
    assert mean_ipc > 0 and half >= 0
    assert again.ipc_ci == first.ipc_ci


def test_chained_cells_from_checkpoint_match_cold_cells(tmp_path, capsys):
    """A functional checkpoint before the first interval replaces the
    cold fast-forward bit-identically (same stream, same warm state),
    whether the chain or the from-zero oracle starts from it — through
    the API and through ``repro run``."""
    workload = resolve_workload("gzip")
    config = make_config("SpecSched_4")
    sim = Simulator(config, workload.build_trace(1))
    consumed = sim.fast_forward(SPEC.offset_uops - 2_000)
    path = tmp_path / "early.ckpt"
    save_checkpoint(sim, path, workload=workload, seed=1,
                    provenance={"mode": "functional",
                                "stream_uops": consumed})
    cold = [s.to_dict() for s in _oracle(config).intervals]
    based = _oracle(config, checkpoint=path)
    assert [s.to_dict() for s in based.intervals] == cold
    chained = run_workload("gzip", config, seed=1, sampling=SPEC,
                           options=OFF, checkpoint=path)
    assert [s.to_dict() for s in chained.intervals] == cold

    assert main(["run", "gzip", "SpecSched_4", "--sample",
                 "--from-checkpoint", str(path), "--cache-dir", "off",
                 "--intervals", str(SPEC.intervals),
                 "--interval-uops", str(SPEC.interval_uops),
                 "--sample-warmup", str(SPEC.warmup_uops),
                 "--period", str(SPEC.period_uops),
                 "--offset", str(SPEC.offset_uops)]) == 0
    ipcs = " ".join(f"{s.ipc:.3f}" for s in based.intervals)
    assert f"interval IPCs          {ipcs}\n" in capsys.readouterr().out


def test_sampled_sweep_carries_confidence_intervals():
    sweep = Sweep.from_dict({
        "name": "sampled-smoke",
        "baseline": "base",
        "series": [{"label": "base", "preset": "Baseline_0"},
                   {"label": "spec", "preset": "SpecSched_4"}],
        "workloads": ["gzip"],
        "sampling": SPEC.to_dict(),
    })
    result = run_sweep(sweep,
                       settings=Settings(workloads=("gzip",)),
                       options=EngineOptions(jobs=1, cache_dir="off"),
                       cache=ResultCache(None))
    assert set(result.ipc_ci) == {"base", "spec"}
    mean_ipc, half = result.ipc_ci["spec"]["gzip"]
    assert mean_ipc > 0 and half >= 0
    # The grid entry is the counter-wise interval sum. Each interval's
    # warmup/measure boundary lands on a retire-group edge, so a cell's
    # committed count wobbles by up to retire_width-1 µops around the
    # interval target.
    total = result.get("spec", "gzip")
    slop = SPEC.intervals * (make_config("SpecSched_4").core.retire_width - 1)
    assert total.committed_uops >= SPEC.intervals * SPEC.interval_uops - slop
    rendered = sampling_table(result)
    assert "±" in rendered and "gzip" in rendered


def test_sweep_rejects_bad_sampling_table():
    with pytest.raises(SamplingError):
        Sweep.from_dict({
            "name": "bad", "baseline": "base",
            "series": [{"label": "base", "preset": "Baseline_0"}],
            "sampling": {"intervals": 0},
        })


def test_trace_too_short_for_interval_rejected(tmp_path):
    from repro.traces.format import capture
    from repro.traces.registry import TraceWorkload

    source = resolve_workload("gzip")
    path = tmp_path / "short.trc"
    capture(source.build_trace(1), path, 8_000, wp_seed=1)
    base = cell_payload("SpecSched_4", TraceWorkload(path),
                        warmup_uops=300, measure_uops=1_000,
                        functional_warmup_uops=0, seed=1)
    cells = sample_payloads(base, SPEC)
    # Interval 0 (ends at 7300) fits an 8000-µop trace; interval 2
    # (ends at 15300) does not.
    simulate_payload(cells[0])
    with pytest.raises(ValueError, match="holds only"):
        simulate_payload(cells[2])


def test_run_sample_refuses_trace_shorter_than_span(tmp_path, capsys):
    """``repro run --sample`` on a recording that ends before the default
    spec's span is a one-line error (exit 2), never a made-up interval."""
    from repro.traces.format import capture

    default = SamplingSpec()
    path = tmp_path / "short.trc"
    capture(resolve_workload("gzip").build_trace(1), path,
            default.interval_offset(1), wp_seed=1)
    assert main(["run", str(path), "SpecSched_4", "--sample",
                 "--cache-dir", "off"]) == 2
    captured = capsys.readouterr()
    errors = captured.err.strip().splitlines()
    assert len(errors) == 1
    assert errors[0].startswith("error: ") and "holds only" in errors[0]
    assert "interval IPCs" not in captured.out


def test_run_rejects_removed_estimator_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "gzip", "SpecSched_4", "--sample",
              "--sample-mode", "chained"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
