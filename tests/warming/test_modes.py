"""Warming-tier selection: resolution precedence and dispatch."""

from __future__ import annotations

import pytest

import repro.pipeline.warming as warming
from repro.pipeline.warming import (
    WARMING_MODES,
    default_mode,
    resolve_mode,
    set_default_mode,
    warm_stream,
)

from tests.warming.conftest import build_sim, list_trace


@pytest.fixture(autouse=True)
def _restore_default(monkeypatch):
    monkeypatch.delenv("REPRO_WARMING", raising=False)
    yield
    set_default_mode(None)


class TestResolution:
    def test_mode_names(self):
        assert WARMING_MODES == ("auto", "scalar", "vectorized")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown warming mode"):
            resolve_mode("simd")

    def test_auto_resolves_by_numpy(self, monkeypatch):
        monkeypatch.setattr(warming, "_numpy_available", True)
        assert resolve_mode("auto") == "vectorized"
        monkeypatch.setattr(warming, "_numpy_available", False)
        assert resolve_mode("auto") == "scalar"

    def test_explicit_vectorized_without_numpy_fails(self, monkeypatch):
        monkeypatch.setattr(warming, "_numpy_available", False)
        with pytest.raises(ValueError, match="requires numpy"):
            resolve_mode("vectorized")

    def test_scalar_always_available(self, monkeypatch):
        monkeypatch.setattr(warming, "_numpy_available", False)
        assert resolve_mode("scalar") == "scalar"

    def test_env_channel(self, monkeypatch):
        monkeypatch.setenv("REPRO_WARMING", "scalar")
        assert default_mode() == "scalar"
        assert resolve_mode() == "scalar"

    def test_forced_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WARMING", "scalar")
        set_default_mode("auto")
        assert default_mode() == "auto"

    def test_set_default_validates(self):
        with pytest.raises(ValueError):
            set_default_mode("simd")

    def test_reset_to_none_restores_auto(self):
        set_default_mode("scalar")
        set_default_mode(None)
        assert default_mode() == "auto"


class TestDispatch:
    def test_scalar_dispatch_without_numpy(self, monkeypatch):
        monkeypatch.setattr(warming, "_numpy_available", False)
        sim = build_sim("Baseline_0", list_trace(1, 300))
        assert warm_stream(sim, sim.trace, 300) == 300

    def test_explicit_mode_beats_default(self, monkeypatch):
        set_default_mode("scalar")
        sim = build_sim("Baseline_0", list_trace(2, 300))
        # explicit scalar request under a scalar default: plain dispatch
        assert warm_stream(sim, sim.trace, 300, mode="scalar") == 300


class TestEnginePayload:
    def test_cell_key_excludes_warming(self):
        from repro.experiments.engine import cell_key, cell_payload
        from repro.traces.registry import resolve_workload

        payload = cell_payload("Baseline_0", resolve_workload("gzip"),
                               warmup_uops=100, measure_uops=100,
                               functional_warmup_uops=100, seed=1)
        tagged = dict(payload)
        tagged["warming"] = "scalar"
        assert cell_key(tagged) == cell_key(payload)

    def test_simulate_payload_honors_warming_field(self):
        from repro.experiments.engine import cell_payload, simulate_payload
        from repro.traces.registry import resolve_workload

        payload = cell_payload("Baseline_0", resolve_workload("gzip"),
                               warmup_uops=100, measure_uops=300,
                               functional_warmup_uops=500, seed=1)
        plain = simulate_payload(dict(payload))
        tagged = dict(payload)
        tagged["warming"] = "scalar"
        assert simulate_payload(tagged) == plain

    def test_run_sampled_accepts_warming(self):
        from repro.checkpoint.sampling import SamplingSpec, sample_payloads
        from repro.experiments.engine import cell_payload, simulate_payload
        from repro.traces.registry import resolve_workload

        spec = SamplingSpec(intervals=2, interval_uops=200,
                            warmup_uops=100, period_uops=1000,
                            offset_uops=500)
        base = cell_payload("Baseline_0", resolve_workload("gzip"),
                            warmup_uops=100, measure_uops=200,
                            functional_warmup_uops=0, seed=1)
        for cell in sample_payloads(base, spec):
            scalar = simulate_payload(dict(cell, warming="scalar"))
            assert scalar == simulate_payload(cell)
