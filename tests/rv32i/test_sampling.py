"""Sampling on real-ISA streams: oracle equivalence and estimate quality.

Two satellites of the sampling suite, re-proven on RV32I µop streams:

* The checkpoint-chained cells (``run_workload(..., sampling=...)``,
  what ``repro run --sample`` and sweeps run) must match the from-zero
  interval cells of ``sample_payloads`` bit-identically
  (interval-for-interval counter equality) on both a long captured
  rv32i trace and the live executor-backed source — the chained path
  checkpoints the *executor's* architectural state through the
  restricted-unpickler protocol, which no synthetic source exercises.
* A sampled IPC estimate over a long captured trace must stay within
  :data:`IPC_REL_ERR_CEILING` of a detailed run over the same span.
"""

from __future__ import annotations

import pytest

from repro.checkpoint.sampling import SamplingSpec, sample_payloads
from repro.common.stats import SimStats
from repro.core.presets import make_config
from repro.experiments.engine import (
    EngineOptions,
    ResultCache,
    base_cell_payload,
    run_cells,
    simulate_payload,
)
from repro.pipeline.sim import run_workload
from repro.traces.format import capture
from repro.traces.registry import TraceWorkload, resolve_workload

OFF = EngineOptions(jobs=1, cache_dir="off")

#: Small spec for the bit-identity checks (mirrors the chained-cells
#: suite's volumes).
SPEC = SamplingSpec(intervals=3, interval_uops=600, warmup_uops=200,
                    period_uops=2_500, offset_uops=3_000)

#: Larger spec for the accuracy gate: more intervals over a longer span
#: so the estimate converges well inside the ceiling.
GATE_SPEC = SamplingSpec(intervals=8, interval_uops=600, warmup_uops=300,
                         period_uops=3_000, offset_uops=2_000)

CAPTURE_UOPS = 40_000
SEED = 2

#: Largest tolerated relative error of a sampled mean IPC against the
#: detailed run over the same span. 2% is about twice the mean error of
#: the sampled Figure-8 grid (1.1%) and about 3x the worst case measured
#: on this capture (0.74%), so it flags an estimator that loses its
#: warm state or mis-aligns its intervals without failing on sampling
#: noise.
IPC_REL_ERR_CEILING = 0.02


def _from_zero(workload, preset):
    """The oracle: every interval fast-forwards from µop zero."""
    base = base_cell_payload(
        make_config(preset), resolve_workload(workload),
        warmup_uops=SPEC.warmup_uops, measure_uops=SPEC.interval_uops,
        functional_warmup_uops=0, seed=SEED)
    return [s.to_dict() for s in run_cells(sample_payloads(base, SPEC),
                                           options=OFF,
                                           cache=ResultCache(None))]


@pytest.fixture(scope="module")
def long_trace(tmp_path_factory):
    """A captured dhry-mix stream long enough for every spec here."""
    path = tmp_path_factory.mktemp("rv32i-sampling") / "dhry-mix.trc"
    capture(resolve_workload("dhry-mix").build_trace(SEED), path,
            CAPTURE_UOPS, wp_seed=SEED)
    return path


class TestModeEquivalence:
    @pytest.mark.parametrize("preset", ["Baseline_0",
                                        "SpecSched_4_Combined"])
    def test_captured_trace_chained_matches_cells(self, long_trace,
                                                  preset):
        workload = TraceWorkload(long_trace)
        chained = run_workload(workload, preset, seed=SEED, sampling=SPEC,
                               options=OFF)
        assert [s.to_dict() for s in chained.intervals] == \
            _from_zero(workload, preset)

    def test_live_executor_chained_matches_cells(self):
        """The chained path checkpoints Rv32iTrace/Machine state."""
        chained = run_workload("state-machine", "SpecSched_4", seed=SEED,
                               sampling=SPEC, options=OFF)
        assert [s.to_dict() for s in chained.intervals] == \
            _from_zero("state-machine", "SpecSched_4")


class TestEstimateQuality:
    @staticmethod
    def _assert_close_to_detailed(long_trace, preset, sampled):
        spec = GATE_SPEC.validate()
        span = spec.span_uops
        assert span <= CAPTURE_UOPS, "capture too short for the spec"
        payload = base_cell_payload(
            make_config(preset), TraceWorkload(long_trace),
            warmup_uops=spec.offset_uops,
            measure_uops=span - spec.offset_uops,
            functional_warmup_uops=0, seed=SEED)
        detailed = SimStats.from_dict(simulate_payload(payload))
        assert detailed.ipc > 0
        rel_err = abs(sampled.ipc - detailed.ipc) / detailed.ipc
        assert rel_err <= IPC_REL_ERR_CEILING, (
            f"{preset}: sampled {sampled.ipc:.3f} vs detailed "
            f"{detailed.ipc:.3f} (rel err {rel_err:.4f})")

    @pytest.mark.parametrize("preset", ["Baseline_0",
                                        "SpecSched_4_Combined"])
    def test_cells_chained_ipc_within_gate_ceiling(self, long_trace,
                                                   preset):
        """The estimator ``run --sample``, sweeps, figures and perfbench
        run."""
        sampled = run_workload(TraceWorkload(long_trace), preset,
                               seed=SEED, sampling=GATE_SPEC, options=OFF)
        self._assert_close_to_detailed(long_trace, preset, sampled)
