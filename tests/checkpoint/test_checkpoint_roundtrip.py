"""Checkpoint round-trip suite: save → restore → continue is
bit-identical to an uninterrupted run.

This is the contract the whole sampling/warm-start story rests on: a
restored simulator is THE simulator, not an approximation. Every case
runs a (workload, configuration) pair twice —

* **reference**: one uninterrupted run to ``TOTAL_UOPS``;
* **round trip**: run to ``SPLIT_UOPS``, ``state_dict()`` the complete
  machine, rebuild a *fresh* simulator from scratch, load the state and
  continue to ``TOTAL_UOPS`` —

and asserts the final ``SimStats`` counter dicts are equal (every
counter, not just IPC). A second pass does the same through the on-disk
``.ckpt`` format (pickle + zlib + digest verify), so the serialization
layer is held to the same bit-exactness as the in-memory protocol.
"""

from __future__ import annotations

import pickle

import pytest

from repro.checkpoint.format import restore_simulator, save_checkpoint
from repro.core.presets import make_config
from repro.pipeline.cpu import Simulator
from repro.traces.format import capture
from repro.traces.registry import TraceWorkload, resolve_workload

SPLIT_UOPS = 4_000
TOTAL_UOPS = 9_000
FUNCTIONAL_WARMUP = 15_000

#: Diverse coverage at test-suite-friendly volumes: every mechanism of
#: the paper's stack (conservative baseline, plain speculative, shifting
#: + filter + criticality), plus high-miss, bank-conflict-prone and
#: branchy workloads. mcf runs the full replay/recovery machinery hot.
CASES = [
    ("gzip", "Baseline_0"),
    ("gzip", "SpecSched_4"),
    ("gzip", "SpecSched_4_Crit"),
    ("swim", "SpecSched_4_Combined"),
    ("xalancbmk", "SpecSched_4_Shift"),
    ("mcf", "SpecSched_4_Combined"),
]


def _reference_stats(workload, config, seed=1):
    sim = Simulator(config, workload.build_trace(seed))
    sim.functional_warmup(workload.build_trace(seed), FUNCTIONAL_WARMUP)
    sim.run(max_uops=TOTAL_UOPS)
    return sim.stats.to_dict()


def _split_sim(workload, config, seed=1):
    sim = Simulator(config, workload.build_trace(seed))
    sim.functional_warmup(workload.build_trace(seed), FUNCTIONAL_WARMUP)
    sim.run(max_uops=SPLIT_UOPS)
    return sim


@pytest.mark.parametrize("workload_name,preset", CASES)
def test_state_dict_roundtrip_is_bit_identical(workload_name, preset):
    workload = resolve_workload(workload_name)
    config = make_config(preset)
    reference = _reference_stats(workload, config)

    sim = _split_sim(workload, config)
    # Through pickle, as the on-disk format stores it: catches state
    # that only survives by object identity inside one process.
    state = pickle.loads(pickle.dumps(sim.state_dict(), protocol=4))

    restored = Simulator(config, workload.build_trace(1))
    restored.load_state_dict(state)
    restored.run(max_uops=TOTAL_UOPS)
    assert restored.stats.to_dict() == reference


@pytest.mark.parametrize("workload_name,preset",
                         [("gzip", "SpecSched_4_Crit"),
                          ("mcf", "SpecSched_4_Combined")])
def test_file_checkpoint_roundtrip_is_bit_identical(tmp_path, workload_name,
                                                    preset):
    workload = resolve_workload(workload_name)
    config = make_config(preset)
    reference = _reference_stats(workload, config)

    sim = _split_sim(workload, config)
    path = tmp_path / "mid.ckpt"
    info = save_checkpoint(sim, path, workload=workload, seed=1)
    assert info.uops_committed == sim.stats.committed_uops

    restored = restore_simulator(path)
    restored.run(max_uops=TOTAL_UOPS)
    assert restored.stats.to_dict() == reference


def test_explicit_path_workload_roundtrip():
    workload = resolve_workload("examples/rv32i/ptr-chase.hex")
    config = make_config("SpecSched_4_Combined")
    reference = _reference_stats(workload, config, seed=workload.seed)

    sim = _split_sim(workload, config, seed=workload.seed)
    state = pickle.loads(pickle.dumps(sim.state_dict(), protocol=4))
    restored = Simulator(config, workload.build_trace(workload.seed))
    restored.load_state_dict(state)
    restored.run(max_uops=TOTAL_UOPS)
    assert restored.stats.to_dict() == reference


def test_recorded_trace_roundtrip(tmp_path):
    source = resolve_workload("gzip")
    path = tmp_path / "gzip.trc"
    capture(source.build_trace(1), path, 40_000, wp_seed=1)
    workload = TraceWorkload(path)
    config = make_config("SpecSched_4_Combined")
    reference = _reference_stats(workload, config)

    sim = _split_sim(workload, config)
    state = pickle.loads(pickle.dumps(sim.state_dict(), protocol=4))
    restored = Simulator(config, workload.build_trace())
    restored.load_state_dict(state)
    restored.run(max_uops=TOTAL_UOPS)
    assert restored.stats.to_dict() == reference


def test_double_roundtrip_is_stable():
    """state → load → state is a fixed point (no drift across cycles)."""
    workload = resolve_workload("gzip")
    config = make_config("SpecSched_4_Combined")
    sim = _split_sim(workload, config)
    state = sim.state_dict()

    restored = Simulator(config, workload.build_trace(1))
    restored.load_state_dict(state)
    again = restored.state_dict()
    assert pickle.dumps(again, protocol=4) == pickle.dumps(state, protocol=4)


def test_restore_after_further_split_points():
    """Checkpointing at several depths all converge to the reference."""
    workload = resolve_workload("xalancbmk")
    config = make_config("SpecSched_4_Combined")
    reference = _reference_stats(workload, config)
    for split in (1_000, 5_000, 8_000):
        sim = Simulator(config, workload.build_trace(1))
        sim.functional_warmup(workload.build_trace(1), FUNCTIONAL_WARMUP)
        sim.run(max_uops=split)
        restored = Simulator(config, workload.build_trace(1))
        restored.load_state_dict(sim.state_dict())
        restored.run(max_uops=TOTAL_UOPS)
        assert restored.stats.to_dict() == reference, f"split at {split}"


def test_roundtrip_constructed_via_stage_api():
    """A machine wired through the stage API (override + extra stage)
    round-trips exactly like the default wiring — the decomposition
    seam does not perturb the state protocol (the stateful-extra-stage
    case lives in tests/pipeline/test_stages.py)."""
    from repro.pipeline.stages import Issue, Stage

    class LoggingIssue(Issue):
        """Behaviour-preserving override (the scheduler-swap seam)."""

        def _do_issue(self, uop, now, loads_before):
            super()._do_issue(uop, now, loads_before)

    class NullProbe(Stage):
        """Stateless observer appended at the end of the tick order."""

        name = "null_probe"

        def tick(self, now):
            pass

    workload = resolve_workload("gzip")
    config = make_config("SpecSched_4_Crit")
    reference = _reference_stats(workload, config)

    def build():
        return Simulator(config, workload.build_trace(1),
                         stage_overrides={"issue": LoggingIssue},
                         extra_stages=[NullProbe])

    sim = build()
    sim.functional_warmup(workload.build_trace(1), FUNCTIONAL_WARMUP)
    sim.run(max_uops=SPLIT_UOPS)
    state = pickle.loads(pickle.dumps(sim.state_dict(), protocol=4))

    restored = build()
    restored.load_state_dict(state)
    restored.run(max_uops=TOTAL_UOPS)
    assert restored.stats.to_dict() == reference
