"""Checkpoint-chained sampling cells: equivalence with the from-zero
interval cells of ``sample_payloads`` (the reference oracle), the
content-addressed store's reuse/tamper/version behavior, and the
cache-key contract for producing cells."""

from __future__ import annotations

import struct
from collections import Counter

import pytest

from repro.checkpoint import format as checkpoint_format
from repro.checkpoint.format import (
    CHECKPOINT_SUFFIX,
    load_checkpoint,
    read_info,
)
from repro.checkpoint.sampling import (
    SamplingSpec,
    chained_cell_payloads,
    sample_payloads,
)
from repro.core.presets import make_config
from repro.experiments.engine import (
    EngineOptions,
    ResultCache,
    Sweep,
    base_cell_payload,
    cell_key,
    checkpoint_store,
    checkpoint_store_ref,
    produce_payload,
    run_cells,
)
from repro.experiments.runner import Settings, run_sweep
from repro.pipeline.sim import RunResult, run_workload
from repro.traces.registry import resolve_workload

SPEC = SamplingSpec(intervals=3, interval_uops=600, warmup_uops=200,
                    period_uops=2_500, offset_uops=3_000)
OFF = EngineOptions(jobs=1, cache_dir="off")


def _sampled(options=OFF):
    """One sampled gzip cell under SpecSched_4; its interval stats."""
    result = run_workload("gzip", "SpecSched_4", seed=1, sampling=SPEC,
                          options=options)
    return [s.to_dict() for s in result.intervals]


def _persistent(tmp_path):
    """Options whose checkpoint store is ``tmp_path / "checkpoints"``."""
    return EngineOptions(jobs=1, cache_dir=str(tmp_path))


def _base(preset="SpecSched_4", workload="gzip", banked=True):
    return base_cell_payload(
        make_config(preset, banked=banked), resolve_workload(workload),
        warmup_uops=SPEC.warmup_uops, measure_uops=SPEC.interval_uops,
        functional_warmup_uops=0, seed=1)


def _from_zero(base):
    """The oracle: every interval fast-forwards from µop zero."""
    return run_cells(sample_payloads(base, SPEC), options=OFF,
                     cache=ResultCache(None))


# ---------------------------------------------------------------------------
# Equivalence


@pytest.mark.parametrize("preset", ["Baseline_0", "SpecSched_4_Combined"])
def test_chained_cells_bit_identical_to_legacy_cells(preset):
    chained = run_workload("gzip", preset, seed=1, sampling=SPEC,
                           options=OFF)
    assert [s.to_dict() for s in chained.intervals] == \
        [s.to_dict() for s in _from_zero(_base(preset))]


def test_sweep_cells_mode_matches_chained_default(tmp_path):
    sweep = Sweep.from_dict({
        "name": "oracle-smoke",
        "baseline": "base",
        "series": [{"label": "base", "preset": "Baseline_0"},
                   {"label": "spec", "preset": "SpecSched_4"}],
        "workloads": ["gzip"],
        "sampling": SPEC.to_dict(),
    })
    result = run_sweep(sweep, settings=Settings(workloads=("gzip",)),
                       options=OFF, cache=ResultCache(None))
    for label, preset in (("base", "Baseline_0"), ("spec", "SpecSched_4")):
        total = RunResult.from_intervals(
            "gzip", preset, _from_zero(_base(preset))).stats
        assert result.get(label, "gzip").to_dict() == total.to_dict()



# ---------------------------------------------------------------------------
# Store behavior


def test_store_entries_are_reused_across_runs(tmp_path):
    first = _sampled(_persistent(tmp_path))
    store = tmp_path / "checkpoints"
    entries = sorted(store.glob(f"*{CHECKPOINT_SUFFIX}"))
    assert len(entries) == SPEC.intervals
    stamps = {p: p.stat().st_mtime_ns for p in entries}
    again = _sampled(_persistent(tmp_path))
    assert {p: p.stat().st_mtime_ns for p in entries} == stamps
    assert again == first


def test_tampered_store_entry_is_regenerated(tmp_path):
    reference = _sampled(_persistent(tmp_path))
    victim = sorted((tmp_path / "checkpoints").glob(
        f"*{CHECKPOINT_SUFFIX}"))[0]
    digest = read_info(victim).digest
    blob = bytearray(victim.read_bytes())
    blob[-1] ^= 0xFF                    # corrupt the compressed payload
    victim.write_bytes(bytes(blob))
    assert _sampled(_persistent(tmp_path)) == reference
    # The regenerated file verifies again, with the same content.
    assert load_checkpoint(victim).info.digest == digest


def test_version_bumped_store_entry_is_regenerated(tmp_path):
    reference = _sampled(_persistent(tmp_path))
    victim = sorted((tmp_path / "checkpoints").glob(
        f"*{CHECKPOINT_SUFFIX}"))[0]
    blob = bytearray(victim.read_bytes())
    blob[4:6] = struct.pack("<H", 99)   # foreign FORMAT_VERSION
    victim.write_bytes(bytes(blob))
    assert _sampled(_persistent(tmp_path)) == reference
    assert load_checkpoint(victim).info.digest


def test_store_ref_verifies_without_decoding(tmp_path, monkeypatch):
    _sampled(_persistent(tmp_path))
    entry = sorted((tmp_path / "checkpoints").glob(
        f"*{CHECKPOINT_SUFFIX}"))[0]

    def refuse(raw):
        raise AssertionError("store lookups must not unpickle payloads")

    monkeypatch.setattr(checkpoint_format, "_loads", refuse)
    ref = checkpoint_store_ref(entry)
    assert ref is not None and ref["path"] == str(entry)
    assert ref["digest"] == read_info(entry).digest


def test_interval_cells_restore_their_chains_own_files(tmp_path):
    """Configs sharing a chain point at the chain's files, interval by
    interval; the store holds nothing else."""
    bases = [_base(preset) for preset in
             ("SpecSched_4_Combined", "SpecSched_4", "SpecSched_4_Crit")]
    payloads = chained_cell_payloads(bases, SPEC, tmp_path, options=OFF)
    chain = [p["checkpoint"] for p in payloads[:SPEC.intervals]]
    for offset in range(0, len(payloads), SPEC.intervals):
        assert [p["checkpoint"] for p in
                payloads[offset:offset + SPEC.intervals]] == chain
    assert sorted(str(path) for path in tmp_path.glob(
        f"*{CHECKPOINT_SUFFIX}")) == sorted(ref["path"] for ref in chain)


def test_checkpoint_store_is_temporary_without_persistent_cache(tmp_path):
    with checkpoint_store(OFF) as store:
        assert store.is_dir()
        (store / "entry.ckpt").write_bytes(b"x")
    assert not store.exists()
    cached = EngineOptions(jobs=1, cache_dir=str(tmp_path / "cache"))
    with checkpoint_store(cached) as store:
        assert store == tmp_path / "cache" / "checkpoints"
        store.mkdir(parents=True)
        (store / "entry.ckpt").write_bytes(b"x")
    assert (store / "entry.ckpt").exists()     # persistent: kept


# ---------------------------------------------------------------------------
# Cache-key contract


def test_checkpoint_store_location_not_in_cell_key(tmp_path):
    base = _base()
    here = produce_payload(base, SPEC.interval_offset(0), tmp_path / "a")
    there = produce_payload(base, SPEC.interval_offset(0), tmp_path / "b")
    assert here["checkpoint_store"] != there["checkpoint_store"]
    assert cell_key(here) == cell_key(there)
    # ...while the produce position is an input and must be keyed.
    other = produce_payload(base, SPEC.interval_offset(1), tmp_path / "a")
    assert cell_key(other) != cell_key(here)


def test_chains_share_one_warming_pass(tmp_path):
    bases = [_base("Baseline_0"), _base("SpecSched_4")]
    payloads = chained_cell_payloads(bases, SPEC, options=OFF,
                                     store=tmp_path)
    assert len(payloads) == len(bases) * SPEC.intervals
    # One chain of produced checkpoints serves both configs — not two
    # independent chains, and no re-targeted copies.
    entries = sorted(tmp_path.glob(f"*{CHECKPOINT_SUFFIX}"))
    assert len(entries) == SPEC.intervals
    assert {read_info(p).provenance["mode"] for p in entries} == \
        {"functional"}
    for payload in payloads:
        assert payload["checkpoint"]["digest"]
        assert payload["sampling"]["spec"] == SPEC.to_dict()


def test_figure8_sweep_leaves_only_functional_chain_files(tmp_path):
    """The Figure-8 series (Baseline_0 dual-ported, three banked
    SpecSched_4 presets) warm one chain per workload, since warming
    never reads the L1D's banking: the store holds one functional file
    per interval, and both a Crit cell and the dual-ported Baseline_0
    cell restored from the Combined chain measure what their own
    from-zero cells measure."""
    series = [{"label": preset, "preset": preset, "banked": banked}
              for preset, banked in (("Baseline_0", False),
                                     ("SpecSched_4", True),
                                     ("SpecSched_4_Combined", True),
                                     ("SpecSched_4_Crit", True))]
    sweep = Sweep.from_dict({"name": "fig8-sampled",
                             "baseline": "Baseline_0", "series": series,
                             "workloads": ["gzip"],
                             "sampling": SPEC.to_dict()})
    result = run_sweep(sweep, settings=Settings(workloads=("gzip",)),
                       options=_persistent(tmp_path),
                       cache=ResultCache(None))
    entries = sorted((tmp_path / "checkpoints").glob(
        f"*{CHECKPOINT_SUFFIX}"))
    assert len(entries) == SPEC.intervals
    assert Counter(read_info(p).provenance["mode"] for p in entries) == \
        Counter({"functional": SPEC.intervals})
    for preset, banked in (("SpecSched_4_Crit", True), ("Baseline_0", False)):
        oracle = RunResult.from_intervals(
            "gzip", preset, _from_zero(_base(preset, banked=banked)))
        assert result.get(preset, "gzip").to_dict() == oracle.stats.to_dict()
