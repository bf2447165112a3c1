"""Cross-config checkpoint rebase: the byte-identity property and the
compatibility refusals that keep it honest.

The pinned claim (module docstring of :mod:`repro.checkpoint.rebase`):
re-targeting a purely functional checkpoint from config A to config B is
byte-identical to having functionally warmed a fresh B machine over the
same stream — checked here as payload-digest equality, per config pair,
for both generated and recorded-trace workloads.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.checkpoint.format import load_checkpoint, save_checkpoint
from repro.checkpoint.rebase import (
    RebaseError,
    filter_shape,
    rebase_checkpoint,
    restore_refusal,
)
from repro.core.presets import PRESET_NAMES, make_config
from repro.pipeline.cpu import Simulator
from repro.traces.format import capture
from repro.traces.registry import TraceWorkload, resolve_workload

WARM_UOPS = 4_000
SEED = 1

#: (source preset, target preset) pairs covering the compatibility
#: lattice: plain -> plain, filter -> same-shape filter, and
#: filter -> filterless (the filter state is dropped, not transplanted).
REBASE_PAIRS = [
    ("Baseline_0", "SpecSched_4"),
    ("SpecSched_4_Filter", "SpecSched_4_Combined"),
    ("SpecSched_4_Combined", "Baseline_0"),
]


def _functional_checkpoint(preset, workload, path, *, uops=WARM_UOPS):
    sim = Simulator(make_config(preset), workload.build_trace(SEED))
    sim.functional_warmup(workload.build_trace(SEED), uops)
    return save_checkpoint(sim, path, workload=workload, seed=SEED)


def _with_l2(config, **l2_fields):
    """``config`` with its L2 geometry changed."""
    l2 = dataclasses.replace(config.memory.l2, **l2_fields)
    return dataclasses.replace(
        config, memory=dataclasses.replace(config.memory, l2=l2))


def _recorded_workload(tmp_path, uops=WARM_UOPS + 2_000):
    trace = resolve_workload("gzip").build_trace(SEED)
    path = tmp_path / "gzip-recorded.trc"
    capture(trace, path, uops, wp_seed=SEED,
            provenance={"workload": "gzip-recorded", "is_fp": False})
    return TraceWorkload(path)


@pytest.mark.parametrize("source,target", REBASE_PAIRS)
def test_rebase_is_byte_identical_to_native_warming(tmp_path, source, target):
    workload = resolve_workload("gzip")
    _functional_checkpoint(source, workload, tmp_path / "src.ckpt")
    rebased = rebase_checkpoint(tmp_path / "src.ckpt", make_config(target),
                                tmp_path / "rebased.ckpt")
    native = _functional_checkpoint(target, workload, tmp_path / "native.ckpt")
    # The digest covers the full pickled payload (config + workload +
    # every state island), so equality is byte-identity of the state.
    assert rebased.digest == native.digest
    assert rebased.config_name == target


@pytest.mark.parametrize("target", ["SpecSched_4_Crit", "SpecSched_4_Shift"])
def test_rebase_carries_a_trained_filter(tmp_path, target):
    """Fast-forwarding trains the filter. A Crit target keeps the
    source's filter beside a fresh criticality table; a Shift target
    keeps no policy table at all."""
    workload = resolve_workload("gzip")

    def fast_forwarded(preset, path):
        sim = Simulator(make_config(preset), workload.build_trace(SEED))
        sim.fast_forward(WARM_UOPS)
        return save_checkpoint(sim, path, workload=workload, seed=SEED)

    fast_forwarded("SpecSched_4_Combined", tmp_path / "src.ckpt")
    policy = load_checkpoint(tmp_path / "src.ckpt").payload["sim"]["policy"]
    assert policy["hm_filter"]["committed_loads"] > 0
    rebased = rebase_checkpoint(tmp_path / "src.ckpt", make_config(target),
                                tmp_path / "rebased.ckpt")
    native = fast_forwarded(target, tmp_path / "native.ckpt")
    assert rebased.digest == native.digest


def test_rebase_recorded_trace_workload(tmp_path):
    workload = _recorded_workload(tmp_path)
    _functional_checkpoint("Baseline_0", workload, tmp_path / "src.ckpt")
    rebased = rebase_checkpoint(tmp_path / "src.ckpt",
                                make_config("SpecSched_4"),
                                tmp_path / "rebased.ckpt")
    native = _functional_checkpoint("SpecSched_4", workload,
                                    tmp_path / "native.ckpt")
    assert rebased.digest == native.digest


def test_rebased_checkpoint_restores_and_resumes(tmp_path):
    workload = resolve_workload("gzip")
    _functional_checkpoint("Baseline_0", workload, tmp_path / "src.ckpt")
    rebase_checkpoint(tmp_path / "src.ckpt", make_config("SpecSched_4"),
                      tmp_path / "rebased.ckpt")
    native = Simulator(make_config("SpecSched_4"),
                       workload.build_trace(SEED))
    native.functional_warmup(workload.build_trace(SEED), WARM_UOPS)
    stats_native = native.run_with_warmup(300, 1_000)
    restored = load_checkpoint(tmp_path / "rebased.ckpt").restore()
    stats_rebased = restored.run_with_warmup(300, 1_000)
    assert stats_rebased.to_dict() == stats_native.to_dict()


def test_rebase_records_provenance(tmp_path):
    workload = resolve_workload("gzip")
    src = _functional_checkpoint("Baseline_0", workload, tmp_path / "src.ckpt")
    rebased = rebase_checkpoint(tmp_path / "src.ckpt",
                                make_config("SpecSched_4"),
                                tmp_path / "rebased.ckpt")
    assert rebased.provenance["mode"] == "rebase"
    assert rebased.provenance["source_digest"] == src.digest
    assert rebased.provenance["source_config"] == "Baseline_0"


# ---------------------------------------------------------------------------
# Refusals


def test_rebase_refuses_memory_mismatch(tmp_path):
    workload = resolve_workload("gzip")
    _functional_checkpoint("Baseline_0", workload, tmp_path / "src.ckpt")
    other_l2 = _with_l2(make_config("SpecSched_4"), assoc=8)
    with pytest.raises(RebaseError, match="memory"):
        rebase_checkpoint(tmp_path / "src.ckpt", other_l2,
                          tmp_path / "out.ckpt")


def test_rebase_refuses_detailed_source(tmp_path):
    workload = resolve_workload("gzip")
    sim = Simulator(make_config("Baseline_0"), workload.build_trace(SEED))
    sim.run(max_uops=500)               # detailed state: in-flight µops
    save_checkpoint(sim, tmp_path / "detailed.ckpt",
                    workload=workload, seed=SEED)
    with pytest.raises(RebaseError, match="functional"):
        rebase_checkpoint(tmp_path / "detailed.ckpt",
                          make_config("SpecSched_4"), tmp_path / "out.ckpt")


def test_rebase_refuses_filterless_donor_for_filter_target(tmp_path):
    workload = resolve_workload("gzip")
    _functional_checkpoint("Baseline_0", workload, tmp_path / "src.ckpt")
    with pytest.raises(RebaseError, match="filter"):
        rebase_checkpoint(tmp_path / "src.ckpt",
                          make_config("SpecSched_4_Combined"),
                          tmp_path / "out.ckpt")


def _config_dict(preset, *, banked=True, **sections):
    """``preset``'s config dict with ``sections`` (``{section: {field:
    value}}``) merged over its own sections."""
    config = make_config(preset, banked=banked).to_dict()
    for section, fields in sections.items():
        config[section] = dict(config[section], **fields)
    return config


def _l2_dict(preset, **l2_fields):
    return _with_l2(make_config(preset), **l2_fields).to_dict()


#: (saved config, cell config, functional, expected refusal fragment or
#: None when the saved state serves the cell).
RESTORE_RULE = {
    "other-policy": (_config_dict("Baseline_0"),
                     _config_dict("SpecSched_4"), True, None),
    "other-banking": (_config_dict("Baseline_0"),
                      _config_dict("SpecSched_4", banked=False), True, None),
    "filter-for-filterless": (_config_dict("SpecSched_4_Combined"),
                              _config_dict("Baseline_0"), True, None),
    "detailed-same-config": (_config_dict("SpecSched_4"),
                             _config_dict("SpecSched_4"), False, None),
    "detailed-other-policy": (_config_dict("Baseline_0"),
                              _config_dict("SpecSched_4"), False,
                              "checkpoint has detailed state (name:"),
    "memory-geometry": (_config_dict("Baseline_0"),
                        _l2_dict("SpecSched_4", size_bytes=512 * 1024), True,
                        "(memory.l2.size_bytes: checkpoint 1048576, "
                        "cell 524288)"),
    "branch-geometry": (_config_dict("Baseline_0"),
                        _config_dict("SpecSched_4",
                                     branch={"btb_entries": 4096}), True,
                        "(branch.btb_entries: checkpoint 8192, cell 4096)"),
    "filterless-for-filter": (_config_dict("Baseline_0"),
                              _config_dict("SpecSched_4_Combined"), True,
                              "(sched.speculative: checkpoint False, "
                              "cell True)"),
    "filter-shape": (_config_dict("SpecSched_4_Combined"),
                     _config_dict("SpecSched_4_Combined",
                                  sched={"filter_entries": 1024}), True,
                     "(sched.filter_entries: checkpoint 2048, cell 1024)"),
}


@pytest.mark.parametrize("case", RESTORE_RULE)
def test_restore_refusal_names_the_first_differing_field(case):
    """The one restore rule: functional state serves another scheduling
    policy or L1D banking, not another memory or branch geometry or
    filter shape; detailed state serves only its own configuration."""
    saved, cell, functional, fragment = RESTORE_RULE[case]
    refusal = restore_refusal(saved, cell, functional=functional)
    if fragment is None:
        assert refusal is None
    else:
        assert fragment in refusal


def test_filter_shape_only_for_filter_policies():
    assert filter_shape(make_config("Baseline_0").to_dict()["sched"]) is None
    shape = filter_shape(make_config("SpecSched_4_Combined").to_dict()["sched"])
    assert shape is not None
    assert shape == filter_shape(
        make_config("SpecSched_4_Crit").to_dict()["sched"])
    # A conservative policy builds no filter, whatever its hit_miss.
    conservative = dict(make_config("SpecSched_4_Filter").to_dict()["sched"],
                        speculative=False)
    assert filter_shape(conservative) is None


@pytest.mark.parametrize("workload_name", ["gzip", "mcf"])
@pytest.mark.parametrize("banked", [True, False], ids=["banked", "dual"])
@pytest.mark.parametrize("warm", ["fast_forward", "functional_warmup"])
def test_warming_leaves_no_bank_mshr_or_dram_state(warm, banked, workload_name):
    """Warm state restores under either L1D banking because warming
    never touches what banking shapes: the bank scheduler, both MSHR
    files and the DRAM model stay as a fresh machine builds them."""
    workload = resolve_workload(workload_name)
    config = make_config("SpecSched_4_Combined", banked=banked)
    fresh = Simulator(config, workload.build_trace(SEED)).hierarchy.state_dict()
    sim = Simulator(config, workload.build_trace(SEED))
    if warm == "fast_forward":
        sim.fast_forward(WARM_UOPS)
    else:
        sim.functional_warmup(workload.build_trace(SEED), WARM_UOPS)
    warmed = sim.hierarchy.state_dict()
    assert warmed["l1d"] != fresh["l1d"]          # warming did run
    for part in ("banks", "l1_mshrs", "l2_mshrs", "dram"):
        assert warmed[part] == fresh[part], part


def test_rebase_refuses_workloadless_checkpoint(tmp_path):
    workload = resolve_workload("gzip")
    sim = Simulator(make_config("Baseline_0"), workload.build_trace(SEED))
    sim.functional_warmup(workload.build_trace(SEED), 1_000)
    save_checkpoint(sim, tmp_path / "bare.ckpt")     # no workload recorded
    with pytest.raises(RebaseError, match="workload"):
        rebase_checkpoint(tmp_path / "bare.ckpt",
                          make_config("SpecSched_4"), tmp_path / "out.ckpt")


# ---------------------------------------------------------------------------
# Restore under another configuration


CONFIGS = [(preset, banked) for preset in PRESET_NAMES
           for banked in (True, False)]


@pytest.fixture(scope="module")
def fast_forwarded(tmp_path_factory):
    """Per (preset, banked): the loaded functional checkpoint of a gzip
    machine fast-forwarded WARM_UOPS, and that machine's state."""
    workload = resolve_workload("gzip")
    root = tmp_path_factory.mktemp("ff")
    out = {}
    for preset, banked in CONFIGS:
        sim = Simulator(make_config(preset, banked=banked),
                        workload.build_trace(SEED))
        sim.fast_forward(WARM_UOPS)
        path = root / f"{preset}-{banked}.ckpt"
        save_checkpoint(sim, path, workload=workload, seed=SEED)
        out[preset, banked] = (load_checkpoint(path), sim.state_dict())
    return out


@pytest.mark.parametrize("preset,banked", CONFIGS)
def test_functional_checkpoint_restores_under_every_compatible_config(
        fast_forwarded, preset, banked):
    """A functional checkpoint restored under any config the
    compatibility rule accepts holds the state native fast-forwarding of
    that config reaches; every other config is refused."""
    source, _ = fast_forwarded[preset, banked]
    restored = 0
    for target in CONFIGS:
        checkpoint, native = fast_forwarded[target]
        config = make_config(*target)
        if restore_refusal(source.payload["config"],
                           checkpoint.payload["config"]) is not None:
            with pytest.raises(RebaseError):
                source.restore(config)
            continue
        assert source.restore(config).state_dict() == native, target
        restored += 1
    # Every source restores under at least the ten filterless presets of
    # each L1D banking.
    assert restored >= 20
