"""Cross-configuration restore: one warming pass, many configs.

Functional warming (:mod:`repro.pipeline.warming` and its reference
loop :mod:`repro.pipeline.functional`) mutates exactly five state
islands: the trace cursor, the cache hierarchy (fills, LRU order,
prefetcher training), the branch unit, the stats block, and — only
under the ``filter_ctr`` hit/miss policy — the per-PC
:class:`~repro.core.hm_filter.HitMissFilter`. Every one of those
is a deterministic function of the µop stream and the *memory/branch*
configuration alone; nothing the scheduling-policy parameters control
(issue-to-execute delay, shifting, the global counter, criticality
tables) is touched before the first detailed cycle.

Within the memory configuration, warming fills the L1D and L2
directories and trains the prefetcher, but never reads the L1D's
``banked`` field and never touches the bank scheduler, the MSHR files
or the DRAM model (``tests/checkpoint/test_rebase.py`` checks that they
stay as a fresh machine builds them). :func:`warm_view` is the
configuration as warming sees it: ``banked`` dropped.

So a *purely functional* checkpoint (zero committed µops, zero cycles,
no in-flight state) taken under configuration A restores under
configuration B whenever A and B agree on the memory and branch
configurations as :func:`warm_view` sees them: build a fresh B machine
and load the warmed islands into it
(:meth:`~repro.checkpoint.format.Checkpoint.restore`). The result is
the machine a native warming of B over the same stream would have
built, state for state. That is how one warming chain per workload and
seed serves the whole fig8 grid (the banked presets differ only in
scheduling policy, and Baseline_0 also in the L1D's banking).

:func:`restore_refusal` is the one statement of that rule: whether warm
state saved under one configuration serves another, and if not, why.
:func:`check_restorable` raises its reason before any machine is built,
and the sampled-chain compiler
(:func:`~repro.checkpoint.sampling.chained_cell_payloads`) picks each
cell's chain with it. Refusals, in this order:

* the state layout version must be this build's (checked by
  :func:`check_restorable`, from the saved state);
* a checkpoint with detailed state restores whole, and only under its
  own configuration — ROB/IQ/rename contents are shaped by the
  scheduling policy;
* the ``memory`` and ``branch`` configuration dicts of :func:`warm_view`
  must be equal (they size and seed the warmed islands);
* a ``filter_ctr`` target needs a ``filter_ctr`` source with the same
  filter shape (entries, counter bits, reset interval, silence bit) —
  the warmed filter table transplants only into an identically shaped
  one. A filterless target simply leaves the source's filter state
  behind (policy tables fresh, caches/predictors carried over).

Each refusal names the first field that differs, e.g.
``(memory.l2.assoc: checkpoint 8, cell 16)``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple, Union

from repro.common.config import HitMissPolicy, SimConfig
from repro.checkpoint.format import (
    Checkpoint,
    CheckpointError,
    CheckpointInfo,
    load_checkpoint,
    save_checkpoint,
)

__all__ = [
    "RebaseError",
    "check_restorable",
    "filter_shape",
    "load_warmed_islands",
    "rebase_checkpoint",
    "restore_refusal",
    "warm_view",
]


class RebaseError(CheckpointError):
    """Checkpoint cannot be restored under the requested config."""


#: The sched-config fields that size the hit/miss filter: a warmed filter
#: table transplants only between identically shaped filters.
FILTER_SHAPE_FIELDS = ("filter_entries", "filter_ctr_bits",
                       "filter_reset_interval", "filter_silence_bit")

#: The sched-config fields that decide whether a policy carries a filter,
#: then its shape: where a filter refusal looks for the differing field.
_FILTER_FIELDS = ("speculative", "hit_miss", *FILTER_SHAPE_FIELDS)


def filter_shape(sched: Dict[str, Any]) -> Optional[Tuple]:
    """The filter's shape tuple for a sched-config dict, or ``None`` for
    policies that carry no per-PC filter (a conservative policy has none,
    whatever its ``hit_miss``)."""
    if not sched.get("speculative", True) or sched.get("hit_miss") != HitMissPolicy.FILTER_CTR:
        return None
    return tuple(sched.get(field) for field in FILTER_SHAPE_FIELDS)


def warm_view(config: Dict[str, Any]) -> Dict[str, Any]:
    """A config dict as functional warming sees it: the L1D's ``banked``
    field, which warming never reads, dropped (a copy; the rest shared)."""
    memory = config.get("memory")
    if not memory or "banked" not in memory.get("l1d", {}):
        return config
    l1d = {key: value for key, value in memory["l1d"].items() if key != "banked"}
    return {**config, "memory": {**memory, "l1d": l1d}}


def _first_difference(saved: Any, cell: Any, path: str = "") -> str:
    """``"dotted.path: checkpoint X, cell Y"`` where two unequal config
    dicts first differ (in ``saved``'s key order)."""
    if isinstance(saved, dict) and isinstance(cell, dict):
        for key in [*saved, *(key for key in cell if key not in saved)]:
            if saved.get(key) != cell.get(key):
                return _first_difference(saved.get(key), cell.get(key), f"{path}{key}.")
    return f"{path[:-1]}: checkpoint {saved!r}, cell {cell!r}"


def restore_refusal(saved_config: Dict[str, Any], cell_config: Dict[str, Any],
                    *, functional: bool = True) -> Optional[str]:
    """Why warm state saved under ``saved_config`` does not serve
    ``cell_config`` (both config dicts), or ``None`` when it does.

    ``functional`` says whether the state is purely functional: such
    state serves any configuration of equal :func:`warm_view` memory and
    branch dicts whose hit/miss filter, if it has one, the saved state
    holds warmed; detailed state serves only its own configuration. The
    reason names the first field that differs.
    """
    if saved_config == cell_config:
        return None
    refused = (f"cannot restore {saved_config.get('name', '?')!r} state "
               f"under {cell_config.get('name', '?')!r}")
    if not functional:
        return (f"{refused}: checkpoint has detailed state "
                f"({_first_difference(saved_config, cell_config)}); only "
                f"purely functional checkpoints restore under another "
                f"configuration — in-flight pipeline contents are shaped "
                f"by the scheduling policy")
    saved, cell = warm_view(saved_config), warm_view(cell_config)
    for section in ("memory", "branch"):
        if saved.get(section) != cell.get(section):
            difference = _first_difference(saved.get(section),
                                           cell.get(section), f"{section}.")
            return (f"{refused}: the {section} configurations differ "
                    f"({difference}), so the warmed state would be wrong "
                    f"(only scheduling-policy parameters and the L1D's "
                    f"banking may differ)")
    saved_sched, cell_sched = saved.get("sched", {}), cell.get("sched", {})
    cell_shape = filter_shape(cell_sched)
    if cell_shape is None or filter_shape(saved_sched) == cell_shape:
        return None
    difference = _first_difference(
        {field: saved_sched.get(field) for field in _FILTER_FIELDS},
        {field: cell_sched.get(field) for field in _FILTER_FIELDS}, "sched.")
    return (f"{refused}: the cell needs a warmed hit/miss filter the "
            f"checkpoint does not hold ({difference}); warm it from a "
            f"filter-bearing checkpoint of the same filter shape instead")


def check_restorable(ckpt: Checkpoint, target_config: Dict[str, Any]) -> bool:
    """Raise unless ``ckpt`` restores under ``target_config`` (a config
    dict); returns whether it is purely functional, i.e. restores as a
    fresh target machine plus the warmed islands."""
    from repro.pipeline.cpu import Simulator

    info, state = ckpt.info, ckpt.payload["sim"]
    version = state.get("version")
    if version != Simulator.STATE_VERSION:     # the islands keep the saved layout
        raise CheckpointError(f"{info.path}: checkpoint state version {version} "
                              f"(this build reads {Simulator.STATE_VERSION})")
    functional = not (info.uops_committed or info.cycles or state.get("uops"))
    refusal = restore_refusal(ckpt.payload["config"], target_config,
                              functional=functional)
    if refusal is not None:
        raise RebaseError(f"{info.path}: {refusal}")
    return functional


#: State-dict islands functional warming mutates, each the state of the
#: simulator attribute of the same name. Policy is handled separately.
WARMED_ISLANDS = ("stats", "trace", "branch_unit", "hierarchy")


def load_warmed_islands(sim, state: Dict[str, Any]) -> None:
    """Load the warmed islands of a purely functional ``state`` into the
    fresh machine ``sim``; everything else stays as built."""
    for key in WARMED_ISLANDS:
        getattr(sim, key).load_state_dict(state[key])
    if sim.policy.hm_filter is not None:
        sim.policy.hm_filter.load_state_dict(state["policy"]["hm_filter"])


def rebase_checkpoint(source: Union[str, Checkpoint], target_config: SimConfig,
                      output) -> CheckpointInfo:
    """Re-target the warm checkpoint ``source`` to ``target_config``,
    writing the result to ``output``; returns the new checkpoint's info.

    The source restores under the target (:func:`check_restorable`
    refuses what cannot), and the restored machine is saved. The output
    is byte-identical to a checkpoint taken by natively fast-forwarding
    a fresh ``target_config`` machine over the same stream span.

    No command or engine path calls this; restores go through
    :meth:`~repro.checkpoint.format.Checkpoint.restore`. It stays for
    two readers: ``tests/checkpoint/test_rebase.py`` pins the
    byte-identity above through it (a restore is correct exactly when
    this save equals the native one), and the benchmark
    (``perfbench/layers.py``) wraps it by name for its
    ``checkpoint.rebase_share`` metric, so it goes together with that
    metric.
    """
    from repro.traces.registry import workload_from_payload

    ckpt = source if isinstance(source, Checkpoint) else \
        load_checkpoint(source)
    workload_data = ckpt.payload.get("workload")
    if workload_data is None:
        raise RebaseError(
            f"{ckpt.info.path}: checkpoint records no workload, so the "
            f"target machine's trace source cannot be rebuilt")
    sim = ckpt.restore(target_config.validate())
    provenance = {
        "mode": "rebase",
        "source_digest": ckpt.info.digest,
        "source_config": ckpt.info.config_name,
    }
    if "stream_uops" in ckpt.info.provenance:
        provenance["stream_uops"] = ckpt.info.provenance["stream_uops"]
    return save_checkpoint(sim, output,
                           workload=workload_from_payload(workload_data),
                           seed=ckpt.payload.get("seed"),
                           provenance=provenance)
