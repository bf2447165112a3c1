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

So a *purely functional* checkpoint (zero committed µops, zero cycles,
no in-flight state) taken under configuration A restores under
configuration B whenever A and B agree on the memory and branch
configurations: build a fresh B machine and load the warmed islands
into it (:meth:`~repro.checkpoint.format.Checkpoint.restore`). The
result is the machine a native warming of B over the same stream would
have built, state for state. That is how one warming chain per workload
serves the whole fig8 preset grid (the presets differ only in
scheduling policy), and :func:`rebase_checkpoint` is that restore
followed by a save.

Refusals, checked in this order before any machine is built
(:func:`check_restorable`):

* the state layout version must be this build's;
* a checkpoint with detailed state restores whole, and only under its
  own configuration — ROB/IQ/rename contents are shaped by the
  scheduling policy;
* ``memory`` and ``branch`` configuration dicts must be equal (they size
  and seed the warmed islands);
* a ``filter_ctr`` target needs a ``filter_ctr`` source with the same
  filter shape (entries, counter bits, reset interval, silence bit) —
  the warmed filter table transplants only into an identically shaped
  one. A filterless target simply leaves the source's filter state
  behind (policy tables fresh, caches/predictors carried over).
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
    "check_rebase_compatible",
    "check_restorable",
    "filter_shape",
    "load_warmed_islands",
    "rebase_checkpoint",
]


class RebaseError(CheckpointError):
    """Checkpoint cannot be restored under the requested config."""


#: The sched-config fields that size the hit/miss filter: a warmed filter
#: table transplants only between identically shaped filters.
FILTER_SHAPE_FIELDS = ("filter_entries", "filter_ctr_bits",
                       "filter_reset_interval", "filter_silence_bit")


def filter_shape(sched: Dict[str, Any]) -> Optional[Tuple]:
    """The filter's shape tuple for a sched-config dict, or ``None`` for
    policies that carry no per-PC filter (a conservative policy has none,
    whatever its ``hit_miss``)."""
    if not sched.get("speculative", True) or sched.get("hit_miss") != HitMissPolicy.FILTER_CTR:
        return None
    return tuple(sched.get(field) for field in FILTER_SHAPE_FIELDS)


def check_rebase_compatible(source_config: Dict[str, Any],
                            target_config: Dict[str, Any]) -> None:
    """Raise :class:`RebaseError` unless warm state captured under
    ``source_config`` is valid warm state for ``target_config``."""
    for section in ("memory", "branch"):
        if source_config.get(section) != target_config.get(section):
            raise RebaseError(
                f"cannot restore {source_config.get('name', '?')!r} "
                f"state under {target_config.get('name', '?')!r}: the "
                f"{section} configurations differ, so the warmed state "
                f"would be wrong (only scheduling-policy parameters may "
                f"differ)")
    source_shape = filter_shape(source_config.get("sched", {}))
    target_shape = filter_shape(target_config.get("sched", {}))
    if target_shape is not None and source_shape != target_shape:
        detail = ("carries no hit/miss filter" if source_shape is None
                  else "filter shapes differ")
        raise RebaseError(
            f"cannot restore {source_config.get('name', '?')!r} state "
            f"under {target_config.get('name', '?')!r}: the target needs "
            f"a warmed {FILTER_SHAPE_FIELDS} filter but the source "
            f"{detail}; warm the target family from a filter-bearing "
            f"donor instead")


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
    if ckpt.payload["config"] == target_config:
        return functional
    if not functional:
        raise RebaseError(
            f"checkpoint has detailed state ({info.uops_committed} "
            f"committed µops, {info.cycles} cycles); only purely "
            f"functional checkpoints restore under another configuration "
            f"— in-flight pipeline contents are shaped by the scheduling "
            f"policy")
    check_rebase_compatible(ckpt.payload["config"], target_config)
    return True


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
    a fresh ``target_config`` machine over the same stream span (the
    property the rebase tests pin).
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
