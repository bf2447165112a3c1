"""Cross-configuration checkpoint rebase: one warming pass, many configs.

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
no in-flight state) taken under configuration A can be re-targeted to
configuration B whenever A and B agree on the memory and branch
configurations: keep the five warmed islands, take everything else from
a freshly built B machine, and the result is byte-identical to having
warmed B natively over the same stream. That is what :func:`rebase_
checkpoint` does — and why one warming pass per workload can serve the
whole fig8 preset grid (the presets differ only in scheduling policy).

Compatibility rules, enforced before any state is assembled:

* source must be purely functional (detailed state cannot be re-targeted
  — ROB/IQ/rename contents are shaped by the scheduling policy);
* ``memory`` and ``branch`` configuration dicts must be equal (they size
  and seed the warmed islands);
* a ``filter_ctr`` target needs a ``filter_ctr`` source with the same
  filter shape (entries, counter bits, reset interval, silence bit) —
  the warmed filter table transplants only into an identically shaped
  one. A filterless target simply drops the source's filter state
  (policy tables reset, caches/predictors carried over).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple, Union

from repro.common.config import HitMissPolicy, SimConfig
from repro.checkpoint.format import (
    CHECKPOINT_SCHEMA,
    Checkpoint,
    CheckpointError,
    CheckpointInfo,
    load_checkpoint,
    write_checkpoint,
)

__all__ = [
    "RebaseError",
    "check_rebase_compatible",
    "filter_shape",
    "rebase_checkpoint",
]


class RebaseError(CheckpointError):
    """Source checkpoint cannot be re-targeted to the requested config."""


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
                f"cannot rebase {source_config.get('name', '?')!r} -> "
                f"{target_config.get('name', '?')!r}: the {section} "
                f"configurations differ, so the warmed state would be "
                f"wrong (rebase only re-targets scheduling-policy "
                f"parameters)")
    source_shape = filter_shape(source_config.get("sched", {}))
    target_shape = filter_shape(target_config.get("sched", {}))
    if target_shape is not None and source_shape != target_shape:
        detail = ("carries no hit/miss filter" if source_shape is None
                  else "filter shapes differ")
        raise RebaseError(
            f"cannot rebase {source_config.get('name', '?')!r} -> "
            f"{target_config.get('name', '?')!r}: the target needs a "
            f"warmed {FILTER_SHAPE_FIELDS} filter but the source "
            f"{detail}; warm the target family from a filter-bearing "
            f"donor instead")


def _require_purely_functional(ckpt: Checkpoint) -> None:
    info = ckpt.info
    if info.uops_committed or info.cycles:
        raise RebaseError(
            f"{info.path}: checkpoint has detailed state "
            f"({info.uops_committed} committed µops, {info.cycles} "
            f"cycles); only purely functional checkpoints rebase — "
            f"in-flight pipeline contents are shaped by the scheduling "
            f"policy")
    state = ckpt.payload.get("sim") or {}
    if state.get("uops"):
        raise RebaseError(
            f"{info.path}: checkpoint carries in-flight µops; only "
            f"purely functional checkpoints rebase")


#: State-dict islands functional warming mutates (everything else is
#: taken fresh from the target machine). Policy is handled separately.
_WARMED_KEYS = ("stats", "trace", "branch_unit", "hierarchy")


def rebase_checkpoint(source: Union[str, Checkpoint], target_config: SimConfig,
                      output) -> CheckpointInfo:
    """Re-target the warm checkpoint ``source`` to ``target_config``,
    writing the result to ``output``; returns the new checkpoint's info.

    The output is byte-identical to a checkpoint taken by natively
    fast-forwarding a fresh ``target_config`` machine over the same
    stream span (the property the rebase tests pin): the warmed islands
    are carried over verbatim, everything else — including every
    scheduling-policy table except a shape-compatible hit/miss filter —
    comes from a freshly built target machine.
    """
    from repro.pipeline.cpu import Simulator
    from repro.traces.registry import workload_from_payload

    ckpt = source if isinstance(source, Checkpoint) else \
        load_checkpoint(source)
    target_config = target_config.validate()
    target_dict = target_config.to_dict()
    version = (ckpt.payload.get("sim") or {}).get("version")
    if version != Simulator.STATE_VERSION:     # carried islands keep the source's layout
        raise RebaseError(f"{ckpt.info.path}: checkpoint state version {version} "
                          f"(this build reads {Simulator.STATE_VERSION})")
    _require_purely_functional(ckpt)
    check_rebase_compatible(ckpt.payload["config"], target_dict)
    workload_data = ckpt.payload.get("workload")
    if workload_data is None:
        raise RebaseError(
            f"{ckpt.info.path}: checkpoint records no workload, so the "
            f"target machine's trace source cannot be rebuilt")

    workload = workload_from_payload(workload_data)
    seed = ckpt.payload.get("seed")
    fresh = Simulator(target_config,
                      workload.build_trace(seed)).state_dict()
    source_state = ckpt.payload["sim"]
    merged = dict(fresh)                 # preserves native key order
    for key in _WARMED_KEYS:
        merged[key] = source_state[key]
    if "hm_filter" in fresh["policy"]:
        policy = dict(fresh["policy"])
        policy["hm_filter"] = source_state["policy"]["hm_filter"]
        merged["policy"] = policy

    payload = {
        "schema": CHECKPOINT_SCHEMA,
        "config": target_dict,
        "workload": workload_data,
        "seed": seed,
        "sim": merged,
    }
    provenance = {
        "mode": "rebase",
        "source_digest": ckpt.info.digest,
        "source_config": ckpt.info.config_name,
    }
    if "stream_uops" in ckpt.info.provenance:
        provenance["stream_uops"] = ckpt.info.provenance["stream_uops"]
    return write_checkpoint(payload, output, uops_committed=0, cycles=0,
                            provenance=provenance)
