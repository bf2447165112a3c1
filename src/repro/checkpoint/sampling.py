"""SMARTS-style interval sampling over the experiment engine.

Detailed simulation scales linearly with trace length; statistical
sampling with functional warming (Wunderlich et al., SMARTS) breaks that
wall: the stream is mostly consumed by the functional fast-forward mode
(caches + branch predictors warmed, OoO backend bypassed —
:meth:`repro.pipeline.cpu.Simulator.fast_forward`), and only short,
systematically spaced *measurement intervals* run detailed. Interval
means aggregate to an IPC estimate with a confidence interval.

A :class:`SamplingSpec` pins the geometry::

    offset_uops     functional warming before the first interval
    period_uops     interval-start-to-interval-start distance (µops)
    warmup_uops     detailed pipeline warmup preceding each measurement
    interval_uops   measured µops per interval
    intervals       number of intervals

Each interval compiles to one self-contained engine cell
(:func:`chained_cell_payloads`), dispatched across the process pool and
persistently cached like any other cell. Its fast-forward chains off
the previous interval's checkpoint (produced by a checkpoint-producing
cell, content-addressed in the engine's checkpoint store), so total
warming cost is linear in the span. One warming chain serves every config of a workload that
shares memory/branch parameters — the chain's checkpoints are rebased
(:mod:`repro.checkpoint.rebase`) across scheduling-policy configs. A
chain starts at µop zero or at a user checkpoint. ``repro run
--sample`` (through :func:`repro.pipeline.sim.run_workload`), sweeps,
figures and perfbench all run these cells; the interval mean IPC and
its confidence interval come from
:class:`~repro.pipeline.sim.RunResult`.

:func:`sample_payloads` compiles the from-zero form of the same
intervals: each cell fast-forwards from µop zero (or from its base
checkpoint) to its interval start. It is the reference the chained
cells are tested against — they are bit-identical to it, because
functional warming is deterministic and checkpoint round-trips are
exact — but its total warming cost grows quadratically with the
interval count.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List

from repro.common.config import SimConfig
from repro.common.serialize import stable_hash


class SamplingError(ValueError):
    """Invalid sampling geometry or an unusable sampled workload."""


@dataclass(frozen=True)
class SamplingSpec:
    """Geometry of a sampled run (all volumes in µops)."""

    intervals: int = 8
    interval_uops: int = 2_000
    warmup_uops: int = 500
    period_uops: int = 12_000
    offset_uops: int = 20_000

    def validate(self) -> "SamplingSpec":
        if self.intervals < 1:
            raise SamplingError("sampling.intervals must be >= 1")
        if self.interval_uops < 1:
            raise SamplingError("sampling.interval_uops must be >= 1")
        if self.warmup_uops < 0 or self.offset_uops < 0:
            raise SamplingError(
                "sampling.warmup_uops and sampling.offset_uops must be "
                ">= 0")
        if self.period_uops < self.warmup_uops + self.interval_uops:
            raise SamplingError(
                f"sampling.period_uops ({self.period_uops}) must cover "
                f"warmup + interval "
                f"({self.warmup_uops + self.interval_uops}): intervals "
                f"would overlap")
        return self

    # -- geometry --------------------------------------------------------

    def interval_offset(self, index: int) -> int:
        """Stream position where interval ``index``'s detailed warmup
        starts."""
        if not 0 <= index < self.intervals:
            raise SamplingError(
                f"interval index {index} outside 0..{self.intervals - 1}")
        return self.offset_uops + index * self.period_uops

    @property
    def detailed_uops(self) -> int:
        """Detailed-mode µops across the whole sampled run."""
        return self.intervals * (self.warmup_uops + self.interval_uops)

    @property
    def span_uops(self) -> int:
        """Stream µops from zero through the last measured µop — the
        region a full detailed run would have to simulate to produce the
        same estimate."""
        return (self.interval_offset(self.intervals - 1)
                + self.warmup_uops + self.interval_uops)

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SamplingSpec":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise SamplingError(
                f"unknown sampling fields: {sorted(unknown)} "
                f"(expected among {sorted(known)})")
        return cls(**{k: int(v) for k, v in data.items()}).validate()

    def content_hash(self) -> str:
        return stable_hash(self.to_dict())


# ---------------------------------------------------------------------------
# Cell compilation


def sample_payloads(base_payload: Dict[str, Any],
                    spec: SamplingSpec) -> List[Dict[str, Any]]:
    """Compile one engine cell payload into from-zero interval payloads.

    Each interval cell carries the spec and its index; the base
    payload's ``functional_warmup_uops`` is zeroed (the spec's
    ``offset_uops`` takes over that role) and ``warmup_uops`` /
    ``measure_uops`` are overridden by the spec's per-interval volumes,
    so the cache key depends only on what the cell actually runs.
    """
    spec.validate()
    return [
        {**base_payload,
         "functional_warmup_uops": 0,
         "warmup_uops": spec.warmup_uops,
         "measure_uops": spec.interval_uops,
         "sampling": {"spec": spec.to_dict(), "index": index}}
        for index in range(spec.intervals)
    ]


def _rebased_refs(ref: Dict[str, Any], targets: Dict[str, SimConfig],
                  store: Path) -> Dict[str, Dict[str, Any]]:
    """Refs for chain checkpoint ``ref`` re-targeted to each of
    ``targets`` (keyed by the caller's target ids), materialized
    content-addressed in ``store`` (reused when present).

    The store name hashes the *source digest* + target config + code
    version, so a regenerated or re-warmed source chain can never serve
    a stale rebased file. The source is loaded at most once, and only
    when some target's entry is missing; each new entry's ref comes from
    the info :func:`~repro.checkpoint.rebase.rebase_checkpoint` returns,
    so the file is not read back.
    """
    from repro.checkpoint.format import CHECKPOINT_SUFFIX, load_checkpoint
    from repro.checkpoint.rebase import rebase_checkpoint
    from repro.experiments.engine import (
        _checkpoint_ref,
        _gc_paused,
        checkpoint_store_ref,
        code_version,
    )

    source = None
    rebased = {}
    with _gc_paused():
        for target_id, target_config in targets.items():
            key = stable_hash({"rebase": ref["digest"],
                               "config": target_config.to_dict(),
                               "code_version": code_version()})
            out = store / f"{key}{CHECKPOINT_SUFFIX}"
            cached = checkpoint_store_ref(out)
            if cached is None:
                if source is None:
                    source = load_checkpoint(ref["path"])
                cached = _checkpoint_ref(
                    out, rebase_checkpoint(source, target_config, out))
            rebased[target_id] = cached
    return rebased


def chained_cell_payloads(bases: List[Dict[str, Any]], spec: SamplingSpec,
                          store, *, options=None,
                          progress=None) -> List[Dict[str, Any]]:
    """Compile base payloads into checkpoint-chained interval cells.

    For each distinct warming chain among ``bases`` (same workload,
    seed, memory and branch configuration — and, for filter-bearing
    configs, the same hit/miss-filter shape) one sequence of
    checkpoint-producing cells walks the stream once, each interval's
    cell chaining off the previous interval's checkpoint. Chains step in
    lock-step batches through :func:`~repro.experiments.engine.
    run_produce_cells`, so warming parallelism across workloads/configs
    is preserved even though each chain is sequential. A base carrying a
    ``checkpoint`` ref starts its chain there instead of at µop zero.
    Chain checkpoints are then rebased (cheap, in-process) to every
    other config in the chain's group, and the returned measurement
    payloads — in ``bases``-major, interval-minor order, ready for
    ``run_cells`` — reference the (possibly rebased) checkpoints by
    digest. ``store`` is the checkpoint store directory (see
    :func:`~repro.experiments.engine.checkpoint_store`).
    """
    from repro.checkpoint.rebase import filter_shape
    from repro.experiments.engine import (
        EngineOptions,
        produce_payload,
        run_produce_cells,
    )
    from repro.traces.registry import workload_identity

    spec.validate()
    options = options or EngineOptions.from_env()
    store = Path(store)
    store.mkdir(parents=True, exist_ok=True)

    # Partition bases into warming chains. A warming chain is valid for
    # every config sharing its memory/branch parameters (rebase's
    # compatibility rule); filter-bearing configs additionally need a
    # donor of their own filter shape, so each distinct shape in a group
    # gets its own chain. Filterless configs ride the group's first
    # filter-bearing chain when one exists (rebase drops the filter
    # state) — one warming pass per workload serves the whole grid.
    described = []                       # per base: (group, shape)
    donors: Dict[Any, Dict[str, Any]] = {}   # chain id -> donor base
    group_shapes: Dict[str, List[Any]] = {}
    for base in bases:
        group = stable_hash({
            "workload": workload_identity(base["workload"]),
            "seed": base["seed"],
            "memory": base["config"]["memory"],
            "branch": base["config"]["branch"],
            "start": (base.get("checkpoint") or {}).get("digest"),
        })
        shape = filter_shape(base["config"].get("sched", {}))
        described.append((group, shape))
        if shape is not None and (group, shape) not in donors:
            donors[(group, shape)] = base
            group_shapes.setdefault(group, []).append(shape)
    chain_of = []                        # per base: chain id
    for base, (group, shape) in zip(bases, described):
        if shape is None:
            shapes = group_shapes.get(group)
            chain = (group, shapes[0]) if shapes else (group, None)
            if chain not in donors:
                donors[chain] = base
        else:
            chain = (group, shape)
        chain_of.append(chain)

    # Build every chain stepwise; step i of all chains runs as one
    # produce batch (pool parallelism across chains, sequential within).
    chain_ids = list(donors)
    refs: Dict[Any, List[Dict[str, Any]]] = {cid: [] for cid in chain_ids}
    prev = {cid: donors[cid].get("checkpoint") for cid in chain_ids}
    for index in range(spec.intervals):
        batch = [produce_payload(donors[cid], spec.interval_offset(index),
                                 store, checkpoint=prev[cid])
                 for cid in chain_ids]
        out = run_produce_cells(batch, options=options, progress=progress)
        for cid, ref in zip(chain_ids, out):
            prev[cid] = ref
            refs[cid].append(ref)

    # Rebase index-major — per chain, per checkpoint, every target — so
    # each chain checkpoint is loaded once, and only one is held at a
    # time.
    targets: Dict[Any, Dict[str, SimConfig]] = {}
    target_of = []                       # per base: target id or None
    for base, cid in zip(bases, chain_of):
        if base["config"] == donors[cid]["config"]:
            target_of.append(None)
            continue
        target_id = stable_hash(base["config"])
        chain_targets = targets.setdefault(cid, {})
        if target_id not in chain_targets:
            chain_targets[target_id] = \
                SimConfig.from_dict(base["config"]).validate()
        target_of.append(target_id)
    rebased = {cid: [_rebased_refs(ref, chain_targets, store)
                     for ref in refs[cid]]
               for cid, chain_targets in targets.items()}

    payloads = []
    for base, cid, target_id in zip(bases, chain_of, target_of):
        if target_id is None:
            base_refs = refs[cid]
        else:
            base_refs = [by_target[target_id] for by_target in rebased[cid]]
        for index in range(spec.intervals):
            payloads.append({
                **{key: value for key, value in base.items()
                   if key not in ("produce", "checkpoint_store")},
                "functional_warmup_uops": 0,
                "warmup_uops": spec.warmup_uops,
                "measure_uops": spec.interval_uops,
                "sampling": {"spec": spec.to_dict(), "index": index},
                "checkpoint": base_refs[index],
            })
    return payloads
