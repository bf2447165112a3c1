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
warming cost is linear in the span. One warming chain serves every
config of a workload that shares memory/branch parameters, the L1D's
banking aside (warming never reads it): each interval cell restores
the chain's own checkpoint under its config
(:mod:`repro.checkpoint.rebase`), so the store holds one file per
chain and interval, whatever the number of scheduling-policy configs
and whether their L1D is banked or dual-ported. A
chain starts at µop zero or at a purely functional user checkpoint.
``repro run --sample`` (through :func:`repro.pipeline.sim.
run_workload`), sweeps, figures and perfbench all run these cells; the
interval mean IPC and its confidence interval come from
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


def chained_cell_payloads(bases: List[Dict[str, Any]], spec: SamplingSpec,
                          store, *, options=None,
                          progress=None) -> List[Dict[str, Any]]:
    """Compile base payloads into checkpoint-chained interval cells.

    For each distinct warming chain among ``bases`` (same workload,
    seed, memory and branch configuration as
    :func:`~repro.checkpoint.rebase.warm_view` sees them — and, for
    filter-bearing configs, the same hit/miss-filter shape) one sequence of
    checkpoint-producing cells walks the stream once, each interval's
    cell chaining off the previous interval's checkpoint. Chains step in
    lock-step batches through :func:`~repro.experiments.engine.
    run_produce_cells`, so warming parallelism across workloads/configs
    is preserved even though each chain is sequential. A base carrying a
    ``checkpoint`` ref starts its chain there instead of at µop zero;
    that checkpoint must be purely functional. The returned measurement
    payloads — in ``bases``-major, interval-minor order, ready for
    ``run_cells`` — reference their chain's checkpoints by digest, and
    each cell restores its chain checkpoint under its own config
    (:meth:`~repro.checkpoint.format.Checkpoint.restore`). ``store`` is
    the checkpoint store directory (see
    :func:`~repro.experiments.engine.checkpoint_store`).
    """
    from repro.checkpoint.format import read_info
    from repro.checkpoint.rebase import filter_shape, warm_view
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
    # every config sharing its memory/branch parameters up to the L1D's
    # banking (the restore compatibility rule); filter-bearing configs additionally need a
    # donor of their own filter shape, so each distinct shape in a group
    # gets its own chain. Filterless configs ride the group's first
    # filter-bearing chain when one exists (their restore leaves the
    # filter state behind) — one warming pass per workload serves the
    # whole grid.
    described = []                       # per base: (group, shape)
    donors: Dict[Any, Dict[str, Any]] = {}   # chain id -> donor base
    group_shapes: Dict[str, List[Any]] = {}
    for base in bases:
        start = base.get("checkpoint")
        if start is not None:
            info = read_info(start["path"])
            if info.uops_committed or info.cycles:
                raise SamplingError(
                    f"{start['path']}: a sampled chain starts from a "
                    f"purely functional checkpoint, but this one has "
                    f"detailed state ({info.uops_committed} committed "
                    f"µops, {info.cycles} cycles); create it with "
                    f"--mode functional")
        group = stable_hash({
            "workload": workload_identity(base["workload"]),
            "seed": base["seed"],
            "memory": warm_view(base["config"])["memory"],
            "branch": base["config"]["branch"],
            "start": (start or {}).get("digest"),
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

    payloads = []
    for base, cid in zip(bases, chain_of):
        for index in range(spec.intervals):
            payloads.append({
                **{key: value for key, value in base.items()
                   if key not in ("produce", "checkpoint_store")},
                "functional_warmup_uops": 0,
                "warmup_uops": spec.warmup_uops,
                "measure_uops": spec.interval_uops,
                "sampling": {"spec": spec.to_dict(), "index": index},
                "checkpoint": refs[cid][index],
            })
    return payloads
