"""Parallel experiment engine with a persistent result cache.

This is the batch-execution core every sweep funnels through
(:func:`repro.experiments.runner.run_sweep`, which the figure registry's
:func:`~repro.experiments.figures.run_figure`, Table 2 and the ``repro
sweep`` CLI subcommand call, and ``perfbench/``). It does three things:

1. **Cell dispatch.** A *cell* is one ``(configuration, workload)``
   simulation at fixed µop volumes and seed. :func:`run_cells` executes a
   batch of cells inline, or across a local process pool under
   ``REPRO_JOBS > 1``. Each cell is fully described by a plain-dict
   *payload* (serialized config + workload spec + volumes + seed), so
   results are bit-identical no matter which process — or which run —
   simulated them. Besides measurement cells there are
   *checkpoint-producing* cells (:func:`run_produce_cells`): their
   output is a warm checkpoint at a target µop position, stored
   content-addressed in the checkpoint store (:func:`checkpoint_store`)
   so sampled runs can chain each interval off the previous interval's
   state.
   Both kinds go through one cached-dispatch routine.

2. **Persistent result cache.** :class:`ResultCache` layers an in-process
   memo over an on-disk store. Entries are keyed by a sha256 content hash
   of the payload *including a code-version digest over the package
   sources*, so editing any simulator source invalidates stale results
   automatically. Layout (under ``REPRO_CACHE_DIR``, default
   ``~/.cache/repro-isca2015``)::

       <cache_dir>/<key[:2]>/<key>.json
           {"schema": 1, "key": ..., "payload": {...}, "stats": {...}}

   Writes are atomic (:class:`~repro.common.serialize.AtomicFile`), so
   concurrent sweeps sharing a cache directory cannot corrupt entries.

3. **Declarative sweeps.** A :class:`Sweep` names a grid of
   :class:`SweepSeries` series plus optional workload/volume overrides;
   :meth:`Sweep.from_file` loads one from TOML or JSON (see
   ``examples/sweeps/``) and :func:`run_sweep` executes it.

Engine knobs come from the environment (see :class:`EngineOptions`):

* ``REPRO_JOBS`` — worker processes (default 1 = serial);
* ``REPRO_CACHE_DIR`` — cache directory; ``off``/``none``/``0`` or the
  empty string disables the persistent layer (the in-process memo always
  applies).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gc
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.common.serialize import (
    AtomicFile,
    load_structured_file,
    stable_hash,
)
from repro.common.stats import SimStats
from repro.core.presets import make_config
from repro.pipeline.cpu import Simulator
from repro.traces.registry import (
    WorkloadLike,
    resolve_workload,
    workload_from_payload,
    workload_identity,
    workload_payload,
)

#: Bumped when the cache entry format (not the simulator) changes.
#: 2: cell payloads carry a typed workload encoding ({kind, ...}) and
#: trace cells key on the recording's content digest.
#: 3: payloads may carry sampling ({spec, index}) and checkpoint
#: ({path, digest, position} — keyed by digest only).
#: (Checkpoint-producing payloads — produce/checkpoint_store — never
#: enter this cache: their output lives in the checkpoint store, and
#: the new fields change keys via the content hash, not the schema.)
CACHE_SCHEMA = 3

_DISABLE_TOKENS = frozenset({"", "off", "none", "0"})


# ---------------------------------------------------------------------------
# Code-version digest


#: Presentation-only modules excluded from the code-version digest: they
#: render or select results but cannot change a cell's counters (a cell's
#: configuration and workload are hashed into the key directly). Editing
#: CLI help or table formatting must not invalidate the whole cache.
_NON_SEMANTIC_SOURCES = frozenset({
    "cli.py",
    "__main__.py",
    "experiments/figures.py",
    "experiments/report.py",
    "experiments/tables.py",
    "experiments/timeline.py",
    # Telemetry is observation-only: instrumented runs never populate
    # the cache (simulate_payload with a collector bypasses it), and the
    # emitting stage subclasses are inert unless explicitly installed.
    "telemetry/__init__.py",
    "telemetry/events.py",
    "telemetry/export.py",
    "telemetry/manifest.py",
    "telemetry/probes.py",
    "telemetry/stages.py",
})


@functools.lru_cache(maxsize=1)
def code_version() -> str:
    """Hex digest over the simulation-relevant ``.py`` sources of the
    ``repro`` package.

    Folding this into the cache key means any edit that can change a
    simulation's counters invalidates all previously cached results — no
    manual version bumps, no silently stale goldens. Pure presentation
    modules (:data:`_NON_SEMANTIC_SOURCES`) are excluded so cosmetic
    edits keep the cache warm.
    """
    import repro

    package_root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for source in sorted(package_root.rglob("*.py")):
        relative = source.relative_to(package_root).as_posix()
        if relative in _NON_SEMANTIC_SOURCES:
            continue
        digest.update(relative.encode())
        digest.update(b"\0")
        digest.update(source.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Engine options


def default_cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME", "").strip()
    root = Path(base) if base else Path.home() / ".cache"
    return root / "repro-isca2015"


@dataclass(frozen=True)
class EngineOptions:
    """Execution knobs, normally taken from the environment."""

    jobs: int = 1
    cache_dir: Optional[str] = None     # None => default; "off" => disabled

    @staticmethod
    def from_env() -> "EngineOptions":
        raw_jobs = os.environ.get("REPRO_JOBS", "1") or "1"
        try:
            jobs = int(raw_jobs)
        except ValueError:
            raise ValueError(
                f"REPRO_JOBS must be an integer, not {raw_jobs!r}") from None
        return EngineOptions(jobs=max(1, jobs),
                             cache_dir=os.environ.get("REPRO_CACHE_DIR"))

    def cache_path(self) -> Optional[Path]:
        """Resolved persistent-cache directory, or ``None`` if disabled."""
        if self.cache_dir is None:
            return default_cache_dir()
        if self.cache_dir.strip().lower() in _DISABLE_TOKENS:
            return None
        return Path(self.cache_dir)


# ---------------------------------------------------------------------------
# Persistent result cache


class ResultCache:
    """Two-level result store: in-process memo over an on-disk JSON layer.

    ``memory`` may be shared between instances (the runner shares one
    process-wide dict so every sweep in a process benefits); the disk
    layer is optional. Hit/miss counters make cache behaviour assertable
    in tests and visible in benchmarks.
    """

    def __init__(self, directory: Optional[Path] = None,
                 memory: Optional[Dict[str, SimStats]] = None) -> None:
        self.directory = Path(directory) if directory is not None else None
        self.memory = memory if memory is not None else {}
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.stores = 0

    # -- lookup ----------------------------------------------------------

    def _entry_path(self, key: str) -> Path:
        assert self.directory is not None
        return self.directory / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[SimStats]:
        hit = self.memory.get(key)
        if hit is not None:
            self.memory_hits += 1
            return hit.copy()
        if self.directory is not None:
            path = self._entry_path(key)
            try:
                entry = json.loads(path.read_text())
            except (OSError, ValueError):
                entry = None
            if not isinstance(entry, dict):    # corrupt non-object JSON
                entry = None
            if entry is not None and entry.get("schema") == CACHE_SCHEMA \
                    and isinstance(entry.get("stats"), dict):
                try:
                    stats = SimStats.from_dict(entry["stats"])
                except ValueError:             # tampered counter names
                    stats = None
                if stats is not None:
                    self.memory[key] = stats.copy()
                    self.disk_hits += 1
                    return stats
        self.misses += 1
        return None

    def put(self, key: str, stats: SimStats,
            payload: Optional[Dict[str, Any]] = None) -> None:
        self.memory[key] = stats.copy()
        self.stores += 1
        if self.directory is None:
            return
        path = self._entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Entries record the payload in its location-independent identity
        # form (the structure the key hashes), so the same cell produces
        # byte-identical entries on any machine.
        entry = {"schema": CACHE_SCHEMA, "key": key,
                 "payload": (payload if payload is None
                             else payload_identity(payload)),
                 "stats": stats.to_dict()}
        text = json.dumps(entry, sort_keys=True)
        with AtomicFile(path) as handle:
            handle.write(text.encode("utf-8"))

    # -- maintenance -----------------------------------------------------

    def entry_count(self) -> int:
        """Number of entries in the persistent layer (0 if disabled)."""
        if self.directory is None or not self.directory.exists():
            return 0
        return sum(1 for _ in self.directory.glob("*/*.json"))


# ---------------------------------------------------------------------------
# Cells and their payloads


def base_cell_payload(config, workload: WorkloadLike, *,
                      warmup_uops: int, measure_uops: int,
                      functional_warmup_uops: int, seed: int
                      ) -> Dict[str, Any]:
    """Cell payload from an already-resolved :class:`SimConfig`.

    The entry point every payload builder funnels through —
    :func:`cell_payload` (presets) and :func:`repro.pipeline.sim.
    run_workload` (one cell, plain or sampled) — so a single cell is
    built exactly like a grid cell.
    """
    return {
        "config": config.to_dict(),
        "workload": workload_payload(workload),
        "warmup_uops": warmup_uops,
        "measure_uops": measure_uops,
        "functional_warmup_uops": functional_warmup_uops,
        "seed": seed,
        "code_version": code_version(),
    }


def cell_payload(preset: str, workload: WorkloadLike, *,
                 banked: bool = True, load_ports: int = 2,
                 warmup_uops: int, measure_uops: int,
                 functional_warmup_uops: int, seed: int) -> Dict[str, Any]:
    """Self-contained, picklable description of one simulation cell.

    Everything that can influence the measured counters is in here — the
    fully resolved :class:`SimConfig`, the full workload encoding
    (spec dict, or file path + content digest — so a cached
    result can never be served against a re-recorded trace), the µop
    volumes, the seed and the code-version digest — so the payload's
    content hash is a sound cache key. ``workload`` is anything the
    workload registry hands out: a :class:`WorkloadSpec`, a
    :class:`~repro.traces.registry.TraceWorkload` or an
    :class:`~repro.isa.rv32i.workload.Rv32iWorkload`.
    """
    config = make_config(preset, banked=banked, load_ports=load_ports)
    return base_cell_payload(
        config, workload, warmup_uops=warmup_uops,
        measure_uops=measure_uops,
        functional_warmup_uops=functional_warmup_uops, seed=seed)


def cell_key(payload: Dict[str, Any]) -> str:
    """Content hash of a cell payload — the persistent-cache key.

    Trace workloads are keyed by their recorded stream's identity
    (content digest, wrong-path seed, length), not by file path, so the
    same recording hits the same entries wherever it lives on disk.
    Checkpoint bases likewise key on the checkpoint's *content digest*
    alone: the same warm state at two paths (or regenerated with
    different compression) hits the same entries, and a regenerated
    checkpoint with different state can never serve stale results.
    ``checkpoint_store`` (where a producing cell writes its output) is
    excluded — it is a location, not an input; the produced
    state is pinned by the base digest + target position, which *are*
    keyed.
    """
    return stable_hash(payload_identity(payload))


def payload_identity(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Location-independent form of a cell payload.

    This is the exact structure :func:`cell_key` hashes, and the form
    :class:`ResultCache` records in persistent entries — so a cache
    entry's bytes never depend on where a trace file, checkpoint store
    or cache directory happens to live, and two machines computing the
    same cell write identical entries.
    Fields a payload does not carry are left alone, so free-form
    provenance dicts pass through unchanged.
    """
    normalized = dict(payload)
    if "workload" in normalized:
        normalized["workload"] = workload_identity(normalized["workload"])
    normalized.pop("checkpoint_store", None)
    checkpoint = normalized.get("checkpoint")
    if checkpoint is not None:
        normalized["checkpoint"] = {"digest": checkpoint["digest"]}
    return normalized


def _restore_checkpoint_base(payload: Dict[str, Any], config, workload, *,
                             phase_profile=None, event_bus=None,
                             extra_stages=()) -> Tuple[Simulator, int]:
    """Restore a cell's ``checkpoint`` base under the cell's ``config``,
    fully verified.

    The digest must match the ref (a regenerated checkpoint can never
    serve a stale cell), the saved workload identity must equal the
    cell's, and the checkpoint must restore under the cell's
    configuration (:func:`~repro.checkpoint.rebase.restore_refusal`
    states when it does, and the refusal names the first differing field).
    Returns the restored simulator and the checkpoint's stream position.
    """
    from repro.checkpoint.format import CheckpointError, load_checkpoint

    checkpoint = payload["checkpoint"]
    loaded = load_checkpoint(checkpoint["path"])
    if loaded.info.digest != checkpoint["digest"]:
        raise CheckpointError(
            f"checkpoint {checkpoint['path']} changed since the cell "
            f"was built (digest mismatch)")
    saved_workload = loaded.payload.get("workload")
    if saved_workload is not None and (
            workload_identity(saved_workload)
            != workload_identity(payload["workload"])):
        raise CheckpointError(
            f"checkpoint {checkpoint['path']} was saved for a "
            f"different workload; restoring its trace cursor into "
            f"this cell's stream would silently corrupt the run")
    sim = loaded.restore(config, trace=workload.build_trace(payload["seed"]),
                         phase_profile=phase_profile,
                         event_bus=event_bus, extra_stages=extra_stages)
    return sim, int(checkpoint.get("position", 0))


@contextlib.contextmanager
def _gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector; restore its prior state after.

    A cell allocates millions of short-lived objects, and each collection
    rescans the machine's live µop graph without freeing anything: the
    machine holds no reference cycle (see
    :mod:`repro.pipeline.stages.base`), so reference counting frees it
    when the cell returns. ``tests/pipeline/test_acyclic.py`` guards that.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_gc_paused()
def simulate_payload(payload: Dict[str, Any],
                     phase_profile=None, collector=None) -> Dict[str, Any]:
    """Worker entry point: simulate one cell, return its counter dict.

    Runs in worker processes under ``jobs > 1``; must stay a module-level
    function (picklable) and must touch no process-global mutable state
    beyond pausing the cyclic garbage collector, whose prior state it
    restores on return or raise (:func:`_gc_paused`).
    ``phase_profile`` (a :class:`repro.perf.instrument.PhaseProfile`)
    attaches per-stage cycle-loop timers — perfbench's traced passes
    only; it is never set on the worker-pool path. ``collector`` (a
    :class:`repro.telemetry.probes.MetricsCollector`) instruments the
    run with the metric probes and folds the distilled table into the
    returned dict's ``telemetry`` key — interactive ``repro run
    --metrics``/``--events`` cells only; instrumented results are never written to the result cache
    (callers that cache never pass a collector).

    Beyond the plain (cold-start, fixed-volume) cell, two optional
    payload fields change the shape:

    * ``checkpoint`` — ``{path, digest, position}``: the simulator is
      restored from the saved warm state (digest-verified) instead of
      built cold;
    * ``sampling`` — ``{spec, index}``: the cell is one measurement
      interval of a :class:`~repro.checkpoint.sampling.SamplingSpec`:
      functional fast-forward to the interval start, then a detailed
      warmup + measured region at the spec's per-interval volumes.
    """
    from repro.common.config import SimConfig

    config = SimConfig.from_dict(payload["config"]).validate()
    workload = workload_from_payload(payload["workload"])
    event_bus = collector.bus if collector is not None else None
    extra_stages = tuple(collector.probes) if collector is not None else ()
    sampling = payload.get("sampling")
    required_trace_uops(payload["workload"],
                        warmup_uops=payload["warmup_uops"],
                        measure_uops=payload["measure_uops"],
                        sampling=sampling)
    seed = payload["seed"]
    checkpoint = payload.get("checkpoint")
    if checkpoint is not None:
        sim, position = _restore_checkpoint_base(
            payload, config, workload, phase_profile=phase_profile,
            event_bus=event_bus, extra_stages=extra_stages)
    else:
        position = 0
        sim = Simulator(config, workload.build_trace(seed),
                        phase_profile=phase_profile,
                        event_bus=event_bus, extra_stages=extra_stages)

    warmup, measure = payload["warmup_uops"], payload["measure_uops"]
    if sampling is not None:
        from repro.checkpoint.sampling import SamplingError, SamplingSpec

        spec = SamplingSpec.from_dict(sampling["spec"])
        gap = spec.interval_offset(sampling["index"]) - position
        if gap < 0:
            raise SamplingError(
                f"checkpoint position {position} is past interval "
                f"{sampling['index']}'s start "
                f"({spec.interval_offset(sampling['index'])})")
        sim.fast_forward(gap)
        warmup, measure = spec.warmup_uops, spec.interval_uops
    elif checkpoint is None and payload["functional_warmup_uops"]:
        # A checkpoint carries its own warm state; only cold cells warm.
        sim.functional_warmup(workload.build_trace(seed),
                              payload["functional_warmup_uops"])
    stats = sim.run_with_warmup(warmup, measure)
    if collector is not None:
        collector.finalize(sim, stats)
    return stats.to_dict()


def required_trace_uops(workload_data: Dict[str, Any], *,
                        warmup_uops: int, measure_uops: int,
                        sampling: Optional[Dict[str, Any]] = None) -> None:
    """Refuse a recorded trace too short for the timed volumes.

    A trace that exhausts during warmup would measure an empty region —
    all-zero stats that would then be cached persistently. (A trace
    shorter than the *functional* warmup merely warms less, which ends
    the warmup early rather than corrupting the measurement, so only the
    timed stream is enforced.) Sampled cells need the stream to reach
    their own interval's measured end.
    """
    if workload_data.get("kind") != "trace":
        return
    if sampling is not None:
        from repro.checkpoint.sampling import SamplingSpec

        spec = SamplingSpec.from_dict(sampling["spec"])
        needed = (spec.interval_offset(sampling["index"])
                  + spec.warmup_uops + spec.interval_uops)
        what = f"interval {sampling['index']} needs offset+warmup+measure"
    else:
        needed = warmup_uops + measure_uops
        what = "the timed run needs warmup+measure"
    if workload_data["uop_count"] < needed:
        raise ValueError(
            f"trace {workload_data.get('path', '?')} holds only "
            f"{workload_data['uop_count']} µops but {what} = {needed}; "
            f"re-record with more µops (`repro trace record --uops N`)")


# ---------------------------------------------------------------------------
# Checkpoint-producing cells


@contextlib.contextmanager
def checkpoint_store(options: EngineOptions) -> Iterator[Path]:
    """Where produced checkpoints live for one sampled run:
    ``<cache_dir>/checkpoints`` when the persistent cache is on (the
    chain then survives the run), else a temporary directory removed on
    exit."""
    cache = options.cache_path()
    if cache is not None:
        yield cache / "checkpoints"
        return
    with tempfile.TemporaryDirectory(prefix="repro-ckpt-") as tmp:
        yield Path(tmp)


def _checkpoint_ref(path, info) -> Dict[str, Any]:
    """The payload encoding of a checkpoint: path for the worker, digest
    for the cache key, stream position for the fast-forward arithmetic
    (the recorded stream consumption, else the committed µops)."""
    position = int(info.provenance.get("stream_uops", info.uops_committed))
    return {"path": str(path), "digest": info.digest, "position": position}


def checkpoint_reference(path) -> Dict[str, Any]:
    """The ``{path, digest, position}`` ref of a user checkpoint (header
    read only; the worker verifies the payload when it restores)."""
    from repro.checkpoint.format import read_info

    return _checkpoint_ref(path, read_info(path))


def checkpoint_store_ref(path) -> Optional[Dict[str, Any]]:
    """A verified ``{path, digest, position}`` ref for a store entry, or
    ``None`` when the entry is absent, truncated, tampered or written by
    a different format version — all of which read as cache misses, so
    the producing cell simply regenerates the file."""
    from repro.checkpoint.format import CheckpointError, verify_checkpoint

    path = Path(path)
    if not path.exists():
        return None
    try:
        info = verify_checkpoint(path)       # full payload digest verify
    except (OSError, CheckpointError):
        return None
    return _checkpoint_ref(path, info)


def produce_payload(base: Dict[str, Any], position: int, store, *,
                    checkpoint: Optional[Dict[str, Any]] = None
                    ) -> Dict[str, Any]:
    """Compile a checkpoint-producing cell from a measurement base.

    The cell functionally fast-forwards to stream ``position`` (from the
    optional base ``checkpoint`` ref, else from µop zero) and captures a
    purely functional checkpoint into ``store``. All timed volumes are
    zeroed — the cell simulates no detailed cycle, so its output restores
    under every scheduling-policy config of its chain.
    """
    payload = {key: value for key, value in base.items()
               if key not in ("sampling", "produce", "checkpoint",
                              "checkpoint_store")}
    payload.update({
        "warmup_uops": 0,
        "measure_uops": 0,
        "functional_warmup_uops": 0,
        "produce": {"position": int(position)},
        "checkpoint_store": str(store),
    })
    if checkpoint is not None:
        payload["checkpoint"] = {"path": checkpoint["path"],
                                 "digest": checkpoint["digest"],
                                 "position": checkpoint["position"]}
    return payload


@_gc_paused()
def produce_checkpoint(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Materialize one checkpoint-producing cell; returns its store ref.

    The output file is content-addressed by the cell key at
    ``<checkpoint_store>/<key>.ckpt``; an existing verified entry
    short-circuits the simulation (the store doubles as the cache).
    Writes are atomic, so concurrent producers of the same cell are
    harmless.
    """
    from repro.checkpoint.format import (
        CHECKPOINT_SUFFIX, CheckpointError, save_checkpoint)
    from repro.common.config import SimConfig

    produce = payload["produce"]
    store = Path(payload["checkpoint_store"])
    key = cell_key(payload)
    out = store / f"{key}{CHECKPOINT_SUFFIX}"
    cached = checkpoint_store_ref(out)
    if cached is not None:
        return cached

    config = SimConfig.from_dict(payload["config"]).validate()
    workload = workload_from_payload(payload["workload"])
    seed = payload["seed"]
    if payload.get("checkpoint") is not None:
        sim, position = _restore_checkpoint_base(payload, config, workload)
    else:
        sim = Simulator(config, workload.build_trace(seed))
        position = 0
    target = int(produce["position"])
    gap = target - position
    if gap < 0:
        raise CheckpointError(
            f"checkpoint base at stream position {position} is already "
            f"past the produce target {target}")
    consumed = sim.fast_forward(gap)
    stream_uops = position + consumed

    store.mkdir(parents=True, exist_ok=True)
    return _checkpoint_ref(out, save_checkpoint(
        sim, out, workload=workload, seed=seed,
        provenance={"mode": "functional", "stream_uops": stream_uops,
                    "cell_key": key}))


# ---------------------------------------------------------------------------
# Cell dispatch


def run_cell(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker entry point: run one cell and time it.

    Returns the cell's output — ``{"stats": ...}`` for a measurement
    cell, ``{"checkpoint": ref}`` for a checkpoint-producing one — plus
    ``wall_seconds`` and ``peak_rss_kb``. Peak RSS is the worker
    *process* high-water mark — exact under a fresh pool worker, an
    upper bound inline — which is what the manifest's runaway-cell alarm
    wants. Module-level (picklable) and free of mutable process-global
    state, so a cell computes the same bytes inline or in a pool worker.
    """
    from time import perf_counter

    from repro.telemetry.manifest import peak_rss_kb

    start = perf_counter()
    if "produce" in payload:
        cell = {"checkpoint": produce_checkpoint(payload)}
    else:
        cell = {"stats": simulate_payload(payload)}
    cell["wall_seconds"] = perf_counter() - start
    cell["peak_rss_kb"] = peak_rss_kb()
    return cell


def _dispatch(payloads: Sequence[Dict[str, Any]], options: EngineOptions,
              lookup, keep, manifest_path: Optional[Path],
              progress=None) -> Tuple[List[Any], List[Tuple[str, Dict]]]:
    """The cached-dispatch routine behind :func:`run_cells` and
    :func:`run_produce_cells`.

    Each payload is hashed once and each distinct key looked up once
    (``lookup(key, payload)`` returns the stored output or ``None``), so
    duplicate payloads in a batch run once. Misses run through
    :func:`run_cell` — inline when ``options.jobs == 1``, across a local
    process pool otherwise — and land in completion order: ``keep(key,
    payload, cell)`` persists the cell and returns its output, the cell's
    run manifest is written under ``manifest_path`` (``None`` skips
    manifests) and ``progress(done, total, manifest)`` fires. Returns one
    output per payload, in payload order, and the ``(key, payload)`` of
    every distinct hit.
    """
    from repro.telemetry.manifest import build_manifest, write_manifest

    keys = [cell_key(payload) for payload in payloads]
    first: Dict[str, Dict[str, Any]] = {}
    for key, payload in zip(keys, payloads):
        first.setdefault(key, payload)
    outputs = {key: lookup(key, payload) for key, payload in first.items()}
    hits = [key for key, output in outputs.items() if output is not None]
    misses = [key for key, output in outputs.items() if output is None]

    def land(key: str, cell: Dict[str, Any], done: int) -> None:
        outputs[key] = keep(key, first[key], cell)
        manifest = build_manifest(
            first[key], key, cached=False, wall_seconds=cell["wall_seconds"],
            peak_rss_kb=cell["peak_rss_kb"], jobs=options.jobs)
        if manifest_path is not None:
            write_manifest(manifest_path, manifest)
        if progress is not None:
            progress(done, len(misses), manifest)

    if options.jobs > 1 and len(misses) > 1:
        # Imported here: the pool's modules (multiprocessing and what it
        # loads) would add to every serial run's import time.
        from concurrent.futures import ProcessPoolExecutor, as_completed

        with ProcessPoolExecutor(
                max_workers=min(options.jobs, len(misses))) as pool:
            futures = {pool.submit(run_cell, first[key]): key
                       for key in misses}
            for done, future in enumerate(as_completed(futures), start=1):
                land(futures[future], future.result(), done)
    else:
        for done, key in enumerate(misses, start=1):
            land(key, run_cell(first[key]), done)

    return [outputs[key] for key in keys], [(key, first[key]) for key in hits]


def run_produce_cells(payloads: Sequence[Dict[str, Any]],
                      options: Optional[EngineOptions] = None,
                      progress=None) -> List[Dict[str, Any]]:
    """Execute checkpoint-producing cells; refs in payload order.

    The checkpoint store *is* the cache: an existing verified entry for
    a cell's key is returned without simulating. Executed cells write
    run manifests exactly like measurement cells (``produce_position``
    marks them), so sweep ETAs account for warming work too.
    """
    from repro.checkpoint.format import CHECKPOINT_SUFFIX
    from repro.telemetry.manifest import manifests_dir

    options = options or EngineOptions.from_env()

    def lookup(key: str, payload: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        return checkpoint_store_ref(
            Path(payload["checkpoint_store"]) / f"{key}{CHECKPOINT_SUFFIX}")

    refs, _ = _dispatch(payloads, options, lookup,
                        lambda key, payload, cell: cell["checkpoint"],
                        manifests_dir(options.cache_path()), progress)
    return [dict(ref) for ref in refs]


def run_cells(payloads: Sequence[Dict[str, Any]],
              options: Optional[EngineOptions] = None,
              cache: Optional[ResultCache] = None,
              progress=None) -> List[SimStats]:
    """Execute a batch of cells, returning stats in payload order.

    Cache hits (memory, then disk) are never re-simulated; misses run
    inline or across ``options.jobs`` worker processes and are stored in
    ``cache`` as they land. Duplicate payloads in one batch simulate
    once.

    ``progress`` (``callable(done, total, manifest)``) is invoked once
    per *simulated* cell as results land (completion order, not payload
    order); ``manifest`` is the cell's run-manifest record. Whenever the
    persistent cache is enabled, every batch also writes those records
    under ``<cache_dir>/manifests/`` — one JSON per cell, named by the
    cell key, overwritten on re-execution — for ``repro report
    manifests`` (see :mod:`repro.telemetry.manifest`).
    """
    from repro.telemetry.manifest import (
        build_manifest, manifests_dir, peak_rss_kb, write_manifest)

    options = options or EngineOptions.from_env()
    cache = cache if cache is not None else ResultCache(options.cache_path())
    manifest_path = manifests_dir(cache.directory)

    def keep(key: str, payload: Dict[str, Any],
             cell: Dict[str, Any]) -> SimStats:
        stats = SimStats.from_dict(cell["stats"])
        cache.put(key, stats, payload)
        return stats

    stats, hits = _dispatch(payloads, options,
                            lambda key, payload: cache.get(key), keep,
                            manifest_path, progress)
    if manifest_path is not None and hits:
        # Cache hits get a manifest too (wall time 0) so a fully-warm
        # sweep still reports its cell census and hit rate.
        rss = peak_rss_kb()
        for key, payload in hits:
            write_manifest(manifest_path, build_manifest(
                payload, key, cached=True, wall_seconds=0.0,
                peak_rss_kb=rss, jobs=options.jobs))
    return [entry.copy() for entry in stats]


# ---------------------------------------------------------------------------
# Declarative sweeps


@dataclass(frozen=True)
class SweepSeries:
    """One series (configuration) of a sweep grid."""

    label: str
    preset: str
    banked: bool = True
    load_ports: int = 2


@dataclass(frozen=True)
class Sweep:
    """A declarative (configuration × workload) grid.

    ``workloads`` and the volume fields are optional overrides; anything
    left ``None`` falls back to the environment-driven
    :class:`repro.experiments.runner.Settings` defaults, so sweep files
    stay small and CI can still scale them with ``REPRO_*`` knobs.

    A ``[sampling]`` table (keys of :class:`~repro.checkpoint.sampling.
    SamplingSpec`: ``intervals``, ``interval_uops``, ``warmup_uops``,
    ``period_uops``, ``offset_uops``) switches every cell of the sweep
    to SMARTS-style interval sampling; the per-cell volume fields above
    are then superseded by the spec's per-interval volumes. Each
    interval chains off the previous interval's checkpoint, with one
    warming pass per workload restored under every config of the grid.
    """

    name: str
    baseline: str
    series: Tuple[SweepSeries, ...]
    workloads: Optional[Tuple[str, ...]] = None
    warmup_uops: Optional[int] = None
    measure_uops: Optional[int] = None
    functional_warmup_uops: Optional[int] = None
    seed: Optional[int] = None
    sampling: Optional[Dict[str, Any]] = None

    def sampling_spec(self):
        """The validated :class:`SamplingSpec`, or ``None``."""
        if self.sampling is None:
            return None
        from repro.checkpoint.sampling import SamplingSpec

        return SamplingSpec.from_dict(self.sampling)

    def validate(self) -> "Sweep":
        labels = [s.label for s in self.series]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate series labels in sweep {self.name!r}")
        if self.baseline not in labels:
            raise ValueError(
                f"baseline {self.baseline!r} not among series of "
                f"sweep {self.name!r}")
        for series in self.series:
            make_config(series.preset)      # fail fast on preset typos
        for workload in self.workloads or ():
            resolve_workload(workload)      # fail fast on workload typos
        self.sampling_spec()                # fail fast on sampling typos
        return self

    # -- construction ----------------------------------------------------

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "Sweep":
        known = {f.name for f in dataclasses.fields(Sweep)} | {"series"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown sweep fields: {sorted(unknown)}")
        series = tuple(SweepSeries(**entry) for entry in data["series"])
        workloads = data.get("workloads")
        sampling = data.get("sampling")
        return Sweep(
            name=data["name"],
            baseline=data["baseline"],
            series=series,
            workloads=tuple(workloads) if workloads is not None else None,
            warmup_uops=data.get("warmup_uops"),
            measure_uops=data.get("measure_uops"),
            functional_warmup_uops=data.get("functional_warmup_uops"),
            seed=data.get("seed"),
            sampling=dict(sampling) if sampling is not None else None,
        ).validate()

    @staticmethod
    def from_file(path) -> "Sweep":
        """Load a sweep from a ``.toml`` or ``.json`` file."""
        return Sweep.from_dict(load_structured_file(path))

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)
