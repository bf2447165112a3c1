"""Engine run manifests: one small JSON record per executed cell.

A *manifest* answers "what did the engine actually do for this cell?"
— which configuration and workload, at what volumes, whether the result
came from the cache, how long the simulation took and how much memory
the worker peaked at. Manifests are keyed and named by the cell's cache
key, so re-running a sweep overwrites each cell's record in place (the
directory always reflects the latest execution of every cell).

Layout, next to the persistent result cache::

    <REPRO_CACHE_DIR>/manifests/<key>.json

Writes are atomic (:class:`repro.common.serialize.AtomicFile`), as the
cache's are; when the persistent cache is disabled manifests are skipped
too — there is no run directory to anchor them.

``repro report manifests`` rolls the directory up into a per-config ×
per-workload wall-time/hit-rate table (:func:`rollup` /
:func:`render_rollup`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.common.serialize import AtomicFile
from repro.traces.registry import payload_name

__all__ = [
    "MANIFEST_SCHEMA",
    "build_manifest",
    "manifests_dir",
    "peak_rss_kb",
    "read_manifests",
    "render_rollup",
    "rollup",
    "write_manifest",
]

#: Bumped when the manifest record layout changes.
MANIFEST_SCHEMA = 1


def peak_rss_kb() -> int:
    """This process's peak resident set size in KiB (0 when unknown).

    ``ru_maxrss`` is KiB on Linux; the one platform where it is bytes
    (macOS) is close enough for a telemetry record — the field is for
    spotting runaway cells, not accounting.
    """
    try:
        import resource
    except ImportError:                      # non-POSIX platform
        return 0
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def manifests_dir(cache_dir: Optional[Path]) -> Optional[Path]:
    """The manifest directory for a resolved cache directory (or None)."""
    if cache_dir is None:
        return None
    return Path(cache_dir) / "manifests"


def build_manifest(payload: Dict[str, Any], key: str, *,
                   cached: bool, wall_seconds: float,
                   peak_rss_kb: int = 0, jobs: int = 1) -> Dict[str, Any]:
    """The manifest record for one cell execution (JSON-able)."""
    workload_data = payload["workload"]
    record: Dict[str, Any] = {
        "schema": MANIFEST_SCHEMA,
        "key": key,
        "config": payload["config"].get("name", "?"),
        "workload": payload_name(workload_data),
        "workload_kind": workload_data["kind"],
        "warmup_uops": payload["warmup_uops"],
        "measure_uops": payload["measure_uops"],
        "functional_warmup_uops": payload["functional_warmup_uops"],
        "seed": payload["seed"],
        "code_version": payload["code_version"],
        "cached": bool(cached),
        "wall_seconds": round(float(wall_seconds), 6),
        "peak_rss_kb": int(peak_rss_kb),
        "jobs": int(jobs),
    }
    if workload_data.get("kind") == "trace":
        record["workload_digest"] = workload_data.get("digest")
    checkpoint = payload.get("checkpoint")
    if checkpoint is not None:
        record["checkpoint_digest"] = checkpoint.get("digest")
    sampling = payload.get("sampling")
    if sampling is not None:
        record["sampling_interval"] = sampling.get("index")
    produce = payload.get("produce")
    if produce is not None:
        record["produce_position"] = produce.get("position")
    return record


def write_manifest(directory: Path, manifest: Dict[str, Any]) -> Path:
    """Atomically write ``manifest`` as ``<key>.json`` under ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{manifest['key']}.json"
    text = json.dumps(manifest, sort_keys=True, indent=1)
    with AtomicFile(path) as handle:
        handle.write(text.encode("utf-8"))
    return path


def read_manifests(directory) -> List[Dict[str, Any]]:
    """Every readable current-schema manifest under ``directory``.

    Unreadable or foreign-schema files are skipped silently — the
    directory is shared telemetry, not a database.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return []
    manifests = []
    for path in sorted(directory.glob("*.json")):
        try:
            record = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if isinstance(record, dict) \
                and record.get("schema") == MANIFEST_SCHEMA:
            manifests.append(record)
    return manifests


def rollup(manifests: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate manifests into per-config and per-workload summaries."""
    total = {"cells": 0, "cached": 0, "simulated": 0,
             "wall_seconds": 0.0, "peak_rss_kb": 0}
    by_config: Dict[str, Dict[str, Any]] = {}
    by_workload: Dict[str, Dict[str, Any]] = {}
    for record in manifests:
        for bucket in (total,
                       by_config.setdefault(record["config"], {
                           "cells": 0, "cached": 0, "simulated": 0,
                           "wall_seconds": 0.0, "peak_rss_kb": 0}),
                       by_workload.setdefault(record["workload"], {
                           "cells": 0, "cached": 0, "simulated": 0,
                           "wall_seconds": 0.0, "peak_rss_kb": 0})):
            bucket["cells"] += 1
            if record["cached"]:
                bucket["cached"] += 1
            else:
                bucket["simulated"] += 1
                bucket["wall_seconds"] += record["wall_seconds"]
            bucket["peak_rss_kb"] = max(bucket["peak_rss_kb"],
                                        record["peak_rss_kb"])
    return {"total": total,
            "by_config": dict(sorted(by_config.items())),
            "by_workload": dict(sorted(by_workload.items()))}


def render_rollup(summary: Dict[str, Any]) -> str:
    """Human-readable rendering of a :func:`rollup` summary."""
    total = summary["total"]
    lines = [
        f"cells: {total['cells']}  "
        f"(simulated {total['simulated']}, cached {total['cached']})",
        f"simulated wall time: {total['wall_seconds']:.2f}s   "
        f"peak RSS: {total['peak_rss_kb']:,} KiB",
    ]
    for title, table in (("by config", summary["by_config"]),
                         ("by workload", summary["by_workload"])):
        if not table:
            continue
        lines.append(f"{title}:")
        lines.append(f"  {'name':<24}{'cells':>6}{'cached':>8}"
                     f"{'wall (s)':>10}{'rss (KiB)':>11}")
        for name, bucket in table.items():
            lines.append(
                f"  {name:<24}{bucket['cells']:>6}{bucket['cached']:>8}"
                f"{bucket['wall_seconds']:>10.2f}"
                f"{bucket['peak_rss_kb']:>11,}")
    return "\n".join(lines)
