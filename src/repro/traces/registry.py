"""The workload registry: one namespace for suites, traces and programs.

Everything that consumes workloads — ``repro run``/``repro sweep``, the
experiment engine, figures/tables, benchmarks — resolves them here, so a
recording or program image is addressable end-to-end by name the moment
its file exists. Three kinds resolve uniformly:

* **suite** — the built-in Table-2 :class:`~repro.workloads.spec.WorkloadSpec`
  entries ("mcf", "xalancbmk", ...);
* **trace** — recorded binary traces (``.trc``), wrapped in
  :class:`TraceWorkload`;
* **rv32i** — real RV32I program images (``.hex``/``.bin``), wrapped in
  :class:`~repro.isa.rv32i.workload.Rv32iWorkload`. The bundled kernel
  corpus under ``examples/rv32i`` resolves by bare name.

Recordings and images are discovered on ``REPRO_WORKLOAD_PATH``
(``os.pathsep``-separated directories). Names containing a path
separator or a recognized suffix bypass the search and load directly.

All kinds satisfy one protocol — ``name``, ``description``,
``is_fp``, ``build_trace(seed)``, ``content_hash()`` — and
:func:`workload_payload` / :func:`workload_from_payload` give them one
self-contained, picklable cell-payload encoding for the engine. A trace
workload's payload embeds the trace's content digest, so engine cache
keys can never match a re-recorded trace.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.common.serialize import canonical_json, stable_hash
from repro.isa.rv32i.corpus import bundled_workload
from repro.isa.rv32i.workload import RV32I_SUFFIXES, Rv32iWorkload
from repro.traces.format import FileTrace, TRACE_SUFFIX, TraceInfo, read_info
from repro.workloads.spec import WorkloadSpec
from repro.workloads.suite import SUITE

_FILE_SUFFIXES = (TRACE_SUFFIX,) + RV32I_SUFFIXES

#: Union of everything the registry hands out.
WorkloadLike = Union[WorkloadSpec, "TraceWorkload", Rv32iWorkload]


class TraceWorkload:
    """A recorded trace file presented through the workload protocol.

    ``build_trace`` ignores the caller's seed: the stream (and its
    wrong-path seed) were fixed at record time. The trace's content
    digest doubles as the identity the engine hashes, and it is
    re-checked against the file header at build time so a silently
    swapped file fails loudly instead of polluting results.
    """

    def __init__(self, path, info: Optional[TraceInfo] = None,
                 name: Optional[str] = None) -> None:
        self.path = Path(path)
        self.info = info if info is not None else read_info(self.path)
        self.name = name or self.info.provenance.get(
            "workload", self.path.stem)
        self.digest = self.info.digest

    @property
    def description(self) -> str:
        base = self.info.provenance.get("description", "")
        suffix = f"recorded trace ({self.info.uop_count} µops)"
        return f"{base} [{suffix}]" if base else suffix

    @property
    def is_fp(self) -> bool:
        return bool(self.info.provenance.get("is_fp", False))

    def build_trace(self, seed: Optional[int] = None) -> FileTrace:
        trace = FileTrace(self.path)
        if trace.info.digest != self.digest:
            raise ValueError(
                f"trace {self.path} was re-recorded (digest "
                f"{trace.info.digest[:12]}… != expected "
                f"{self.digest[:12]}…); re-resolve the workload")
        return trace

    def content_hash(self) -> str:
        """Identity of the recorded stream, not of the file location."""
        return stable_hash({"kind": "trace", "digest": self.digest,
                            "wp_seed": self.info.wp_seed})


# ---------------------------------------------------------------------------
# Cell-payload encoding (used by repro.experiments.engine)


def workload_payload(workload: WorkloadLike) -> Dict[str, Any]:
    """Self-contained plain-dict encoding of any registry workload."""
    if isinstance(workload, WorkloadSpec):
        return {"kind": "spec", "spec": workload.to_dict()}
    if isinstance(workload, TraceWorkload):
        return {"kind": "trace", "name": workload.name,
                "path": str(workload.path), "digest": workload.digest,
                "wp_seed": workload.info.wp_seed,
                "uop_count": workload.info.uop_count}
    if isinstance(workload, Rv32iWorkload):
        return {"kind": "rv32i", "name": workload.name,
                "path": str(workload.path), "digest": workload.digest,
                "seed": workload.seed}
    raise TypeError(f"not a registry workload: {type(workload).__name__}")


def workload_identity(data: Dict[str, Any]) -> Dict[str, Any]:
    """The hash-relevant view of a workload payload.

    For spec payloads that is the payload itself; for traces the
    file location and display name are dropped so the cache key depends
    only on the recorded stream (digest + wrong-path seed + length) — the
    same recording at two paths, or on two machines sharing a cache,
    hits the same entries.

    The view is JSON-canonical (tuples become lists), so identities
    compare equal across a JSON round-trip — a payload that travelled
    through JSON must match the identity a checkpoint recorded
    in-process.
    """
    if data.get("kind") == "trace":
        return {"kind": "trace", "digest": data["digest"],
                "wp_seed": data["wp_seed"], "uop_count": data["uop_count"]}
    if data.get("kind") == "rv32i":
        # The committed path is a pure function of the image; the cell's
        # own seed field already keys the wrong-path stream. Location and
        # display name are irrelevant to what gets simulated.
        return {"kind": "rv32i", "image_sha": data["digest"]}
    return json.loads(canonical_json(data))


def payload_name(data: Dict[str, Any]) -> str:
    """Display name of a workload payload: trace and RV32I payloads keep
    ``name`` at the top level, suite payloads keep it in their ``spec``."""
    if "name" in data:
        return str(data["name"])
    return str(data.get("spec", {}).get("name", "?"))


def workload_from_payload(data: Dict[str, Any]) -> WorkloadLike:
    """Inverse of :func:`workload_payload` (runs in engine workers)."""
    kind = data.get("kind")
    if kind == "spec":
        return WorkloadSpec.from_dict(data["spec"])
    if kind == "trace":
        workload = TraceWorkload(data["path"], name=data.get("name"))
        if workload.digest != data["digest"]:
            raise ValueError(
                f"trace {data['path']} changed since the cell was built "
                f"(digest mismatch)")
        return workload
    if kind == "rv32i":
        workload = Rv32iWorkload(data["path"], name=data.get("name"),
                                 seed=data.get("seed", 1))
        if workload.digest != data["digest"]:
            raise ValueError(
                f"rv32i image {data['path']} changed since the cell was "
                f"built (digest mismatch)")
        return workload
    raise ValueError(f"unknown workload payload kind {kind!r}")


# ---------------------------------------------------------------------------
# The registry


class WorkloadRegistry:
    """Name -> workload resolution over the suite, the bundled RV32I
    programs and files."""

    def __init__(self,
                 search_paths: Optional[Sequence[Union[str, Path]]] = None
                 ) -> None:
        if search_paths is None:
            search_paths = [
                entry for entry in os.environ.get(
                    "REPRO_WORKLOAD_PATH", "").split(os.pathsep) if entry]
        self.search_paths = [Path(p) for p in search_paths]

    # -- resolution ------------------------------------------------------

    def resolve(self, name: Union[str, Path, WorkloadLike]) -> WorkloadLike:
        """Resolve a workload by suite name, bundled RV32I program name,
        file name on the search path, or explicit path. Workload objects
        pass through."""
        if not isinstance(name, (str, Path)):
            return name
        text = str(name)
        path = Path(text)
        if os.sep in text or path.suffix.lower() in _FILE_SUFFIXES:
            if not path.exists():
                raise KeyError(f"workload file {text!r} does not exist")
            return self._load_file(path)
        if text in SUITE:
            return SUITE[text]
        bundled = bundled_workload(text)
        if bundled is not None:
            return bundled
        for directory in self.search_paths:
            for suffix in _FILE_SUFFIXES:
                candidate = directory / f"{text}{suffix}"
                if candidate.exists():
                    return self._load_file(candidate)
        raise KeyError(
            f"unknown workload {text!r}; available: "
            f"{', '.join(sorted(self.names()))}")

    @staticmethod
    def _load_file(path: Path) -> WorkloadLike:
        suffix = path.suffix.lower()
        if suffix == TRACE_SUFFIX:
            return TraceWorkload(path)
        if suffix in RV32I_SUFFIXES:
            return Rv32iWorkload(path)
        raise KeyError(f"unsupported workload file type {path.suffix!r}")

    # -- enumeration -----------------------------------------------------

    def names(self) -> Dict[str, str]:
        """name -> kind for everything currently addressable by bare name."""
        out: Dict[str, str] = {name: "suite" for name in SUITE}
        from repro.isa.rv32i.corpus import bundled_programs
        for name in bundled_programs():
            out.setdefault(name, "rv32i")
        for directory in self.search_paths:
            if not directory.is_dir():
                continue
            for entry in sorted(directory.iterdir()):
                suffix = entry.suffix.lower()
                if suffix == TRACE_SUFFIX:
                    out.setdefault(entry.stem, "trace")
                elif suffix in RV32I_SUFFIXES:
                    out.setdefault(entry.stem, "rv32i")
        return out

    def entries(self) -> List[tuple]:
        """``(registry name, resolved workload)`` for every addressable
        name, skipping unreadable files."""
        resolved = []
        for name in sorted(self.names()):
            try:
                resolved.append((name, self.resolve(name)))
            except (KeyError, ValueError, OSError):
                continue
        return resolved


#: Default registry used by the CLI, the runner and the engine. Built
#: per call so ``REPRO_WORKLOAD_PATH`` changes (tests, notebooks) take
#: effect without process restarts; construction is cheap (no I/O).
def default_registry() -> WorkloadRegistry:
    return WorkloadRegistry()


def resolve_workload(name: Union[str, Path, WorkloadLike]) -> WorkloadLike:
    """Module-level convenience: resolve against a fresh default registry."""
    return default_registry().resolve(name)
