"""Versioned on-disk checkpoint format: warm state, captured once.

A checkpoint freezes a complete mid-run :class:`~repro.pipeline.cpu.
Simulator` — every pipeline structure, predictor table, cache directory,
RNG and trace cursor — so later runs resume from warm state instead of
re-simulating (or re-warming) from µop zero. A ``.ckpt`` file is a
:mod:`repro.common.container` file (magic ``b"RPCK"``, version
:data:`FORMAT_VERSION`) whose header counts the raw payload in bytes::

    meta JSON:
        {"schema": 1, "config_name": ..., "config_hash": ...,
         "l1d": "banked" | "dual-ported",
         "workload": <workload payload or null>, "seed": ...,
         "uops_committed": ..., "cycles": ..., "provenance": {...}}
    one frame:
        zlib(pickle(state))  — plain-data only (the restricted loader
        refuses anything that would import code)

The digest identifies the *state*, independent of the zlib level or file
location — it is what the experiment engine folds into cell cache keys
when a cell starts from a checkpoint, so a cached result can never be
served against a regenerated checkpoint. Version 1 files (the payload
an unframed zlib stream) are refused.

The payload is a pickle of builtin containers and scalars only (that is
what the component ``state_dict()`` protocol guarantees); loading goes
through :class:`_PlainUnpickler`, which rejects any global reference, so
a tampered file cannot execute code; a payload that is not a checkpoint
state (a dict of ``config``, ``workload``, ``seed`` and ``sim``) is
refused before use. Both refusals of a payload whose digest holds raise
:class:`PayloadError`.
"""

from __future__ import annotations

import dataclasses
import io
import pickle
import platform
import time
from pathlib import Path
from typing import Any, Dict, Optional

from repro.common.config import SimConfig
from repro.common.container import Container, Header
from repro.common.serialize import stable_hash

FORMAT_VERSION = 2

#: Bumped when the meta layout (not the simulator state) changes.
CHECKPOINT_SCHEMA = 1

#: Canonical file suffix for checkpoints.
CHECKPOINT_SUFFIX = ".ckpt"

#: Pinned so identical state always produces identical payload bytes
#: (the digest doubles as a cache-key ingredient).
PICKLE_PROTOCOL = 4

#: zlib level of the stored payload. The digest covers the raw payload,
#: so the level changes file size only; level 1 compresses a checkpoint
#: about three times faster than level 6, for a file about 6% larger.
ZLIB_LEVEL = 1


class CheckpointError(ValueError):
    """Malformed, truncated, tampered or incompatible checkpoint file."""


class PayloadError(CheckpointError):
    """A payload that matches its digest but is not a plain-data
    checkpoint state."""


CONTAINER = Container(b"RPCK", FORMAT_VERSION, "checkpoint", CheckpointError)


class _PlainUnpickler(pickle.Unpickler):
    """Unpickler that refuses global lookups: checkpoint payloads are
    plain data, so any class/function reference means tampering."""

    def find_class(self, module: str, name: str):
        raise PayloadError(
            f"checkpoint payload references {module}.{name}; payloads "
            f"must be plain data")


#: Types :func:`_canonical_state` passes through unchanged. A list or
#: tuple holding only these is already canonical, so it is returned as
#: is rather than rebuilt — most of a state's bulk is flat int tables.
#: ``pickle`` with ``fast=True`` keeps no memo, so sharing the object
#: instead of copying it cannot change the bytes.
_LEAF_TYPES = frozenset((int, bool, float, str, bytes, type(None)))


def _canonical_state(obj: Any) -> Any:
    # Pickle preserves dict insertion order, but insertion order is not
    # part of a state's *value* — the same workload dict arrives sorted
    # when a payload travelled through JSON and in builder order when it
    # stayed in-process. Sort keys recursively
    # (falling back to insertion order for unorderable key types) so the
    # digest is order-independent. Container types are preserved:
    # restore code may distinguish tuples from lists.
    if isinstance(obj, dict):
        try:
            items = sorted(obj.items())
        except TypeError:
            items = list(obj.items())
        return {key: _canonical_state(value) for key, value in items}
    if isinstance(obj, list):
        if type(obj) is list and _LEAF_TYPES.issuperset(map(type, obj)):
            return obj
        return [_canonical_state(value) for value in obj]
    if isinstance(obj, tuple):
        if type(obj) is tuple and _LEAF_TYPES.issuperset(map(type, obj)):
            return obj
        return tuple(_canonical_state(value) for value in obj)
    return obj


def _dumps(state: Any) -> bytes:
    # fast=True disables the pickle memo, so the byte stream depends only
    # on *values*, never on object identity/aliasing inside the state
    # graph. State dicts are plain acyclic data, which fast mode requires.
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=PICKLE_PROTOCOL)
    pickler.fast = True
    pickler.dump(_canonical_state(state))
    return buffer.getvalue()


def _loads(raw: bytes) -> Any:
    try:
        return _PlainUnpickler(io.BytesIO(raw)).load()
    except CheckpointError:
        raise
    except Exception as exc:             # pickle's zoo of decode errors
        raise PayloadError(f"corrupt checkpoint payload: {exc}") from exc


# ---------------------------------------------------------------------------
# Info


@dataclasses.dataclass(frozen=True)
class CheckpointInfo:
    """Everything knowable about a checkpoint without loading its state."""

    path: str
    version: int
    digest: str                     # hex sha256 over the raw payload
    config_name: str
    config_hash: str
    l1d: str                        # "banked" or "dual-ported"
    workload: Optional[Dict[str, Any]]   # workload payload encoding
    seed: Optional[int]
    uops_committed: int
    cycles: int
    provenance: Dict[str, Any]
    file_bytes: int
    raw_bytes: int

    @property
    def workload_name(self) -> str:
        from repro.traces.registry import payload_name

        return payload_name(self.workload) if self.workload else "?"


def _info(path: Path, head: Header) -> CheckpointInfo:
    meta = head.meta
    if meta.get("schema") != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"{path.name}: checkpoint schema {meta.get('schema')} (this "
            f"build reads {CHECKPOINT_SCHEMA})")
    return CheckpointInfo(
        path=str(path),
        version=FORMAT_VERSION,
        digest=head.digest.hex(),
        config_name=meta.get("config_name", "?"),
        config_hash=meta.get("config_hash", ""),
        l1d=meta.get("l1d", "?"),
        workload=meta.get("workload"),
        seed=meta.get("seed"),
        uops_committed=int(meta.get("uops_committed", 0)),
        cycles=int(meta.get("cycles", 0)),
        provenance=dict(meta.get("provenance") or {}),
        file_bytes=path.stat().st_size,
        raw_bytes=head.count,
    )


def read_info(path) -> CheckpointInfo:
    """Parse header + meta of a checkpoint (no payload decode)."""
    path = Path(path)
    return _info(path, CONTAINER.header(path))


# ---------------------------------------------------------------------------
# Save


def save_checkpoint(sim, path, *, workload=None, seed: Optional[int] = None,
                    provenance: Optional[Dict[str, Any]] = None
                    ) -> CheckpointInfo:
    """Freeze ``sim`` to ``path``.

    ``workload`` (anything the workload registry hands out) and ``seed``
    are recorded so :meth:`Checkpoint.restore` can rebuild the trace
    source without the caller re-supplying them; pass ``workload=None``
    for hand-built traces and supply the trace at restore time.
    """
    from repro.traces.registry import workload_payload

    config = sim.config.to_dict()
    payload = {
        "schema": CHECKPOINT_SCHEMA,
        "config": config,
        "workload": (workload_payload(workload)
                     if workload is not None else None),
        "seed": seed,
        "sim": sim.state_dict(),
    }
    meta = {
        "schema": CHECKPOINT_SCHEMA,
        "config_name": config.get("name", "?"),
        "config_hash": stable_hash(config),
        "l1d": "banked" if sim.config.memory.l1d.banked else "dual-ported",
        "workload": payload["workload"],
        "seed": seed,
        "uops_committed": sim.stats.committed_uops,
        "cycles": sim.stats.cycles,
        "provenance": {
            "python": platform.python_version(),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            **(provenance or {}),
        },
    }
    CONTAINER.write(path, meta, (_dumps(payload),), level=ZLIB_LEVEL)
    return read_info(path)


# ---------------------------------------------------------------------------
# Load / restore


class Checkpoint:
    """A loaded checkpoint: info + the decoded state payload."""

    def __init__(self, info: CheckpointInfo, payload: Dict[str, Any]) -> None:
        self.info = info
        self.payload = payload

    def restore(self, config: Optional[SimConfig] = None, trace=None,
                phase_profile=None, event_bus=None, extra_stages=()):
        """Build a fresh :class:`~repro.pipeline.cpu.Simulator` under
        ``config`` (default: the saved one) and load this checkpoint's
        state into it.

        A purely functional checkpoint restores as the fresh machine plus
        the islands warming touched, under its own configuration or any
        other that :func:`~repro.checkpoint.rebase.check_restorable`
        accepts; a checkpoint with detailed state restores whole, under
        its own configuration only. ``trace`` overrides the recorded
        workload (required when the checkpoint was saved without one);
        it must be an equivalent source — same workload, same seed —
        since its cursor state is overwritten from the checkpoint.
        ``event_bus`` / ``extra_stages`` pass through to the Simulator
        constructor, so a restored run can be instrumented exactly like a
        cold one (telemetry stages own no checkpoint state).
        """
        from repro.checkpoint.rebase import check_restorable, load_warmed_islands
        from repro.pipeline.cpu import Simulator
        from repro.traces.registry import workload_from_payload

        if config is None:
            config = SimConfig.from_dict(self.payload["config"])
        config = config.validate()
        functional = check_restorable(self, config.to_dict())
        if trace is None:
            workload_data = self.payload.get("workload")
            if workload_data is None:
                raise CheckpointError(
                    f"{self.info.path}: checkpoint records no workload; "
                    f"pass an explicit trace to restore()")
            workload = workload_from_payload(workload_data)
            trace = workload.build_trace(self.payload.get("seed"))
        sim = Simulator(config, trace, phase_profile=phase_profile,
                        event_bus=event_bus, extra_stages=extra_stages)
        if functional:
            load_warmed_islands(sim, self.payload["sim"])
        else:
            sim.load_state_dict(self.payload["sim"])
        return sim


def verify_checkpoint(path) -> CheckpointInfo:
    """Digest-verify a checkpoint file without decoding its state."""
    path = Path(path)
    return _info(path, CONTAINER.verify(path)[0])


def load_checkpoint(path) -> Checkpoint:
    """Read, digest-verify and decode a checkpoint file."""
    path = Path(path)
    head, raw = CONTAINER.verify(path, keep=True)
    info = _info(path, head)
    payload = _loads(raw)
    if not (isinstance(payload, dict)
            and {"config", "workload", "seed", "sim"} <= payload.keys()
            and isinstance(payload["config"], dict)
            and isinstance(payload["sim"], dict)):
        raise PayloadError(
            f"{path.name}: payload is not a checkpoint state (a dict of "
            f"config, workload, seed and sim)")
    return Checkpoint(info, payload)
