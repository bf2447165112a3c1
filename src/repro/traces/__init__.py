"""Trace subsystem: binary capture/replay and the workload registry.

Two layers (see the module docstrings for the details):

* :mod:`repro.traces.format` — the record encoding of the binary
  on-disk µop stream (a :mod:`repro.common.container` file),
  :func:`capture` and :class:`FileTrace` replay;
* :mod:`repro.traces.registry` — the single namespace through which the
  engine, CLI, figures and benchmarks resolve kernel suites, recorded
  traces and RV32I program images uniformly.
"""

from repro.traces.format import (
    FileTrace,
    TRACE_SUFFIX,
    TraceFormatError,
    TraceInfo,
    capture,
    read_info,
    verify,
)
from repro.traces.registry import (
    TraceWorkload,
    WorkloadRegistry,
    default_registry,
    resolve_workload,
    workload_from_payload,
    workload_identity,
    workload_payload,
)

__all__ = [
    "FileTrace",
    "TRACE_SUFFIX",
    "TraceFormatError",
    "TraceInfo",
    "TraceWorkload",
    "WorkloadRegistry",
    "capture",
    "default_registry",
    "read_info",
    "resolve_workload",
    "verify",
    "workload_from_payload",
    "workload_identity",
    "workload_payload",
]
