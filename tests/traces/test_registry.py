"""Workload registry: uniform resolution of suites, traces, RV32I images."""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.isa.trace import ListTrace, iterate
from repro.traces.format import capture
from repro.traces.registry import (
    TraceWorkload,
    WorkloadRegistry,
    resolve_workload,
    workload_from_payload,
    workload_payload,
)
from repro.isa.opclass import OpClass
from repro.isa.rv32i.workload import Rv32iWorkload
from repro.isa.uop import MicroOp
from repro.workloads.spec import WorkloadSpec
from repro.workloads.suite import SUITE


def _mixed_uops(n):
    return [MicroOp(0, 0x100 + i, OpClass.LOAD, srcs=[2], dst=3,
                    mem_addr=0x4000 + 64 * i) for i in range(n)]


PTR_CHASE_HEX = Path(__file__).parents[2] / "examples/rv32i/ptr-chase.hex"


@pytest.fixture
def program_file(tmp_path) -> Path:
    path = tmp_path / "reg-program.hex"
    shutil.copyfile(PTR_CHASE_HEX, path)
    return path


@pytest.fixture
def trace_file(tmp_path) -> Path:
    path = tmp_path / "reg-trace.trc"
    capture(ListTrace(_mixed_uops(40)), path, 40, wp_seed=4,
            provenance={"workload": "hand", "is_fp": False})
    return path


# ---------------------------------------------------------------------------
# Resolution


def test_suite_names_resolve():
    registry = WorkloadRegistry(search_paths=[])
    workload = registry.resolve("xalancbmk")
    assert isinstance(workload, WorkloadSpec)
    assert workload is SUITE["xalancbmk"]


def test_explicit_trace_path(trace_file):
    workload = WorkloadRegistry(search_paths=[]).resolve(str(trace_file))
    assert isinstance(workload, TraceWorkload)
    assert workload.name == "hand"            # provenance wins over stem
    assert len(list(iterate(workload.build_trace(), 100))) == 40


def test_search_path_resolution(program_file, trace_file):
    registry = WorkloadRegistry(search_paths=[program_file.parent])
    assert isinstance(registry.resolve("reg-program"), Rv32iWorkload)
    assert isinstance(registry.resolve("reg-trace"), TraceWorkload)


def test_env_search_path(program_file, trace_file, monkeypatch):
    monkeypatch.setenv("REPRO_WORKLOAD_PATH", str(program_file.parent))
    assert isinstance(resolve_workload("reg-program"), Rv32iWorkload)
    assert isinstance(resolve_workload("reg-trace"), TraceWorkload)


def test_suite_shadows_files(tmp_path):
    # A stray file must not hijack a canonical Table-2 name.
    capture(ListTrace(_mixed_uops(40)), tmp_path / "mcf.trc", 40,
            wp_seed=4, provenance={"workload": "mcf"})
    workload = WorkloadRegistry(search_paths=[tmp_path]).resolve("mcf")
    assert workload is SUITE["mcf"]


def test_workload_objects_pass_through():
    registry = WorkloadRegistry(search_paths=[])
    spec = SUITE["gzip"]
    assert registry.resolve(spec) is spec


def test_unknown_name_lists_available():
    registry = WorkloadRegistry(search_paths=[])
    with pytest.raises(KeyError, match="unknown workload.*available"):
        registry.resolve("quake3")


def test_missing_file_rejected():
    with pytest.raises(KeyError, match="does not exist"):
        WorkloadRegistry(search_paths=[]).resolve("nope/missing.trc")


def test_names_enumerates_kinds(program_file, trace_file):
    names = WorkloadRegistry(search_paths=[program_file.parent]).names()
    assert names["gzip"] == "suite"
    assert names["ptr-chase"] == "rv32i"
    assert names["reg-program"] == "rv32i"
    assert names["reg-trace"] == "trace"


def test_entries_resolve_all(program_file, trace_file):
    registry = WorkloadRegistry(search_paths=[program_file.parent])
    entries = dict(registry.entries())
    assert {"gzip", "reg-program", "reg-trace"} <= set(entries)


# ---------------------------------------------------------------------------
# Payload encoding (the engine's picklable cell form)


def test_spec_payload_roundtrip():
    payload = workload_payload(SUITE["gzip"])
    assert payload["kind"] == "spec"
    assert workload_from_payload(payload) == SUITE["gzip"]


def test_payload_without_kind_rejected():
    # Every payload names its kind; a bare WorkloadSpec dict is refused.
    with pytest.raises(ValueError, match="unknown workload payload kind"):
        workload_from_payload(SUITE["gzip"].to_dict())


def test_trace_payload_roundtrip(trace_file):
    workload = TraceWorkload(trace_file)
    payload = workload_payload(workload)
    assert payload["kind"] == "trace"
    assert payload["digest"] == workload.digest
    again = workload_from_payload(payload)
    assert isinstance(again, TraceWorkload)
    assert again.digest == workload.digest


def test_trace_payload_detects_rerecorded_file(trace_file):
    payload = workload_payload(TraceWorkload(trace_file))
    capture(ListTrace(_mixed_uops(11)), trace_file, 11, wp_seed=4)
    with pytest.raises(ValueError, match="digest mismatch"):
        workload_from_payload(payload)


def test_trace_build_detects_rerecorded_file(trace_file):
    workload = TraceWorkload(trace_file)
    capture(ListTrace(_mixed_uops(11)), trace_file, 11, wp_seed=4)
    with pytest.raises(ValueError, match="re-recorded"):
        workload.build_trace()


def test_trace_content_hash_is_location_independent(trace_file, tmp_path):
    copy = tmp_path / "elsewhere.trc"
    copy.write_bytes(Path(trace_file).read_bytes())
    a, b = TraceWorkload(trace_file), TraceWorkload(copy)
    assert a.content_hash() == b.content_hash()


def test_unknown_payload_kind_rejected():
    with pytest.raises(ValueError, match="unknown workload payload"):
        workload_from_payload({"kind": "hologram"})
    with pytest.raises(TypeError):
        workload_payload(object())


def test_workload_identity_drops_trace_location(trace_file, tmp_path):
    from repro.traces.registry import workload_identity

    copy = tmp_path / "copy.trc"
    copy.write_bytes(Path(trace_file).read_bytes())
    a = workload_identity(workload_payload(TraceWorkload(trace_file)))
    b = workload_identity(workload_payload(TraceWorkload(copy)))
    assert a == b
    # Spec identities are JSON-canonical: equal to the payload modulo
    # container type (tuples become lists), so a payload that crossed a
    # JSON boundary (a cache entry, a sweep file) compares equal to one
    # that stayed in-process.
    import json

    spec_payload = workload_payload(SUITE["gzip"])
    identity = workload_identity(spec_payload)
    assert identity == json.loads(json.dumps(spec_payload))
    assert identity == workload_identity(json.loads(json.dumps(spec_payload)))
