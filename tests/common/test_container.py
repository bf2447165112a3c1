"""The artifact container both binary formats share: header faults,
truncation and atomic writes, checked once per suffix."""

from __future__ import annotations

import contextlib
import dataclasses
import signal
import struct
from typing import Callable, Tuple

import pytest

from repro.checkpoint.format import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
    verify_checkpoint,
)
from repro.checkpoint.format import FORMAT_VERSION as CHECKPOINT_VERSION
from repro.checkpoint.format import read_info as checkpoint_info
from repro.checkpoint.rebase import rebase_checkpoint
from repro.common.container import FLAG_ZLIB, HEADER
from repro.core.presets import make_config
from repro.pipeline.cpu import Simulator
from repro.telemetry.events import JsonlEventWriter
from repro.traces.format import FORMAT_VERSION as TRACE_VERSION
from repro.traces.format import (
    FileTrace,
    TraceFormatError,
    capture,
    verify,
)
from repro.traces.format import read_info as trace_info
from repro.traces.registry import resolve_workload


@pytest.fixture(scope="module")
def warm_sim():
    """A functionally warmed gzip machine (so it also rebases)."""
    sim = Simulator(make_config("SpecSched_4"),
                    resolve_workload("gzip").build_trace(1))
    sim.fast_forward(3_000)
    return sim


def _record(path, uops=100, frame_records=4096) -> None:
    capture(resolve_workload("gzip").build_trace(1), path, uops, wp_seed=1,
            frame_records=frame_records)


def _checkpoint_verified(path) -> bool:
    try:
        verify_checkpoint(path)
    except CheckpointError:
        return False
    return True


@dataclasses.dataclass(frozen=True)
class Format:
    error: type
    version: int
    #: Every reader, each of which must refuse a damaged header.
    readers: Tuple[Callable, ...]
    #: Reads the whole payload.
    load: Callable
    #: The digest rescan, as a bool.
    verified: Callable

    def make(self, path, sim) -> None:
        if path.suffix == ".trc":
            _record(path)
        else:
            save_checkpoint(sim, path, workload=resolve_workload("gzip"),
                            seed=1)


FORMATS = {
    ".trc": Format(TraceFormatError, TRACE_VERSION,
                   (trace_info, verify, FileTrace), FileTrace, verify),
    ".ckpt": Format(CheckpointError, CHECKPOINT_VERSION,
                    (checkpoint_info, verify_checkpoint, load_checkpoint),
                    load_checkpoint, _checkpoint_verified),
}


@pytest.fixture(params=sorted(FORMATS))
def artifact(request, tmp_path, warm_sim):
    """A sound file of each suffix, and its format."""
    path = tmp_path / f"a{request.param}"
    fmt = FORMATS[request.param]
    fmt.make(path, warm_sim)
    assert fmt.verified(path)
    return path, fmt


def _patched(path, offset, fmt, *values) -> None:
    data = bytearray(path.read_bytes())
    struct.pack_into(fmt, data, offset, *values)
    path.write_bytes(bytes(data))


def _refused_by_every_reader(path, fmt, match) -> None:
    for read in fmt.readers:
        with pytest.raises(fmt.error, match=match):
            read(path)


def test_header_is_64_bytes():
    # The writer patches count+digest at fixed offsets; layout is frozen.
    assert HEADER.size == 64
    assert FLAG_ZLIB == 1


def test_bad_magic_rejected(artifact):
    path, fmt = artifact
    _patched(path, 0, "4s", b"NOPE")
    _refused_by_every_reader(path, fmt, "bad magic b'NOPE'")


def test_short_header_rejected(artifact):
    path, fmt = artifact
    path.write_bytes(path.read_bytes()[:5])
    _refused_by_every_reader(path, fmt, "too short")


def test_other_version_rejected_naming_both(artifact):
    path, fmt = artifact
    _patched(path, 4, "<H", 99)
    _refused_by_every_reader(
        path, fmt, rf"format version 99 \(this build reads {fmt.version}\)")


def test_header_without_zlib_flag_rejected(artifact):
    path, fmt = artifact
    _patched(path, 6, "<H", 0)
    _refused_by_every_reader(path, fmt, "zlib flag")


def test_meta_not_object_rejected(artifact):
    path, fmt = artifact
    data = path.read_bytes()
    meta_len = HEADER.unpack_from(data)[5]
    header = bytearray(data[:HEADER.size])
    struct.pack_into("<I", header, 48, 3)          # the meta_len field
    path.write_bytes(bytes(header) + b"[1]"
                     + data[HEADER.size + meta_len:])
    _refused_by_every_reader(path, fmt, "meta JSON is not an object")


@pytest.mark.parametrize("cut", [lambda n: n // 2, lambda n: n - 10],
                         ids=["half", "tail"])
def test_truncated_payload_rejected(artifact, cut):
    path, fmt = artifact
    data = path.read_bytes()
    path.write_bytes(data[:cut(len(data))])
    with pytest.raises(fmt.error, match="truncated"):
        fmt.load(path)
    assert not fmt.verified(path)


def test_v1_checkpoint_refused_naming_both_versions(tmp_path, warm_sim):
    """A version-1 file (the payload a bare zlib stream after the meta
    JSON) is refused by its header alone."""
    import zlib

    path = tmp_path / "v1.ckpt"
    save_checkpoint(warm_sim, path)
    data = path.read_bytes()
    meta_len = HEADER.unpack_from(data)[5]
    first_frame = HEADER.size + meta_len
    raw = zlib.decompress(data[first_frame + 8:])
    path.write_bytes(data[:4] + struct.pack("<H", 1) + data[6:first_frame]
                     + zlib.compress(raw, 1))
    for read in FORMATS[".ckpt"].readers:
        with pytest.raises(CheckpointError,
                           match=r"v1.ckpt: checkpoint format version 1 "
                                 r"\(this build reads 2\)"):
            read(path)


# ---------------------------------------------------------------------------
# Every artifact file appears whole or not at all


@contextlib.contextmanager
def _file_size_limit(limit):
    """Writes that would grow a file past ``limit`` bytes fail with
    ``EFBIG`` (this process only), as on a full disk."""
    resource = pytest.importorskip("resource")
    old = resource.getrlimit(resource.RLIMIT_FSIZE)
    handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (limit, old[1]))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, old)
        signal.signal(signal.SIGXFSZ, handler)


def _write_events(path, sim, source) -> None:
    with JsonlEventWriter(path, provenance={"seed": 1}) as writer:
        for seq in range(20_000):
            writer.emit(seq, "commit", seq, 0x400 + seq)


WRITERS = {
    "capture": lambda path, sim, source: _record(path, 20_000,
                                                 frame_records=1024),
    "save_checkpoint": lambda path, sim, source: save_checkpoint(
        sim, path, workload=resolve_workload("gzip"), seed=1),
    "rebase_checkpoint": lambda path, sim, source: rebase_checkpoint(
        source, make_config("Baseline_0"), path),
    "JsonlEventWriter": _write_events,
}


@pytest.mark.parametrize("name", list(WRITERS))
def test_failed_write_leaves_no_file(tmp_path, warm_sim, name):
    """A write that fails after its first frame or write (here: the file
    may not grow past half its whole size) leaves neither the output nor
    a temp file behind."""
    source = tmp_path / "source.ckpt"
    save_checkpoint(warm_sim, source, workload=resolve_workload("gzip"),
                    seed=1)
    whole = tmp_path / "whole"
    WRITERS[name](whole, warm_sim, source)
    out = tmp_path / "out"
    out.mkdir()
    with _file_size_limit(whole.stat().st_size // 2):
        with pytest.raises(OSError):
            WRITERS[name](out / "artifact", warm_sim, source)
    assert not (out / "artifact").exists()
    assert list(out.glob("*.tmp")) == []
