"""Binary µop-trace format: capture once, replay many.

Every sweep the experiment engine fans out re-simulates the *same*
correct-path µop stream under different backends. Regenerating that
stream from kernel specs puts the workload generator on the hot path of
every cell; this module takes it off: a stream is captured to a compact,
versioned on-disk encoding once and replayed from disk thereafter —
bit-identically, including the synthesized wrong path.

Layout of a ``.trc`` file::

    header (64 bytes, fixed):
        magic        4s   b"RPTR"
        version      u16  FORMAT_VERSION
        flags        u16  bit 0 (zlib frames) must be set
        uop_count    u64  total records (patched on close)
        digest       32s  sha256 over the *raw* record bytes (patched)
        meta_len     u32  length of the meta JSON that follows
        reserved     12s
    meta JSON (meta_len bytes):
        {"record": 1, "wp_seed": ..., "provenance": {...}}
    frames, each:
        raw_len      u32  uncompressed byte length
        stored_len   u32  on-disk byte length
        payload           zlib-compressed records

Records are fixed-width (:data:`RECORD`, 36 bytes) and carry exactly the
*architectural* :class:`~repro.isa.uop.MicroOp` fields — the pipeline
annotates everything else at runtime, and ``seq`` is assigned by fetch.
The content digest is computed over the uncompressed records, so it
identifies the µop stream, and it is the ingredient the engine folds
into its cache keys: a cached result can never be served against a
re-recorded trace. A header without the zlib flag is refused.

Wrong-path µops are *not* recorded (trace-driven simulation synthesizes
them); the header's ``wp_seed`` seeds the same
:class:`~repro.isa.trace.WrongPathSynth` stream the live generator used,
which is what makes replayed ``SimStats`` bit-identical.

The same record layout, as a numpy array (:func:`record_dtype`), is what
every trace source serves from
:meth:`~repro.isa.trace.TraceSource.next_record_block`: :func:`capture`
writes those arrays straight into frames, and :class:`FileTrace` hands
its frame bytes back as views.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import struct
import zlib
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Sequence

from repro.isa.opclass import OpClass
from repro.isa.trace import TraceSource
from repro.isa.uop import MicroOp

MAGIC = b"RPTR"
FORMAT_VERSION = 1
RECORD_VERSION = 1
FLAG_ZLIB = 0x1

#: Canonical file suffix for recorded traces.
TRACE_SUFFIX = ".trc"

HEADER = struct.Struct("<4sHHQ32sI12s")
FRAME_HEADER = struct.Struct("<II")

#: pc, mem_addr, target, src0..src2, dst, opclass, flags, mem_size.
#: Absent registers are encoded as -1; flag bit 0 is the branch outcome.
RECORD = struct.Struct("<QQQhhhhBBH")

_FLAG_TAKEN = 0x1

#: Lazily-built numpy structured dtype mirroring :data:`RECORD` (see
#: :func:`record_dtype`); None until first requested so importing this
#: module does not import numpy.
_RECORD_DTYPE = None


def record_dtype():
    """The numpy structured dtype of one :data:`RECORD` (lazy, cached).

    Field-for-field mirror of the packed struct layout, so a frame's raw
    bytes can be viewed with ``np.frombuffer``. Every trace source serves
    blocks in this dtype (:meth:`~repro.isa.trace.TraceSource.
    next_record_block`), and it is the one input of functional warming
    and :func:`capture`.
    """
    global _RECORD_DTYPE
    if _RECORD_DTYPE is None:
        import numpy as np

        dtype = np.dtype([
            ("pc", "<u8"),
            ("mem_addr", "<u8"),
            ("target", "<u8"),
            ("s0", "<i2"),
            ("s1", "<i2"),
            ("s2", "<i2"),
            ("dst", "<i2"),
            ("opclass", "u1"),
            ("flags", "u1"),
            ("mem_size", "<u2"),
        ])
        if dtype.itemsize != RECORD.size:
            raise TraceFormatError(
                f"record dtype is {dtype.itemsize} bytes; the packed "
                f"record is {RECORD.size}")
        _RECORD_DTYPE = dtype
    return _RECORD_DTYPE

#: Value -> OpClass member without the (slow) enum constructor — decode
#: runs once per replayed µop, squarely on the replay hot path.
_OPCLASS_BY_VALUE = tuple(OpClass(v) for v in range(len(OpClass)))

#: Records per frame: large enough to amortize the zlib/frame overhead,
#: small enough that replay never holds more than ~150 KB decoded.
DEFAULT_FRAME_RECORDS = 4096


class TraceFormatError(ValueError):
    """Malformed, truncated or incompatible trace file."""


# ---------------------------------------------------------------------------
# Record encoding


def encode_record(uop: MicroOp) -> bytes:
    """Fixed-width encoding of one correct-path µop's architectural fields."""
    srcs = uop.srcs
    if len(srcs) > 3:
        raise TraceFormatError(
            f"µop at pc={uop.pc:#x} has {len(srcs)} sources; the record "
            f"format encodes at most 3")
    if uop.wrong_path:
        raise TraceFormatError(
            "wrong-path µops are synthesized at replay, not recorded")
    s0 = srcs[0] if len(srcs) > 0 else -1
    s1 = srcs[1] if len(srcs) > 1 else -1
    s2 = srcs[2] if len(srcs) > 2 else -1
    dst = uop.dst if uop.dst is not None else -1
    flags = _FLAG_TAKEN if uop.taken else 0
    return RECORD.pack(uop.pc, uop.mem_addr, uop.target, s0, s1, s2,
                       dst, int(uop.opclass), flags, uop.mem_size)


def encode_rows(rows: Sequence[tuple]):
    """Kernel rows as one record array, filled column by column.

    A row is ``(pc, opclass, srcs, dst, mem_addr, mem_size, taken,
    target)`` with at most 3 sources (:mod:`repro.workloads.kernels`);
    the array's bytes equal :func:`encode_record` applied row by row.
    """
    import numpy as np

    pcs, opclasses, srcs, dsts, addrs, sizes, takens, targets = zip(*rows)
    records = np.empty(len(rows), dtype=record_dtype())
    records["pc"] = pcs
    records["mem_addr"] = addrs
    records["target"] = targets
    records["s0"] = [s[0] if s else -1 for s in srcs]
    records["s1"] = [s[1] if len(s) > 1 else -1 for s in srcs]
    records["s2"] = [s[2] if len(s) > 2 else -1 for s in srcs]
    records["dst"] = [-1 if d is None else d for d in dsts]
    records["opclass"] = opclasses
    records["flags"] = takens
    records["mem_size"] = sizes
    return records


# ---------------------------------------------------------------------------
# Header / info


@dataclasses.dataclass(frozen=True)
class TraceInfo:
    """Everything knowable about a trace without scanning its payload."""

    path: str
    version: int
    uop_count: int
    digest: str                     # hex sha256 over raw record bytes
    wp_seed: int
    provenance: Dict[str, Any]
    file_bytes: int

    @property
    def raw_bytes(self) -> int:
        """Uncompressed payload size."""
        return self.uop_count * RECORD.size


def _read_exact(handle, n: int, what: str) -> bytes:
    data = handle.read(n)
    if len(data) != n:
        raise TraceFormatError(f"truncated trace file: short read in {what}")
    return data


def _read_header(handle, path: Path):
    raw = handle.read(HEADER.size)
    if len(raw) != HEADER.size:
        raise TraceFormatError(f"{path.name}: not a trace file (too short)")
    magic, version, flags, count, digest, meta_len, _ = HEADER.unpack(raw)
    if magic != MAGIC:
        raise TraceFormatError(f"{path.name}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise TraceFormatError(
            f"{path.name}: format version {version} (this build reads "
            f"{FORMAT_VERSION})")
    if not flags & FLAG_ZLIB:
        raise TraceFormatError(
            f"{path.name}: header lacks the zlib flag (uncompressed "
            f"recordings are not read); re-record it")
    try:
        meta = json.loads(_read_exact(handle, meta_len, "meta"))
    except ValueError as exc:
        raise TraceFormatError(f"{path.name}: corrupt meta JSON") from exc
    if meta.get("record") != RECORD_VERSION:
        raise TraceFormatError(
            f"{path.name}: record layout {meta.get('record')} (this build "
            f"reads {RECORD_VERSION})")
    return count, digest, meta


def read_info(path) -> TraceInfo:
    """Parse the header and meta of a trace file (no payload scan)."""
    path = Path(path)
    with path.open("rb") as handle:
        count, digest, meta = _read_header(handle, path)
    return TraceInfo(
        path=str(path),
        version=FORMAT_VERSION,
        uop_count=count,
        digest=digest.hex(),
        wp_seed=int(meta.get("wp_seed", 0)),
        provenance=dict(meta.get("provenance") or {}),
        file_bytes=path.stat().st_size,
    )


def verify(path) -> bool:
    """Full-scan check: recompute the payload digest against the header."""
    path = Path(path)
    info = read_info(path)
    sha = hashlib.sha256()
    count = 0
    try:
        for raw in _iter_frames(path):
            sha.update(raw)
            count += len(raw) // RECORD.size
    except TraceFormatError:
        return False
    return count == info.uop_count and sha.hexdigest() == info.digest


# ---------------------------------------------------------------------------
# Writing


class TraceWriter:
    """Streaming writer: write record blocks, close to patch count +
    digest. Frames hold ``frame_records`` records whatever the block
    sizes, so the file bytes depend only on the record stream."""

    def __init__(self, path, *, wp_seed: int,
                 provenance: Optional[Dict[str, Any]] = None,
                 frame_records: int = DEFAULT_FRAME_RECORDS) -> None:
        self.path = Path(path)
        self.wp_seed = wp_seed
        self.frame_records = max(1, frame_records)
        self.count = 0
        self._sha = hashlib.sha256()
        self._pending = bytearray()
        self._closed = False
        meta = json.dumps(
            {"record": RECORD_VERSION, "wp_seed": wp_seed,
             "provenance": provenance or {}},
            sort_keys=True).encode("utf-8")
        self._handle = self.path.open("wb")
        self._handle.write(HEADER.pack(MAGIC, FORMAT_VERSION, FLAG_ZLIB, 0,
                                       b"\0" * 32, len(meta), b"\0" * 12))
        self._handle.write(meta)

    def write(self, records) -> None:
        """Append a record array (:func:`record_dtype`)."""
        raw = records.tobytes()
        self._sha.update(raw)
        self.count += len(records)
        pending = self._pending
        pending += raw
        frame_bytes = self.frame_records * RECORD.size
        while len(pending) >= frame_bytes:
            self._write_frame(pending[:frame_bytes])
            del pending[:frame_bytes]

    def _write_frame(self, raw) -> None:
        stored = zlib.compress(raw, 6)
        self._handle.write(FRAME_HEADER.pack(len(raw), len(stored)))
        self._handle.write(stored)

    def close(self) -> TraceInfo:
        if self._closed:
            return read_info(self.path)
        if self._pending:
            self._write_frame(self._pending)
            self._pending.clear()
        digest = self._sha.digest()
        self._handle.seek(8)             # past magic/version/flags
        self._handle.write(struct.pack("<Q32s", self.count, digest))
        self._handle.close()
        self._closed = True
        return read_info(self.path)

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:                            # leave no half-written file behind
            self._handle.close()
            self._closed = True
            try:
                self.path.unlink()
            except OSError:
                pass


def capture(source: TraceSource, path, limit: int, *, wp_seed: int,
            provenance: Optional[Dict[str, Any]] = None,
            frame_records: int = DEFAULT_FRAME_RECORDS) -> TraceInfo:
    """Pull up to ``limit`` correct-path µops from ``source`` to disk.

    The stream is read as record blocks
    (:meth:`~repro.isa.trace.TraceSource.next_record_block`), one frame's
    worth at a time. ``wp_seed`` must be the seed whose
    :class:`WrongPathSynth` stream the source uses, so replay reproduces
    the wrong path exactly; for live workload traces that is the build
    seed.
    """
    with TraceWriter(path, wp_seed=wp_seed, provenance=provenance,
                     frame_records=frame_records) as out:
        while out.count < limit:
            records = source.next_record_block(
                min(out.frame_records, limit - out.count))
            if records is None:
                break
            out.write(records)
    return read_info(path)


# ---------------------------------------------------------------------------
# Reading / replay


def _skip_frames(handle, path: Path, count: int) -> int:
    """Step over the whole frames that hold the first ``count`` records.

    Each frame is passed by its header's ``stored_len`` without being read
    or inflated. Leaves ``handle`` at the header of the frame holding
    record ``count`` (or at the end of the stream) and returns how many
    of that frame's records precede it.
    """
    while count:
        frame_header = handle.read(FRAME_HEADER.size)
        if not frame_header:
            break
        if len(frame_header) != FRAME_HEADER.size:
            raise TraceFormatError(f"{path.name}: truncated frame header")
        raw_len, stored_len = FRAME_HEADER.unpack(frame_header)
        if raw_len % RECORD.size:
            raise TraceFormatError(f"{path.name}: frame length mismatch")
        records = raw_len // RECORD.size
        if records > count:
            handle.seek(-FRAME_HEADER.size, 1)
            break
        handle.seek(stored_len, 1)
        count -= records
    # Seeking past the end of a file does not fail: a recording cut
    # inside a skipped frame shows up only as an offset beyond its size.
    if handle.tell() > os.fstat(handle.fileno()).st_size:
        raise TraceFormatError(
            f"truncated trace file: {path.name} ends inside a frame")
    return count


def _check_frames(path: Path, count: int) -> None:
    """Walk every frame header, inflating nothing, and reject a recording
    whose frames hold fewer than the ``count`` records its header
    declares (a file cut at, or inside, a frame)."""
    with path.open("rb") as handle:
        _read_header(handle, path)
        missing = _skip_frames(handle, path, count)
    if missing:
        raise TraceFormatError(
            f"truncated trace file: {path.name} holds {count - missing} "
            f"of the {count} records its header declares")


def _iter_frames(path: Path, skip: int = 0) -> Iterator[bytes]:
    """Yield each frame's raw (decompressed) record bytes, starting at
    record ``skip``.

    Whole frames before record ``skip`` are stepped over by their headers
    (:func:`_skip_frames`); only the frame holding it is inflated, and
    its leading records are dropped as raw bytes, so the first yielded
    chunk may be a partial frame.
    """
    with path.open("rb") as handle:
        _read_header(handle, path)
        if skip:
            skip = _skip_frames(handle, path, skip)
        while True:
            frame_header = handle.read(FRAME_HEADER.size)
            if not frame_header:
                return
            if len(frame_header) != FRAME_HEADER.size:
                raise TraceFormatError(
                    f"{path.name}: truncated frame header")
            raw_len, stored_len = FRAME_HEADER.unpack(frame_header)
            stored = _read_exact(handle, stored_len, "frame payload")
            try:
                raw = zlib.decompress(stored)
            except zlib.error as exc:
                raise TraceFormatError(
                    f"{path.name}: corrupt frame") from exc
            if len(raw) != raw_len or raw_len % RECORD.size:
                raise TraceFormatError(
                    f"{path.name}: frame length mismatch")
            if skip:
                raw = raw[skip * RECORD.size:]
                skip = 0
            yield raw


class FileTrace(TraceSource):
    """Replay a recorded trace as a :class:`TraceSource`.

    The reader holds one inflated frame and a byte offset into it:
    :meth:`next_uop` decodes the record at the offset, and
    :meth:`next_record_block` views the records from the offset on, so
    the two calls interleave freely. Replay is streaming — one frame
    (about 150 KB) resident regardless of trace length. Wrong-path µops
    come from the header-seeded :class:`WrongPathSynth` — the same stream
    the live generator produced, which is what keeps replayed
    ``SimStats`` bit-identical to generate-live runs. Opening walks the
    frame headers once, so a recording cut short of its header's µop
    count is refused before any µop is read. The stream ends (``None``)
    after the last record.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self.info = read_info(self.path)
        _check_frames(self.path, self.info.uop_count)
        super().__init__(self.info.wp_seed)
        self._frames = _iter_frames(self.path)
        self._frame = b""
        self._offset = 0
        self.replayed = 0

    def _records_left(self) -> bool:
        """Move to the next frame once this one is used up; False at the
        end of the stream."""
        while self._offset >= len(self._frame):
            frame = next(self._frames, None)
            if frame is None:
                return False
            self._frame = frame
            self._offset = 0
        return True

    # -- TraceSource ---------------------------------------------------

    def next_uop(self) -> Optional[MicroOp]:
        if not self._records_left():
            return None
        pc, mem_addr, target, s0, s1, s2, dst, opclass, flags, mem_size \
            = RECORD.unpack_from(self._frame, self._offset)
        self._offset += RECORD.size
        self.replayed += 1
        srcs = []
        if s0 >= 0:
            srcs.append(s0)
            if s1 >= 0:
                srcs.append(s1)
                if s2 >= 0:
                    srcs.append(s2)
        return MicroOp(0, pc, _OPCLASS_BY_VALUE[opclass], srcs,
                       dst if dst >= 0 else None, mem_addr, mem_size,
                       bool(flags & _FLAG_TAKEN), target)

    def next_record_block(self, max_uops: int):
        """Up to ``max_uops`` records as a view over the current frame.

        One ``np.frombuffer`` per call, nothing decoded: a block never
        spans two frames. ``None`` once the stream is exhausted. Stream
        position (``replayed``, checkpoint state) advances exactly as if
        the records had been replayed per µop.
        """
        if not self._records_left():
            return None
        import numpy as np

        count = min(max_uops,
                    (len(self._frame) - self._offset) // RECORD.size)
        records = np.frombuffer(self._frame, dtype=record_dtype(),
                                count=count, offset=self._offset)
        self._offset += count * RECORD.size
        self.replayed += count
        return records

    # -- state protocol (repro.checkpoint) -----------------------------

    def state_dict(self) -> dict:
        """The cursor is the replayed-µop count. Restore re-seeks the
        frame stream: frames before the cursor are stepped over by their
        headers, and only the frame holding it is inflated."""
        return {"replayed": self.replayed,
                "synth": self._wp_synth.state_dict()}

    def load_state_dict(self, state: dict) -> None:
        self._wp_synth.load_state_dict(state["synth"])
        self._seek(state["replayed"])

    def _seek(self, count: int) -> None:
        """Position the stream so the next µop is number ``count``.

        Frames before the cursor are skipped by their headers; the frame
        holding it is inflated eagerly, so a truncated recording fails
        here, at restore.
        """
        self._frames = _iter_frames(self.path, count)
        self._frame = next(self._frames, b"") if count else b""
        self._offset = 0
        self.replayed = count
