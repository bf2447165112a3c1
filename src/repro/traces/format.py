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
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import struct
import zlib
from collections import deque
from pathlib import Path
from typing import Any, Deque, Dict, Iterator, List, Optional

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
    bytes can be viewed with ``np.frombuffer`` — the warming engine's
    zero-decode replay path.
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
    """Streaming writer: append µops, close to patch count + digest."""

    def __init__(self, path, *, wp_seed: int,
                 provenance: Optional[Dict[str, Any]] = None,
                 frame_records: int = DEFAULT_FRAME_RECORDS) -> None:
        self.path = Path(path)
        self.wp_seed = wp_seed
        self.frame_records = max(1, frame_records)
        self.count = 0
        self._sha = hashlib.sha256()
        self._frame: List[bytes] = []
        self._closed = False
        meta = json.dumps(
            {"record": RECORD_VERSION, "wp_seed": wp_seed,
             "provenance": provenance or {}},
            sort_keys=True).encode("utf-8")
        self._handle = self.path.open("wb")
        self._handle.write(HEADER.pack(MAGIC, FORMAT_VERSION, FLAG_ZLIB, 0,
                                       b"\0" * 32, len(meta), b"\0" * 12))
        self._handle.write(meta)

    def append(self, uop: MicroOp) -> None:
        record = encode_record(uop)
        self._sha.update(record)
        self._frame.append(record)
        self.count += 1
        if len(self._frame) >= self.frame_records:
            self._flush_frame()

    def _flush_frame(self) -> None:
        if not self._frame:
            return
        raw = b"".join(self._frame)
        self._frame.clear()
        stored = zlib.compress(raw, 6)
        self._handle.write(FRAME_HEADER.pack(len(raw), len(stored)))
        self._handle.write(stored)

    def close(self) -> TraceInfo:
        if self._closed:
            return read_info(self.path)
        self._flush_frame()
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

    ``wp_seed`` must be the seed whose :class:`WrongPathSynth` stream the
    source uses, so replay reproduces the wrong path exactly; for
    live workload traces that is the build seed.
    """
    with TraceWriter(path, wp_seed=wp_seed, provenance=provenance,
                     frame_records=frame_records) as out:
        for _ in range(limit):
            uop = source.next_uop()
            if uop is None:
                break
            out.append(uop)
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


def decode_frame(raw: bytes) -> Deque[MicroOp]:
    """Decode one frame's records into µops in a single batch
    (the inverse of :func:`encode_record`).

    This is the front end's bulk decode path: one tight loop per ~4096
    records instead of an iterator resumption + generator frame per µop,
    which is what makes replay faster than live generation.
    """
    out: Deque[MicroOp] = deque()
    append = out.append
    by_value = _OPCLASS_BY_VALUE
    for fields in RECORD.iter_unpack(raw):
        pc, mem_addr, target, s0, s1, s2, dst, opclass, flags, mem_size \
            = fields
        srcs: List[int] = []
        if s0 >= 0:
            srcs.append(s0)
            if s1 >= 0:
                srcs.append(s1)
                if s2 >= 0:
                    srcs.append(s2)
        append(MicroOp(seq=0, pc=pc, opclass=by_value[opclass],
                       srcs=srcs, dst=dst if dst >= 0 else None,
                       mem_addr=mem_addr, mem_size=mem_size,
                       taken=bool(flags & _FLAG_TAKEN), target=target))
    return out


class FileTrace(TraceSource):
    """Replay a recorded trace as a :class:`TraceSource`.

    Frames are decoded lazily one whole frame at a time (the batched
    decode path), so replay is streaming — a few hundred KB resident
    regardless of trace length — while the per-µop cost is a deque pop.
    Wrong-path µops come from the header-seeded :class:`WrongPathSynth` —
    the same stream the live generator produced, which is what keeps
    replayed ``SimStats`` bit-identical to generate-live runs. Opening
    walks the frame headers once, so a recording cut short of its
    header's µop count is refused before any µop is read. The stream
    ends (``None``) after the last record.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self.info = read_info(self.path)
        _check_frames(self.path, self.info.uop_count)
        super().__init__(self.info.wp_seed)
        self._frames = _iter_frames(self.path)
        self._batch: Deque[MicroOp] = deque()
        # Raw record bytes handed back by next_record_block's partial
        # consumption of a frame; next_uop decodes it on demand, so the
        # two consumption shapes can interleave freely.
        self._raw_tail = b""
        self.replayed = 0

    # -- TraceSource ---------------------------------------------------

    def next_uop(self) -> Optional[MicroOp]:
        batch = self._batch
        while not batch:
            if self._raw_tail:
                batch = self._batch = decode_frame(self._raw_tail)
                self._raw_tail = b""
                break
            frame = next(self._frames, None)
            if frame is None:
                return None
            batch = self._batch = decode_frame(frame)
        self.replayed += 1
        return batch.popleft()

    def next_record_block(self, max_uops: int):
        """Up to ``max_uops`` raw records as a numpy structured array.

        The warming engine's zero-decode supply: one
        ``np.frombuffer`` view per (partial) frame, no :class:`MicroOp`
        construction at all. Returns ``None`` when raw records cannot be
        served right now — stream exhausted, or a decoded batch is
        pending from :meth:`next_uop` — in which case callers fall back
        to :meth:`next_block`. Stream position (``replayed``, checkpoint
        state) advances exactly as if the records had been replayed
        per µop.
        """
        if self._batch or max_uops <= 0:
            return None
        tail = self._raw_tail
        if not tail:
            tail = next(self._frames, None)
            if tail is None:
                return None
        count = min(max_uops, len(tail) // RECORD.size)
        split = count * RECORD.size
        self._raw_tail = tail[split:]
        self.replayed += count
        import numpy as np

        return np.frombuffer(tail[:split], dtype=record_dtype())

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
        holding it is inflated eagerly (so a truncated recording fails
        here, at restore) and kept as raw bytes, which both
        :meth:`next_uop` and :meth:`next_record_block` consume.
        """
        self._frames = _iter_frames(self.path, count)
        self._batch = deque()
        self._raw_tail = next(self._frames, b"") if count else b""
        self.replayed = count
