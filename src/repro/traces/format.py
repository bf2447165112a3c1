"""Binary µop-trace format: capture once, replay many.

Every sweep the experiment engine fans out re-simulates the *same*
correct-path µop stream under different backends. Regenerating that
stream from kernel specs puts the workload generator on the hot path of
every cell; this module takes it off: a stream is captured to a compact,
versioned on-disk encoding once and replayed from disk thereafter —
bit-identically, including the synthesized wrong path.

A ``.trc`` file is a :mod:`repro.common.container` file (magic
``b"RPTR"``, version :data:`FORMAT_VERSION`) whose header counts the
payload in records::

    meta JSON:
        {"record": 1, "wp_seed": ..., "provenance": {...}}
    frames, each:
        zlib-compressed records, DEFAULT_FRAME_RECORDS per frame

Records are fixed-width (:data:`RECORD`, 36 bytes) and carry exactly the
*architectural* :class:`~repro.isa.uop.MicroOp` fields — the pipeline
annotates everything else at runtime, and ``seq`` is assigned by fetch.
The content digest is computed over the uncompressed records, so it
identifies the µop stream, and it is the ingredient the engine folds
into its cache keys: a cached result can never be served against a
re-recorded trace.

Wrong-path µops are *not* recorded (trace-driven simulation synthesizes
them); the header's ``wp_seed`` seeds the same
:class:`~repro.isa.trace.WrongPathSynth` stream the live generator used,
which is what makes replayed ``SimStats`` bit-identical.

:func:`capture` packs a source's rows into frames with :data:`RECORD`
(:func:`pack_rows`); :class:`FileTrace` decodes them back into rows
(:meth:`FileTrace.next_row`), or unpacks a block of them into the
columns functional warming reads (:meth:`FileTrace.next_record_block`).
"""

from __future__ import annotations

import dataclasses
import struct
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

from repro.common.container import Container
from repro.isa.opclass import OpClass
from repro.isa.trace import RecordBlock, Row, TraceSource

FORMAT_VERSION = 1
RECORD_VERSION = 1

#: Canonical file suffix for recorded traces.
TRACE_SUFFIX = ".trc"

#: The fields of a record in file order, with their struct codes.
#: Absent registers are encoded as -1; flag bit 0 is the branch outcome,
#: and it is the only flag a record carries.
RECORD_FIELDS = (("pc", "Q"), ("mem_addr", "Q"), ("target", "Q"),
                 ("src0", "h"), ("src1", "h"), ("src2", "h"), ("dst", "h"),
                 ("opclass", "B"), ("flags", "B"), ("mem_size", "H"))
RECORD = struct.Struct("<" + "".join(code for _, code in RECORD_FIELDS))

_FLAG_TAKEN = 0x1


def _field_offset(field: str) -> int:
    """Byte offset of ``field`` within a record."""
    names = [name for name, _ in RECORD_FIELDS]
    return struct.calcsize("<" + "".join(
        code for _, code in RECORD_FIELDS[:names.index(field)]))


#: The three address fields a :class:`~repro.isa.trace.RecordBlock`
#: carries (they lead the record), every other byte skipped.
_ADDRESS_FIELDS = struct.Struct(
    "<" + "".join(code for _, code in RECORD_FIELDS[:3])
    + f"{RECORD.size - _field_offset('src0')}x")
#: The one-byte fields a block carries, read as strided byte slices.
_OPCLASS_AT = _field_offset("opclass")
_FLAGS_AT = _field_offset("flags")
#: Flag byte -> its taken bit, for ``bytes.translate``.
_TAKEN_BIT = bytes(flags & _FLAG_TAKEN for flags in range(256))

#: Source-register padding by source count: a record holds three.
_NO_SRCS = ((-1, -1, -1), (-1, -1), (-1,), ())

#: Value -> OpClass member without the (slow) enum constructor — decode
#: runs once per replayed µop, squarely on the replay hot path.
_OPCLASS_BY_VALUE = tuple(OpClass(v) for v in range(len(OpClass)))

#: Records per frame: large enough to amortize the zlib/frame overhead,
#: small enough that replay never holds more than ~150 KB decoded.
DEFAULT_FRAME_RECORDS = 4096


class TraceFormatError(ValueError):
    """Malformed, truncated or incompatible trace file."""


CONTAINER = Container(b"RPTR", FORMAT_VERSION, "trace", TraceFormatError,
                      unit=RECORD.size, units="records")


# ---------------------------------------------------------------------------
# Record encoding


def pack_rows(rows: List[Row]) -> bytes:
    """Trace rows as packed records, in order.

    A row is ``(pc, opclass, srcs, dst, mem_addr, mem_size, taken,
    target)`` (:data:`repro.isa.trace.Row`); absent registers become -1
    and ``taken`` is flag bit 0. A row with more than 3 sources is
    refused rather than cut short.
    """
    pack = RECORD.pack
    try:
        return b"".join([
            pack(pc, mem_addr, target, *srcs, *_NO_SRCS[len(srcs)],
                 -1 if dst is None else dst, opclass, taken, mem_size)
            for pc, opclass, srcs, dst, mem_addr, mem_size, taken, target
            in rows])
    except IndexError:
        row = next(row for row in rows if len(row[2]) > 3)
        raise TraceFormatError(
            f"µop at pc={row[0]:#x} has {len(row[2])} sources; the record "
            f"format encodes at most 3") from None


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


def read_info(path) -> TraceInfo:
    """Parse the header and meta of a trace file (no payload scan)."""
    path = Path(path)
    head = CONTAINER.header(path)
    meta = head.meta
    if meta.get("record") != RECORD_VERSION:
        raise TraceFormatError(
            f"{path.name}: record layout {meta.get('record')} (this build "
            f"reads {RECORD_VERSION})")
    return TraceInfo(
        path=str(path),
        version=FORMAT_VERSION,
        uop_count=head.count,
        digest=head.digest.hex(),
        wp_seed=int(meta.get("wp_seed", 0)),
        provenance=dict(meta.get("provenance") or {}),
        file_bytes=path.stat().st_size,
    )


def verify(path) -> bool:
    """Full-scan check: recompute the payload digest against the header
    (a faulty header raises)."""
    path = Path(path)
    read_info(path)
    try:
        CONTAINER.verify(path)
    except TraceFormatError:
        return False
    return True


# ---------------------------------------------------------------------------
# Writing


def _frames(source: TraceSource, limit: int,
            frame_records: int) -> Iterator[bytes]:
    """The first ``limit`` records of ``source`` as raw frames of
    ``frame_records`` records (the last may hold fewer)."""
    next_row = source.next_row
    count = 0
    while count < limit:
        rows = []
        for _ in range(min(frame_records, limit - count)):
            row = next_row()
            if row is None:
                break
            rows.append(row)
        if not rows:
            return
        count += len(rows)
        yield pack_rows(rows)


def capture(source: TraceSource, path, limit: int, *, wp_seed: int,
            provenance: Optional[Dict[str, Any]] = None,
            frame_records: int = DEFAULT_FRAME_RECORDS) -> TraceInfo:
    """Pull up to ``limit`` correct-path µops from ``source`` to disk.

    The stream is read row by row
    (:meth:`~repro.isa.trace.TraceSource.next_row`) and packed one frame's
    worth at a time. ``wp_seed`` must be the seed whose
    :class:`WrongPathSynth` stream the source uses, so replay reproduces
    the wrong path exactly; for live workload traces that is the build
    seed. The file appears whole or not at all.
    """
    meta = {"record": RECORD_VERSION, "wp_seed": wp_seed,
            "provenance": provenance or {}}
    CONTAINER.write(path, meta, _frames(source, limit, max(1, frame_records)),
                    level=6)
    return read_info(path)


# ---------------------------------------------------------------------------
# Reading / replay


class FileTrace(TraceSource):
    """Replay a recorded trace as a :class:`TraceSource`.

    The reader holds one inflated frame and a byte offset into it:
    :meth:`next_row` decodes the record at the offset into a row, and
    :meth:`next_record_block` unpacks the records from the offset on,
    so the two calls interleave freely. Replay is streaming — one frame
    (about 150 KB) resident regardless of trace length. Wrong-path µops
    come from the header-seeded :class:`WrongPathSynth` — the same stream
    the live generator produced, which is what keeps replayed
    ``SimStats`` bit-identical to generate-live runs. Opening walks the
    frame headers once, so a recording cut short of its header's µop
    count is refused before any µop is read. The stream ends (``None``)
    after the last record.

    A recording repeats its loop bodies record for record, so
    :meth:`next_row` keeps the rows it decoded by record bytes and hands
    a repeated record the same row, as a kernel shares its invariant
    rows; rows with the same source registers (a load whose address
    varies, say) share one ``srcs`` list. Both memos are cleared
    whenever the rows reach :attr:`ROW_MEMO_LIMIT` entries.
    """

    #: Decoded rows :meth:`next_row` keeps for repeated records.
    ROW_MEMO_LIMIT = 1 << 12

    def __init__(self, path) -> None:
        self.path = Path(path)
        self.info = read_info(self.path)
        CONTAINER.check_frames(self.path, self.info.uop_count)
        super().__init__(self.info.wp_seed)
        self._frames = CONTAINER.frames(self.path)
        self._frame = b""
        self._offset = 0
        self._rows: Dict[bytes, Row] = {}
        self._srcs: Dict[tuple, List[int]] = {}

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

    def next_row(self) -> Optional[Row]:
        if not self._records_left():
            return None
        offset = self._offset
        self._offset = end = offset + RECORD.size
        self.emitted += 1
        record = self._frame[offset:end]
        row = self._rows.get(record)
        if row is None:
            pc, mem_addr, target, s0, s1, s2, dst, opclass, flags, \
                mem_size = RECORD.unpack(record)
            srcs = self._srcs.get((s0, s1, s2))
            if srcs is None:
                srcs = self._srcs[s0, s1, s2] = [
                    s for s in (s0, s1, s2) if s >= 0]
            row = (pc, _OPCLASS_BY_VALUE[opclass], srcs,
                   dst if dst >= 0 else None, mem_addr, mem_size,
                   bool(flags & _FLAG_TAKEN), target)
            if len(self._rows) >= self.ROW_MEMO_LIMIT:
                self._rows.clear()
                self._srcs.clear()
            self._rows[record] = row
        return row

    def next_record_block(self, max_uops: int) -> Optional[RecordBlock]:
        """Up to ``max_uops`` records of the current frame as columns.

        One ``iter_unpack`` per call for the address fields, and one
        strided slice each for opclass and flags, whose taken bit is
        masked as :meth:`next_row` masks it: a block never spans two
        frames. ``None`` once the stream is exhausted. Stream position
        (``emitted``, checkpoint state) advances exactly as if the
        records had been replayed per µop.
        """
        if not self._records_left():
            return None
        frame, offset = self._frame, self._offset
        count = min(max_uops, (len(frame) - offset) // RECORD.size)
        self._offset = end = offset + count * RECORD.size
        self.emitted += count
        pcs, mem_addrs, targets = zip(
            *_ADDRESS_FIELDS.iter_unpack(memoryview(frame)[offset:end]))
        opclasses = frame[offset + _OPCLASS_AT:end:RECORD.size]
        takens = frame[offset + _FLAGS_AT:end:RECORD.size].translate(_TAKEN_BIT)
        return RecordBlock(pcs, opclasses, mem_addrs, takens, targets)

    # -- state protocol (repro.checkpoint) -----------------------------

    def state_dict(self) -> dict:
        """The cursor is the emitted-µop count. Restore re-seeks the
        frame stream: frames before the cursor are stepped over by their
        headers, and only the frame holding it is inflated."""
        return {"emitted": self.emitted,
                "synth": self._wp_synth.state_dict()}

    def load_state_dict(self, state: dict) -> None:
        self._wp_synth.load_state_dict(state["synth"])
        self._seek(state["emitted"])

    def _seek(self, count: int) -> None:
        """Position the stream so the next µop is number ``count``.

        Frames before the cursor are skipped by their headers; the frame
        holding it is inflated eagerly, so a truncated recording fails
        here, at restore.
        """
        self._frames = CONTAINER.frames(self.path, count)
        self._frame = next(self._frames, b"") if count else b""
        self._offset = 0
        self.emitted = count
