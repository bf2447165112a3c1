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

The same record layout, as a numpy array (:func:`record_dtype`), is what
every trace source serves from
:meth:`~repro.isa.trace.TraceSource.next_record_block`: :func:`capture`
writes those arrays straight into frames, and :class:`FileTrace` hands
its frame bytes back as views.
"""

from __future__ import annotations

import dataclasses
import struct
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Sequence

from repro.common.container import Container
from repro.isa.opclass import OpClass
from repro.isa.trace import Row, TraceSource

FORMAT_VERSION = 1
RECORD_VERSION = 1

#: Canonical file suffix for recorded traces.
TRACE_SUFFIX = ".trc"

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


CONTAINER = Container(b"RPTR", FORMAT_VERSION, "trace", TraceFormatError,
                      unit=RECORD.size, units="records")


# ---------------------------------------------------------------------------
# Record encoding


def encode_rows(rows: Sequence[tuple]):
    """Trace rows as one record array, filled column by column.

    A row is ``(pc, opclass, srcs, dst, mem_addr, mem_size, taken,
    target)`` (:data:`repro.isa.trace.Row`); absent registers become -1
    and ``taken`` is flag bit 0. A row with more than 3 sources is
    refused rather than cut short.
    """
    import numpy as np

    pcs, opclasses, srcs, dsts, addrs, sizes, takens, targets = zip(*rows)
    if max(map(len, srcs)) > 3:
        row = next(row for row in rows if len(row[2]) > 3)
        raise TraceFormatError(
            f"µop at pc={row[0]:#x} has {len(row[2])} sources; the record "
            f"format encodes at most 3")
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
            frame_records: int) -> Iterator[bytearray]:
    """The first ``limit`` records of ``source`` as raw frames of
    ``frame_records`` records (the last may hold fewer), whatever block
    sizes the source serves, so the file bytes depend only on the record
    stream."""
    frame_bytes = frame_records * RECORD.size
    pending = bytearray()
    count = 0
    while count < limit:
        records = source.next_record_block(
            min(frame_records, limit - count))
        if records is None:
            break
        count += len(records)
        pending += records.tobytes()
        while len(pending) >= frame_bytes:
            yield pending[:frame_bytes]
            del pending[:frame_bytes]
    if pending:
        yield pending


def capture(source: TraceSource, path, limit: int, *, wp_seed: int,
            provenance: Optional[Dict[str, Any]] = None,
            frame_records: int = DEFAULT_FRAME_RECORDS) -> TraceInfo:
    """Pull up to ``limit`` correct-path µops from ``source`` to disk.

    The stream is read as record blocks
    (:meth:`~repro.isa.trace.TraceSource.next_record_block`), one frame's
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
        CONTAINER.check_frames(self.path, self.info.uop_count)
        super().__init__(self.info.wp_seed)
        self._frames = CONTAINER.frames(self.path)
        self._frame = b""
        self._offset = 0

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
        pc, mem_addr, target, s0, s1, s2, dst, opclass, flags, mem_size \
            = RECORD.unpack_from(self._frame, self._offset)
        self._offset += RECORD.size
        self.emitted += 1
        srcs = []
        if s0 >= 0:
            srcs.append(s0)
            if s1 >= 0:
                srcs.append(s1)
                if s2 >= 0:
                    srcs.append(s2)
        return (pc, _OPCLASS_BY_VALUE[opclass], srcs,
                dst if dst >= 0 else None, mem_addr, mem_size,
                bool(flags & _FLAG_TAKEN), target)

    def next_record_block(self, max_uops: int):
        """Up to ``max_uops`` records as a view over the current frame.

        One ``np.frombuffer`` per call, nothing decoded: a block never
        spans two frames. ``None`` once the stream is exhausted. Stream
        position (``emitted``, checkpoint state) advances exactly as if
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
        self.emitted += count
        return records

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
