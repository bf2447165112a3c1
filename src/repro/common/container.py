"""The one on-disk container of every binary artifact: header, frames,
digest.

Recorded traces (``.trc``, :mod:`repro.traces.format`) and checkpoints
(``.ckpt``, :mod:`repro.checkpoint.format`) share one layout; a format
supplies its :class:`Container` (magic, version, error class, count
unit) and the keys of its meta JSON::

    header (64 bytes, fixed):
        magic        4s   b"RPTR" (trace), b"RPCK" (checkpoint)
        version      u16  per format
        flags        u16  bit 0 (zlib frames) must be set
        count        u64  raw payload length in the format's unit
        digest       32s  sha256 over the *raw* (uncompressed) payload
        meta_len     u32  length of the meta JSON that follows
        reserved     12s
    meta JSON (meta_len bytes): a JSON object
    frames, each:  raw_len u32, stored_len u32, zlib(raw) payload

The digest identifies the content independently of the zlib level, the
framing and the file's location; the engine folds it into cache keys.
The writer patches count and digest into the header after the last
frame and renames the finished file into place, so an artifact file
appears whole or not at all.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import struct
import zlib
from pathlib import Path
from typing import (Any, BinaryIO, Dict, Iterable, Iterator, NamedTuple,
                    Tuple, Type)

from repro.common.serialize import AtomicFile

HEADER = struct.Struct("<4sHHQ32sI12s")
FRAME_HEADER = struct.Struct("<II")
FLAG_ZLIB = 0x1


class Header(NamedTuple):
    count: int
    digest: bytes
    meta: Dict[str, Any]


@dataclasses.dataclass(frozen=True)
class Container:
    """One format's header values and the unit its header counts the
    payload in. Every fault is raised as the format's own ``error``
    class, naming the file."""

    magic: bytes
    version: int
    noun: str                       # names the file kind in messages
    error: Type[ValueError]
    unit: int = 1                   # raw bytes per counted item
    units: str = "bytes"            # the counted item, in messages

    # -- header ----------------------------------------------------------

    def read_header(self, handle: BinaryIO, path: Path) -> Header:
        """Parse the header and meta JSON, leaving ``handle`` at the
        first frame."""
        raw = handle.read(HEADER.size)
        if len(raw) != HEADER.size:
            raise self.error(f"{path.name}: not a {self.noun} file "
                             f"(too short)")
        magic, version, flags, count, digest, meta_len, _ = HEADER.unpack(raw)
        if magic != self.magic:
            raise self.error(f"{path.name}: bad magic {magic!r}")
        if version != self.version:
            raise self.error(
                f"{path.name}: {self.noun} format version {version} (this "
                f"build reads {self.version})")
        if not flags & FLAG_ZLIB:
            raise self.error(
                f"{path.name}: header lacks the zlib flag (uncompressed "
                f"{self.noun} files are not read)")
        meta_raw = handle.read(meta_len)
        if len(meta_raw) != meta_len:
            raise self._cut(path, "ends inside its meta JSON")
        try:
            meta = json.loads(meta_raw)
        except ValueError as exc:
            raise self.error(f"{path.name}: corrupt meta JSON") from exc
        if not isinstance(meta, dict):
            raise self.error(f"{path.name}: meta JSON is not an object")
        return Header(count, digest, meta)

    def header(self, path: Path) -> Header:
        """The header of the file at ``path`` (no frame is read)."""
        with path.open("rb") as handle:
            return self.read_header(handle, path)

    # -- frames ----------------------------------------------------------

    def _skip(self, handle: BinaryIO, path: Path, count: int) -> int:
        """Step over the whole frames before unit ``count`` by their
        headers' ``stored_len``, inflating nothing; returns how many units
        of the frame now under ``handle`` precede unit ``count``."""
        while count:
            frame_header = handle.read(FRAME_HEADER.size)
            if not frame_header:
                break
            if len(frame_header) != FRAME_HEADER.size:
                raise self._cut(path, "ends inside a frame header")
            raw_len, stored_len = FRAME_HEADER.unpack(frame_header)
            if raw_len % self.unit:
                raise self.error(f"{path.name}: frame length mismatch")
            units = raw_len // self.unit
            if units > count:
                handle.seek(-FRAME_HEADER.size, 1)
                break
            handle.seek(stored_len, 1)
            count -= units
        # Seeking past the end of a file does not fail: a file cut inside
        # a skipped frame shows up only as an offset beyond its size.
        if handle.tell() > os.fstat(handle.fileno()).st_size:
            raise self._cut(path, "ends inside a frame")
        return count

    def frames(self, path: Path, skip: int = 0) -> Iterator[bytes]:
        """Yield each frame's raw bytes, starting at unit ``skip``: the
        frames before it are stepped over by their headers, and the
        leading units of the frame holding it dropped."""
        with path.open("rb") as handle:
            self.read_header(handle, path)
            if skip:
                skip = self._skip(handle, path, skip)
            while frame_header := handle.read(FRAME_HEADER.size):
                if len(frame_header) != FRAME_HEADER.size:
                    raise self._cut(path, "ends inside a frame header")
                raw_len, stored_len = FRAME_HEADER.unpack(frame_header)
                stored = handle.read(stored_len)
                if len(stored) != stored_len:
                    raise self._cut(path, "ends inside a frame")
                try:
                    raw = zlib.decompress(stored)
                except zlib.error as exc:
                    raise self.error(f"{path.name}: corrupt frame") from exc
                if len(raw) != raw_len or raw_len % self.unit:
                    raise self.error(f"{path.name}: frame length mismatch")
                if skip:
                    raw = raw[skip * self.unit:]
                    skip = 0
                yield raw

    def check_frames(self, path: Path, count: int) -> None:
        """Walk every frame header, inflating nothing, and refuse a file
        whose frames hold fewer than the ``count`` units its header
        declares (a file cut at, or inside, a frame)."""
        with path.open("rb") as handle:
            self.read_header(handle, path)
            missing = self._skip(handle, path, count)
        if missing:
            raise self._cut(path, f"holds {count - missing} of the {count} "
                                  f"{self.units} its header declares")

    def _cut(self, path: Path, where: str) -> ValueError:
        return self.error(f"truncated {self.noun} file: {path.name} {where}")

    # -- digest ----------------------------------------------------------

    def verify(self, path: Path, keep: bool = False) -> Tuple[Header, bytes]:
        """Rescan every frame against the header's length and digest;
        returns the header and, if ``keep``, the raw payload."""
        head = self.header(path)
        sha, length, kept = hashlib.sha256(), 0, []
        for raw in self.frames(path):
            sha.update(raw)
            length += len(raw)
            if keep:
                kept.append(raw)
        if length != head.count * self.unit or sha.digest() != head.digest:
            raise self.error(f"{path.name}: payload digest mismatch (file "
                             f"corrupted or tampered)")
        return head, b"".join(kept)

    # -- writing ---------------------------------------------------------

    def write(self, path, meta: Dict[str, Any], frames: Iterable[bytes], *,
              level: int) -> None:
        """Write ``meta`` and one zlib frame per item of ``frames`` to
        ``path``, whole or not at all (:class:`~repro.common.serialize.
        AtomicFile`; ``frames`` raising included)."""
        meta_raw = json.dumps(meta, sort_keys=True).encode("utf-8")
        sha, length = hashlib.sha256(), 0
        with AtomicFile(path) as handle:
            handle.write(HEADER.pack(self.magic, self.version, FLAG_ZLIB, 0,
                                     bytes(32), len(meta_raw), bytes(12)))
            handle.write(meta_raw)
            for raw in frames:
                stored = zlib.compress(raw, level)
                sha.update(raw)
                length += len(raw)
                handle.write(FRAME_HEADER.pack(len(raw), len(stored)))
                handle.write(stored)
            handle.seek(8)                 # past magic, version and flags
            handle.write(struct.pack("<Q32s", length // self.unit,
                                     sha.digest()))
