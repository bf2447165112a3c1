"""The pipeline event bus: per-µop lifecycle events and pluggable sinks.

An *event* is a flat 6-tuple ``(cycle, kind, seq, pc, a, b)`` — cheap
enough to emit from stage hot paths when recording is on, and trivially
serializable. ``kind`` is one of the :data:`EVENT_KINDS` strings; the
meaning of the two payload integers ``a``/``b`` is per-kind (documented
next to each ``EV_*`` constant and in ``docs/OBSERVABILITY.md``).

The bus itself is a thin fan-out. When a simulator is built *without* a
bus (the default) nothing here is even imported into the tick path —
the stage list uses the plain stage classes and the hot loop is
bit-identical to an uninstrumented build. A bus with no sink emits to
the module-level no-op :func:`null_emit`.

Sinks implement one method, ``emit(cycle, kind, seq, pc=0, a=0, b=0)``:

* :class:`JsonlEventWriter` — streaming (optionally gzip'd) JSONL file
  with a versioned header + provenance line, mirroring the binary trace
  format's header/provenance discipline (:mod:`repro.traces.format`);
* :class:`AggregatorSink` — running histograms (replay distance, burst
  length, per-PC filter accuracy) for the ``--metrics`` report.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import zlib
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.common.serialize import AtomicFile

__all__ = [
    "AggregatorSink",
    "EVENT_FIELDS",
    "EVENT_KINDS",
    "EVENTS_FORMAT",
    "EVENTS_VERSION",
    "EventBus",
    "EventsFormatError",
    "JsonlEventWriter",
    "SQUASH_CAUSES",
    "null_emit",
    "open_events",
]

EVENTS_FORMAT = "repro-events"
#: Bumped when the line layout or field semantics change.
EVENTS_VERSION = 1
#: Field order of every event tuple / JSONL array line.
EVENT_FIELDS = ("cycle", "kind", "seq", "pc", "a", "b")

# -- event kinds (a/b payload meanings) -------------------------------------

EV_FETCH = "fetch"              # a: wrong_path (0/1)     b: opclass value
EV_RENAME = "rename"            # µop entered the OoO window
EV_ISSUE = "issue"              # a: num_issues           b: promised latency
EV_RECOVER = "recover"          # re-issue after replay; a: prior issues
EV_EXECUTE = "execute"          # a: actual latency       b: L1 hit (loads)
EV_WRITEBACK = "writeback"      # completion observed by the ROB
EV_COMMIT = "commit"            # architectural retirement
EV_FILTER_PRED = "filter_pred"  # a: speculate (0/1)      b: promised latency
EV_FILTER_OUT = "filter_out"    # a: predicted hit (0/1)  b: actual hit (0/1)
EV_REPLAY = "replay"            # a: squashed µops        b: issue-to-detect
EV_SQUASH = "squash"            # a: cause index into SQUASH_CAUSES
EV_VIOLATION = "violation"      # seq/pc: offending load  a: squashed µops

EVENT_KINDS = (
    EV_FETCH, EV_RENAME, EV_ISSUE, EV_RECOVER, EV_EXECUTE, EV_WRITEBACK,
    EV_COMMIT, EV_FILTER_PRED, EV_FILTER_OUT, EV_REPLAY, EV_SQUASH,
    EV_VIOLATION,
)

#: ``EV_SQUASH``'s ``a`` field indexes this tuple.
SQUASH_CAUSES = ("replay", "branch", "violation")
SQUASH_REPLAY, SQUASH_BRANCH, SQUASH_VIOLATION = range(3)


def null_emit(cycle: int, kind: str, seq: int,
              pc: int = 0, a: int = 0, b: int = 0) -> None:
    """The disabled-telemetry emit: a module-level no-op."""


class EventBus:
    """Fan-out from emission points to the attached sinks.

    With exactly one sink ``emit`` is the sink's own bound method — the
    common recording configuration pays no fan-out loop. With none it is
    :func:`null_emit`. Emission points read ``bus.emit`` per call (never
    capture it at construction), so sinks may be attached mid-run — e.g.
    a trace writer attached only after warmup.
    """

    def __init__(self, *sinks) -> None:
        self._sinks: List[Any] = []
        self.emit = null_emit
        for sink in sinks:
            self.attach(sink)

    def attach(self, sink):
        """Add ``sink`` (returns it, for assignment-friendly call sites)."""
        self._sinks.append(sink)
        if len(self._sinks) == 1:
            self.emit = sink.emit
        else:
            self.emit = _fanout(self._sinks)
        return sink

    @property
    def sinks(self) -> Tuple[Any, ...]:
        return tuple(self._sinks)


def _fanout(sinks: List[Any]):
    """An emit over every sink in ``sinks`` (a closure over the list, not
    a bound method, so a bus holding it is no reference cycle)."""

    def emit(cycle: int, kind: str, seq: int,
             pc: int = 0, a: int = 0, b: int = 0) -> None:
        for sink in sinks:
            sink.emit(cycle, kind, seq, pc, a, b)

    return emit


# ---------------------------------------------------------------------------
# Sinks


class AggregatorSink:
    """Running histograms over the event stream (no per-event storage).

    Feeds the ``SimStats.telemetry`` table: replay distance and burst
    histograms from ``replay`` events, per-PC hit/miss-filter accuracy
    from ``filter_out`` events, plus a per-kind event census.
    """

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}
        #: issue→detection distance (cycles) -> occurrences.
        self.issue_to_replay: Dict[int, int] = {}
        #: squashed-µop count per replay event -> occurrences.
        self.replay_burst: Dict[int, int] = {}
        #: pc -> [pred-hit/hit, pred-hit/miss, pred-miss/hit, pred-miss/miss].
        self.filter_pcs: Dict[int, List[int]] = {}

    def emit(self, cycle: int, kind: str, seq: int,
             pc: int = 0, a: int = 0, b: int = 0) -> None:
        counts = self.counts
        counts[kind] = counts.get(kind, 0) + 1
        if kind == EV_REPLAY:
            self.replay_burst[a] = self.replay_burst.get(a, 0) + 1
            self.issue_to_replay[b] = self.issue_to_replay.get(b, 0) + 1
        elif kind == EV_FILTER_OUT:
            cells = self.filter_pcs.get(pc)
            if cells is None:
                cells = self.filter_pcs[pc] = [0, 0, 0, 0]
            cells[(0 if a else 2) + (0 if b else 1)] += 1

    def filter_accuracy(self) -> float:
        """Fraction of committed loads whose wakeup promise was right."""
        correct = wrong = 0
        for hh, hm, mh, mm in self.filter_pcs.values():
            correct += hh + mm
            wrong += hm + mh
        total = correct + wrong
        return correct / total if total else 0.0

    def report(self) -> Dict[str, Any]:
        """JSON-able summary (string keys) for ``SimStats.telemetry``."""
        return {
            "events": dict(sorted(self.counts.items())),
            "issue_to_replay": {str(k): v for k, v
                                in sorted(self.issue_to_replay.items())},
            "replay_burst": {str(k): v for k, v
                             in sorted(self.replay_burst.items())},
            "filter_pcs": {f"0x{pc:x}": list(cells) for pc, cells
                           in sorted(self.filter_pcs.items())},
        }


class JsonlEventWriter:
    """Streaming JSONL event-trace writer, gzip-compressed when the path
    ends in ``.gz``.

    Line 1 is a versioned JSON header (format tag, field order,
    caller-supplied provenance); every further line is one event as a
    JSON array in :data:`EVENT_FIELDS` order. Bytes are deterministic —
    the gzip member is written with ``mtime=0`` and no filename, and the
    header carries only what the caller passes — so identical runs
    produce identical files (asserted by the determinism tests). The
    file appears whole or not at all (:class:`~repro.common.serialize.
    AtomicFile`): :meth:`close` puts it in place, a raising ``with``
    block removes it.
    """

    #: Events buffered before each write.
    _FLUSH_EVERY = 8_192

    def __init__(self, path,
                 provenance: Optional[Dict[str, Any]] = None) -> None:
        self.path = Path(path)
        self.count = 0
        self._lines: List[str] = []
        self.compressed = self.path.name.endswith(".gz")
        self._file = AtomicFile(self.path)
        if self.compressed:
            # filename="" keeps the path out of the member header: two
            # identical streams must produce identical bytes wherever
            # they are written.
            self._handle = gzip.GzipFile(
                filename="", fileobj=self._file.handle, mode="wb", mtime=0)
        else:
            self._handle = self._file.handle
        header = {"format": EVENTS_FORMAT, "version": EVENTS_VERSION,
                  "fields": list(EVENT_FIELDS),
                  "provenance": dict(provenance or {})}
        self._handle.write(
            (json.dumps(header, sort_keys=True) + "\n").encode("utf-8"))

    def emit(self, cycle: int, kind: str, seq: int,
             pc: int = 0, a: int = 0, b: int = 0) -> None:
        self._lines.append(f'[{cycle},"{kind}",{seq},{pc},{a},{b}]\n')
        self.count += 1
        if len(self._lines) >= self._FLUSH_EVERY:
            self._drain()

    def _drain(self) -> None:
        if self._lines:
            self._handle.write("".join(self._lines).encode("utf-8"))
            self._lines.clear()

    def close(self) -> None:
        self._drain()
        self._handle.close()
        self._file.commit()

    def __enter__(self) -> "JsonlEventWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            with contextlib.suppress(OSError):   # the gzip trailer, if any
                self._handle.close()
            self._file.discard()


# ---------------------------------------------------------------------------
# Reading


class EventsFormatError(ValueError):
    """Raised for files that are not (readable) event traces."""


#: What a gzip stream cut short or garbled raises while being read.
_STREAM_ERRORS = (EOFError, zlib.error)


def _stream_error(path: Path, exc: BaseException) -> EventsFormatError:
    return EventsFormatError(f"{path}: truncated or corrupt ({exc})")


def _open_text(path: Path):
    # gzip.open closes only the files it opened itself, so the gzip
    # reader opens the path rather than wrapping the probe's handle.
    with path.open("rb") as probe:
        gzipped = probe.read(2) == b"\x1f\x8b"
    if gzipped:
        return gzip.open(path, "rt", encoding="utf-8")
    return path.open("r", encoding="utf-8")


def open_events(path) -> Tuple[Dict[str, Any], Iterator[tuple]]:
    """Open an event trace: ``(header, lazy event-tuple iterator)``.

    The iterator owns the file handle and closes it when exhausted (or
    garbage-collected); consume it fully or discard it.
    """
    path = Path(path)
    handle = _open_text(path)
    try:
        try:
            first = handle.readline()
        except _STREAM_ERRORS as exc:
            raise _stream_error(path, exc) from exc
        try:
            header = json.loads(first)
        except ValueError as exc:
            raise EventsFormatError(
                f"{path}: not an event trace (bad header: {exc})") from exc
        if not isinstance(header, dict) \
                or header.get("format") != EVENTS_FORMAT:
            raise EventsFormatError(f"{path}: not a {EVENTS_FORMAT} file")
        version = header.get("version")
        if version != EVENTS_VERSION:
            raise EventsFormatError(
                f"{path}: event-trace version {version} "
                f"(this build reads {EVENTS_VERSION})")
        if header.get("fields") != list(EVENT_FIELDS):
            raise EventsFormatError(
                f"{path}: unexpected field order {header.get('fields')}")
    except BaseException:
        handle.close()
        raise

    def _iterate() -> Iterator[tuple]:
        with handle:
            try:
                for line in handle:
                    if not line.strip():
                        continue
                    try:
                        yield tuple(json.loads(line))
                    except ValueError as exc:
                        raise EventsFormatError(
                            f"{path}: corrupt event line {line!r}") from exc
            except _STREAM_ERRORS as exc:
                raise _stream_error(path, exc) from exc

    return header, _iterate()


def count_events(path) -> Tuple[Dict[str, Any], Dict[str, int]]:
    """``(header, kind -> count)`` for an event trace file."""
    header, events = open_events(path)
    counts: Dict[str, int] = {}
    for event in events:
        kind = event[1]
        counts[kind] = counts.get(kind, 0) + 1
    return header, counts
