"""External span tracer: times calls into the simulator's layers from outside.

The tracer replaces a fixed set of public functions and methods of the
``repro`` package with timing wrappers while it is installed, and puts
the originals back when it is removed, so an untraced run executes the
program's own code objects and pays nothing. Spans live in memory, each
with the index of the span that was open when it started (its parent);
a layer's *self* time is its span's duration minus the time its child
spans cover.

While installed it also times the interpreter's cyclic garbage
collector, which runs inside whatever span allocated last and so is
reported beside the spans, not as one of them.

Hooks let a wrapper count work where it happens (µops pulled per
commit, checkpoint bytes written, µops served by the trace reader) or
pass the existing ``phase_profile=`` argument of
:func:`repro.experiments.engine.simulate_payload`, which turns on the
simulator's own per-stage timers for the traced run only.
"""

from __future__ import annotations

import functools
import gc
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple


class Tracer:
    """Install timing wrappers, record spans, and aggregate self time."""

    def __init__(self) -> None:
        #: One record per call: [name, parent index or -1, start, end].
        self.spans: List[list] = []
        #: Work counters filled by hooks (µops, bytes, cycles, ...).
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._targets: List[Tuple[object, str, str, Optional[Callable],
                                  Optional[Callable]]] = []
        self._saved: List[Tuple[object, str, object]] = []
        self._gc_start = 0.0

    # -- configuration ---------------------------------------------------

    def add(self, owner, attr: str, name: str, before=None,
            after=None) -> None:
        """Trace ``owner.attr`` as span ``name``.

        ``before(args, kwargs)`` may edit ``kwargs`` in place and returns
        a context value; ``after(context, args, result)`` runs when the
        call returns normally.
        """
        if not callable(vars(owner).get(attr)):
            raise AttributeError(f"{owner!r} has no function {attr!r}")
        self._targets.append((owner, attr, name, before, after))

    # -- lifetime --------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, before, after in self._targets:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, before, after))
        gc.callbacks.append(self._time_gc)

    def remove(self) -> None:
        """Put every original function back, in reverse install order."""
        if self._time_gc in gc.callbacks:
            gc.callbacks.remove(self._time_gc)
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def _time_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.counts["gc_s"] += perf_counter() - self._gc_start
            self.counts["gc_collections"] += 1

    def _wrap(self, fn, name: str, before, after):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            context = before(args, kwargs) if before is not None else None
            span = [name, stack[-1] if stack else -1, perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if after is not None:
                after(context, args, result)
            return result

        return traced

    # -- reporting -------------------------------------------------------

    def self_times(self, start: int = 0, end: Optional[int] = None
                   ) -> Dict[str, float]:
        """Span name -> summed self time over spans ``start:end``."""
        spans = self.spans[start:end]
        covered = [0.0] * len(spans)
        for span in spans:
            parent = span[1] - start
            if parent >= 0:
                covered[parent] += span[3] - span[2]
        out: Dict[str, float] = defaultdict(float)
        for span, children in zip(spans, covered):
            out[span[0]] += span[3] - span[2] - children
        return out

    def root_time(self, start: int = 0, end: Optional[int] = None) -> float:
        """Time covered by spans with no traced parent."""
        return sum(span[3] - span[2] for span in self.spans[start:end]
                   if span[1] < start)

