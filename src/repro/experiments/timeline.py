"""Pipeline timing diagrams (Figures 1, 2 and 6 as ASCII).

:class:`TimelineSink` is an :class:`~repro.telemetry.events.EventBus`
sink that keeps every issue attempt and marks the ones a replay
squashed; :func:`render_timeline` draws the classic pipeline diagram
from it: ``I`` the issue cycle, ``.`` transit between Issue and
Execute, ``E`` execution, ``x`` a squashed (replayed) issue attempt.
Used by ``examples/timeline_diagrams.py`` to reproduce the paper's
illustrative figures from live simulation::

    timeline = TimelineSink(config.core.issue_to_execute_delay)
    sim = Simulator(config, trace, event_bus=EventBus(timeline))
    sim.run()
    print(render_timeline(timeline))
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.telemetry.events import EV_ISSUE, EV_SQUASH, SQUASH_REPLAY


class TimelineSink:
    """Per-µop issue log built from ``issue`` and replay ``squash`` events.

    ``issue_log`` maps ``seq -> [[issue, exec_start, squashed], ...]``,
    one entry per issue attempt in order. ``exec_start`` is
    ``issue + delay + 1``, as the Issue stage schedules it; a replay
    squash marks the µop's latest attempt.
    """

    def __init__(self, delay: int) -> None:
        self.delay = delay
        self.issue_log: Dict[int, List[List[int]]] = {}

    def emit(self, cycle: int, kind: str, seq: int,
             pc: int = 0, a: int = 0, b: int = 0) -> None:
        if kind == EV_ISSUE:
            self.issue_log.setdefault(seq, []).append(
                [cycle, cycle + self.delay + 1, 0])
        elif kind == EV_SQUASH and a == SQUASH_REPLAY:
            self.issue_log[seq][-1][2] = 1


def render_timeline(timeline: TimelineSink, seqs: Optional[List[int]] = None,
                    labels: Optional[Dict[int, str]] = None,
                    max_cycles: int = 60) -> str:
    """Draw the recorded timeline for the chosen µop sequence numbers."""
    issue_log = timeline.issue_log
    seqs = seqs if seqs is not None else sorted(issue_log)
    labels = labels or {}
    events: List[Tuple[int, str, List[List[int]]]] = []
    t0 = None
    for seq in seqs:
        attempts = issue_log.get(seq, [])
        if not attempts:
            continue
        first = min(a[0] for a in attempts)
        t0 = first if t0 is None else min(t0, first)
        events.append((seq, labels.get(seq, f"uop{seq}"), attempts))
    if t0 is None:
        return "(no issue events recorded)"
    width = max(len(lbl) for _, lbl, _ in events) + 2
    header = " " * width + "".join(
        f"{(t0 + c) % 10}" for c in range(max_cycles))
    lines = [header]
    for seq, label, attempts in events:
        row = [" "] * max_cycles
        for issue, exec_start, squashed in attempts:
            i, e = issue - t0, exec_start - t0
            if i >= max_cycles:
                continue
            mark = "x" if squashed else "I"
            row[i] = mark
            for c in range(i + 1, min(e, max_cycles)):
                if row[c] == " ":
                    row[c] = "."
            if not squashed and e < max_cycles:
                row[e] = "E"
        lines.append(label.ljust(width) + "".join(row))
    return "\n".join(lines)
