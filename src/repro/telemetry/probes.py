"""Metric probes: per-cycle structure sampling and the metrics collector.

Probes are ordinary pipeline stages inserted through the ``extra_stages``
seam (:func:`repro.pipeline.stages.build_stages`) — the same mechanism a
custom scheduler or tracer uses, so they compose with stage overrides
and appear in the per-stage instrumentation breakdown automatically.
They read shared structures, never write them: a probed run's
``SimStats`` counters are bit-identical to an unprobed run's.

:class:`MetricsCollector` bundles the standard observability kit — an
:class:`~repro.telemetry.events.AggregatorSink` on the event bus plus
the occupancy probe — and distills both into the ``SimStats.telemetry``
table after the run (surfaced by ``repro run --metrics``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.pipeline.stages.base import NEVER, Stage
from repro.telemetry.events import AggregatorSink, EventBus

__all__ = ["MetricsCollector", "OccupancyProbe", "render_metrics"]


class OccupancyProbe(Stage):
    """Per-cycle occupancy histograms over the backend structures.

    Samples at the end of every cycle (anchored after ``bookkeep``):
    IQ, ROB, load queue, store queue, recovery buffer, and the two
    latch banks (issue→execute, execute→writeback). Each histogram maps
    ``occupancy -> cycles observed at that occupancy``. A quiescent span
    the driver skips is sampled in bulk: nothing it observes can change
    during the span, so each of its cycles counts the same occupancies.
    """

    name = "telemetry_occupancy"
    after = "bookkeep"

    STRUCTURES = ("iq", "rob", "lq", "sq", "recovery",
                  "exec_latch", "completion_latch")

    def __init__(self, sim) -> None:
        super().__init__(sim)
        self.iq = sim.iq
        self.rob = sim.rob
        self.lsq = sim.lsq
        self.recovery = sim.recovery
        self.exec_latch = sim.exec_latch
        self.completion_latch = sim.completion_latch
        self.cycles = 0
        self.hists: Dict[str, Dict[int, int]] = {
            name: {} for name in self.STRUCTURES}

    def tick(self, now: int) -> None:
        self._sample(1)

    def next_event(self, now: int) -> int:
        return NEVER

    def skip(self, now: int, until: int) -> None:
        self._sample(until - now)

    def _sample(self, cycles: int) -> None:
        """Count the current occupancies ``cycles`` times."""
        self.cycles += cycles
        hists = self.hists
        for name, value in (
                ("iq", len(self.iq)),
                ("rob", len(self.rob)),
                ("lq", len(self.lsq.loads)),
                ("sq", len(self.lsq.stores)),
                ("recovery", len(self.recovery)),
                ("exec_latch", self.exec_latch.in_flight()),
                ("completion_latch", self.completion_latch.in_flight())):
            hist = hists[name]
            hist[value] = hist.get(value, 0) + cycles

    def summary(self) -> Dict[str, Any]:
        """JSON-able per-structure mean/peak + full histograms."""
        out: Dict[str, Any] = {"cycles": self.cycles, "structures": {}}
        for name in self.STRUCTURES:
            hist = self.hists[name]
            total = sum(hist.values())
            weighted = sum(occ * n for occ, n in hist.items())
            out["structures"][name] = {
                "mean": weighted / total if total else 0.0,
                "peak": max(hist) if hist else 0,
                "hist": {str(occ): n for occ, n in sorted(hist.items())},
            }
        return out


class MetricsCollector:
    """The standard metrics kit: aggregator sink + occupancy probe.

    Usage::

        collector = MetricsCollector()
        sim = Simulator(config, trace, event_bus=collector.bus,
                        extra_stages=collector.probes)
        sim.run()
        collector.finalize(sim)      # fills sim.stats.telemetry

    ``bus`` may be pre-populated with extra sinks, or more sinks
    attached to ``collector.bus``, before the simulator is built:
    ``repro run --events`` attaches its
    :class:`~repro.telemetry.events.JsonlEventWriter` this way, so the
    trace and the metrics observe the same cell.
    """

    def __init__(self, bus: Optional[EventBus] = None) -> None:
        self.bus = bus if bus is not None else EventBus()
        self.aggregator = self.bus.attach(AggregatorSink())
        #: Stage classes for ``extra_stages=``. A list of *classes*, per
        #: the seam's contract; the built instance is recovered from the
        #: simulator's stage table at finalize time.
        self.probes: List[type] = [OccupancyProbe]

    def finalize(self, sim, stats=None) -> Dict[str, Any]:
        """Distill the run into ``stats.telemetry`` (default: sim.stats).

        Returns the table that was stored.
        """
        stats = sim.stats if stats is None else stats
        table: Dict[str, Any] = self.aggregator.report()
        table["filter_accuracy"] = self.aggregator.filter_accuracy()
        try:
            probe = sim.stage(OccupancyProbe.name)
        except KeyError:
            probe = None
        if probe is not None:
            table["occupancy"] = probe.summary()
        stats.telemetry = table
        return table


def render_metrics(telemetry: Dict[str, Any]) -> str:
    """Human-readable rendering of a ``SimStats.telemetry`` table."""
    lines: List[str] = []
    events = telemetry.get("events", {})
    if events:
        lines.append("event census:")
        for kind, count in events.items():
            lines.append(f"  {kind:<12} {count:>12,}")
    if "filter_accuracy" in telemetry:
        lines.append(
            f"filter accuracy (committed loads): "
            f"{telemetry['filter_accuracy']:.4f}")
    hist = telemetry.get("issue_to_replay", {})
    if hist:
        lines.append("issue-to-replay distance (cycles -> events):")
        for dist, count in hist.items():
            lines.append(f"  {dist:>4} {count:>10,}")
    hist = telemetry.get("replay_burst", {})
    if hist:
        lines.append("replay burst length (squashed µops -> events):")
        for size, count in hist.items():
            lines.append(f"  {size:>4} {count:>10,}")
    occ = telemetry.get("occupancy")
    if occ:
        lines.append(f"occupancy over {occ['cycles']:,} cycles:")
        lines.append(f"  {'structure':<18}{'mean':>10}{'peak':>8}")
        for name, row in occ["structures"].items():
            lines.append(
                f"  {name:<18}{row['mean']:>10.2f}{row['peak']:>8}")
    pcs = telemetry.get("filter_pcs", {})
    if pcs:
        worst = sorted(
            pcs.items(),
            key=lambda kv: -(kv[1][1] + kv[1][2]))[:10]
        shown = [(pc, cells) for pc, cells in worst
                 if cells[1] + cells[2] > 0]
        if shown:
            lines.append("worst-predicted load PCs (hh/hm/mh/mm):")
            for pc, (hh, hm, mh, mm) in shown:
                lines.append(f"  {pc:<12} {hh:>8} {hm:>8} {mh:>8} {mm:>8}")
    return "\n".join(lines)
