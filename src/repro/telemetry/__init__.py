"""Telemetry: pipeline event traces, metric probes, run manifests.

Three observability layers over the simulator, all strictly opt-in (an
uninstrumented run never imports this package from its hot path, and an
instrumented run's architectural counters are bit-identical — asserted
by the test suite and re-checked by the ``telemetry`` benchmark):

* **events** — per-µop lifecycle events from the pipeline stages onto a
  pluggable bus (:mod:`repro.telemetry.events`, emitting stage
  subclasses in :mod:`repro.telemetry.stages`), recordable to versioned
  JSONL (optionally gzip'd) and exportable to the gem5/Konata
  O3PipeView format (:mod:`repro.telemetry.export`);
* **probes** — per-cycle structure occupancy histograms and event-bus
  aggregates distilled into ``SimStats.telemetry``
  (:mod:`repro.telemetry.probes`, surfaced by ``repro run --metrics``);
* **manifests** — per-cell engine run records (wall time, cache
  hit/miss, peak RSS) written next to the result cache
  (:mod:`repro.telemetry.manifest`, rolled up by
  ``repro report manifests``).

``docs/OBSERVABILITY.md`` is the user-facing guide.
"""

from repro.telemetry.events import (
    AggregatorSink,
    EVENT_FIELDS,
    EVENT_KINDS,
    EVENTS_FORMAT,
    EVENTS_VERSION,
    EventBus,
    EventsFormatError,
    JsonlEventWriter,
    count_events,
    null_emit,
    open_events,
)
from repro.telemetry.export import export_o3pipeview, write_o3pipeview
from repro.telemetry.manifest import (
    MANIFEST_SCHEMA,
    build_manifest,
    manifests_dir,
    peak_rss_kb,
    read_manifests,
    render_rollup,
    rollup,
    write_manifest,
)
from repro.telemetry.probes import (
    MetricsCollector,
    OccupancyProbe,
    render_metrics,
)
from repro.telemetry.stages import TELEMETRY_STAGES

__all__ = [
    "AggregatorSink",
    "EVENT_FIELDS",
    "EVENT_KINDS",
    "EVENTS_FORMAT",
    "EVENTS_VERSION",
    "EventBus",
    "EventsFormatError",
    "JsonlEventWriter",
    "MANIFEST_SCHEMA",
    "MetricsCollector",
    "OccupancyProbe",
    "TELEMETRY_STAGES",
    "build_manifest",
    "count_events",
    "export_o3pipeview",
    "manifests_dir",
    "null_emit",
    "open_events",
    "peak_rss_kb",
    "read_manifests",
    "render_metrics",
    "render_rollup",
    "rollup",
    "write_manifest",
    "write_o3pipeview",
]
