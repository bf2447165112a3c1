"""The CI perf gate: compare a fresh result against a committed baseline.

The committed ``benchmarks/baseline.json`` holds one :class:`BenchResult`
per benchmark. :func:`check_regression` compares each of the benchmark's
*gated metrics* (:data:`GATE_SPECS`) against the baseline's and reports a
failure when any moved past its limit in the bad direction.

Each gated metric carries a direction: throughputs (µops/sec) are
*higher-is-better*; error and overhead metrics (sampling's
``mean_ipc_rel_err``, telemetry's ``overhead_ratio``) are
*lower-is-better* and gate in the opposite sense. A lower-is-better
metric may additionally carry an absolute ceiling — a bound the metric
must not exceed no matter what the committed baseline says, so a bad
value can never be ratified by committing it.

Machine-speed metrics are normalized by each run's calibration figure
(see :func:`repro.perf.bench.calibrate`), which is what lets a
laptop-recorded baseline gate a CI runner: raw µops/sec track the
machine, the ratio tracks the simulator. Metrics that are already
machine-neutral ratios (two wall times on the same machine) skip the
normalization — dividing by calibration would *introduce* machine
dependence instead of removing it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.perf.bench import BENCH_SCHEMA, BenchResult

#: Directions a gated metric can prefer.
HIGHER, LOWER = "higher", "lower"


@dataclass(frozen=True)
class GateSpec:
    """How one metric of one benchmark is gated."""

    metric: str
    #: Which way is good: ``higher`` (throughput) or ``lower`` (error,
    #: overhead).
    direction: str = HIGHER
    #: Divide by the run's calibration figure before comparing
    #: (machine-speed metrics only; ratios compare raw).
    normalize: bool = True
    #: Lower-is-better only: absolute ceiling enforced regardless of the
    #: baseline value.
    ceiling: Optional[float] = None


#: The gated metrics per benchmark, primary metric first (the primary is
#: what the CLI prints as the benchmark's headline number).
GATE_SPECS: Dict[str, Tuple[GateSpec, ...]] = {
    "headline": (GateSpec("uops_per_sec"),),
    "table2": (GateSpec("uops_per_sec"),),
    "trace": (GateSpec("replay_uops_per_sec"),),
    "sampling": (
        # The sampled-vs-detailed wall-clock ratio: a regression here
        # means sampling lost its reason to exist, whatever the machine.
        GateSpec("speedup", normalize=False),
        # And the accuracy that makes the speedup honest: sampled IPC
        # within 2% of the detailed run, as an absolute floor on quality
        # (ROADMAP: sampling accuracy gate).
        GateSpec("mean_ipc_rel_err", direction=LOWER, normalize=False, ceiling=0.02),
    ),
    "telemetry": (
        # Events-off throughput: building with the telemetry seams in
        # place must cost nothing (gated like every other throughput).
        GateSpec("events_off_uops_per_sec"),
        # Events-on cost, as a same-machine wall ratio: recording every
        # pipeline event may cost at most 2x.
        GateSpec("overhead_ratio", direction=LOWER, normalize=False, ceiling=2.0),
    ),
    "warming": (
        # Reference-loop-vs-kernel wall ratio on the warming span: a
        # regression here means the numpy kernels lost their reason to
        # exist, whatever the machine.
        GateSpec("speedup", normalize=False),
        # The equality that makes the speedup admissible: every cell's
        # kernel checkpoint digest must equal the reference one.
        # Ceiling 0 — a mismatch can never be ratified by committing it.
        GateSpec("digest_mismatches", direction=LOWER, normalize=False, ceiling=0.0),
    ),
}

#: Benchmark -> primary gated metric (back-compat view of
#: :data:`GATE_SPECS`; the CLI's headline-number lookup).
GATED_METRICS: Dict[str, str] = {name: specs[0].metric for name, specs in GATE_SPECS.items()}

#: Metrics that are machine-neutral ratios (see module docstring) —
#: derived from :data:`GATE_SPECS`, kept as a set for introspection.
RATIO_METRICS = frozenset(
    spec.metric for specs in GATE_SPECS.values() for spec in specs if not spec.normalize
)


@dataclass(frozen=True)
class GateFailure:
    """One gated metric that moved past its limit in the bad direction."""

    benchmark: str
    metric: str
    baseline: float  # normalized baseline value
    current: float  # normalized current value
    ratio: float  # goodness ratio (1.0 = exactly baseline)
    limit: float  # minimum acceptable goodness ratio
    absolute: bool = False  # tripped the absolute ceiling, not the ratio

    def __str__(self) -> str:
        if self.absolute:
            return (
                f"{self.benchmark}: {self.metric} at {self.current:.4f} "
                f"exceeds the absolute ceiling {self.limit:.4f}"
            )
        return (
            f"{self.benchmark}: {self.metric} at {self.ratio:.2f}x of "
            f"baseline (limit {self.limit:.2f}x) — "
            f"normalized {self.current:.4g} vs {self.baseline:.4g}"
        )


def _normalized(result: BenchResult, spec: GateSpec) -> float:
    value = result.metrics.get(spec.metric, 0.0)
    if not spec.normalize:
        return value
    calibration = result.calibration_ops_per_sec
    return value / calibration if calibration > 0 else value


def _check_metric(
    current: BenchResult, baseline: BenchResult, spec: GateSpec, max_regression: float
) -> List[GateFailure]:
    cur_value = _normalized(current, spec)
    failures: List[GateFailure] = []
    if spec.ceiling is not None and cur_value > spec.ceiling:
        failures.append(
            GateFailure(
                benchmark=current.name,
                metric=spec.metric,
                baseline=_normalized(baseline, spec),
                current=cur_value,
                ratio=0.0,
                limit=spec.ceiling,
                absolute=True,
            )
        )
    base_value = _normalized(baseline, spec)
    if base_value <= 0.0:
        return failures  # no baseline to gate the ratio against
    # Goodness ratio: > 1 improved, < 1 regressed — whichever way the
    # metric points.
    if spec.direction == LOWER:
        ratio = base_value / cur_value if cur_value > 0 else float("inf")
    else:
        ratio = cur_value / base_value
    limit = 1.0 - max_regression
    if ratio < limit:
        failures.append(
            GateFailure(
                benchmark=current.name,
                metric=spec.metric,
                baseline=base_value,
                current=cur_value,
                ratio=ratio,
                limit=limit,
            )
        )
    return failures


def check_regression(
    current: BenchResult, baseline: BenchResult, max_regression: float = 0.2
) -> List[GateFailure]:
    """Empty list when every gated metric of ``current`` is within
    ``max_regression`` of ``baseline`` (and under its absolute ceiling,
    where one is declared)."""
    if current.name != baseline.name:
        raise ValueError(
            f"comparing benchmark {current.name!r} against baseline for "
            f"{baseline.name!r}")
    if current.quick != baseline.quick:
        raise ValueError(
            f"benchmark {current.name!r}: quick={current.quick} run cannot "
            f"be gated against a quick={baseline.quick} baseline (volumes "
            f"differ)")
    specs = GATE_SPECS.get(current.name, (GateSpec("uops_per_sec"),))
    failures: List[GateFailure] = []
    for spec in specs:
        failures.extend(_check_metric(current, baseline, spec, max_regression))
    return failures


# ---------------------------------------------------------------------------
# Baseline files: {"schema": 1, "results": {name: BenchResult dict}}


def write_baseline(results: Dict[str, BenchResult], path) -> Path:
    path = Path(path)
    payload = {
        "schema": BENCH_SCHEMA,
        "results": {name: result.to_dict() for name, result in results.items()},
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def read_baseline(path) -> Dict[str, BenchResult]:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except ValueError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict) or not isinstance(data.get("results"), dict):
        raise ValueError(f"{path}: not a baseline file " f"(expected an object with 'results')")
    if data.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"{path}: baseline schema {data.get('schema')} (this build " f"reads {BENCH_SCHEMA})"
        )
    return {name: BenchResult.from_dict(entry) for name, entry in data["results"].items()}
