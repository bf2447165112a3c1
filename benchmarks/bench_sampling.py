"""Sampled-vs-detailed throughput benchmark.

Wraps :func:`repro.perf.bench.bench_sampling` (the body behind
``repro bench sampling`` and the committed ``BENCH_sampling.json``):
each (preset, workload) cell simulates the same stream span twice —
fully detailed, then SMARTS-sampled (functional fast-forward + short
detailed measurement intervals) — and reports the wall-clock speedup
and the sampled IPC's relative error. The checkpoint-chained cell
compilation of the same spec is timed alongside.

Quick volumes by default; set ``REPRO_BENCH_FULL=1`` for the committed
headline geometry (~320k-µop span, several minutes).
"""

from __future__ import annotations

import os

import pytest

from repro.perf.bench import bench_sampling

from benchmarks.conftest import emit


@pytest.mark.slow
def test_sampling_speedup(benchmark):
    quick = os.environ.get("REPRO_BENCH_FULL", "") != "1"
    result = benchmark.pedantic(
        lambda: bench_sampling(quick=quick), iterations=1, rounds=1)
    m = result.metrics
    emit(
        "Sampling — SMARTS intervals vs full detailed simulation",
        f"{'cells':28s} {m['cells']:8.0f}  "
        f"(span {m['span_uops']:,.0f} µops each)",
        f"{'detailed wall':28s} {m['detailed_wall_seconds']:8.2f} s",
        f"{'sampled wall':28s} {m['sampled_wall_seconds']:8.2f} s",
        f"{'speedup':28s} {m['speedup']:8.2f} x",
        f"{'chained cells wall':28s} {m['cells_chained_wall_seconds']:8.2f} s",
        f"{'mean IPC rel. error':28s} {m['mean_ipc_rel_err']:8.2%}",
        f"{'max IPC rel. error':28s} {m['max_ipc_rel_err']:8.2%}",
    )
    # Sampling that is slower than detailed simulation, or that misses
    # the detailed IPC badly, has lost its reason to exist.
    assert m["speedup"] > 1.0
    assert m["mean_ipc_rel_err"] < 0.05
    # Chained cells warm linearly: their pass must stay cheaper than
    # simulating the whole span in detail.
    assert 0.0 < m["cells_chained_wall_seconds"] < m["detailed_wall_seconds"]
