"""Layered benchmark of the simulator: end-to-end host metrics, a traced
per-layer run, and a correctness check against committed counters.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig8-compute --seed 1 \\
        --seconds 15 --trace 0
    python3 perfbench/run.py --regen-reference

One run sets up its workload several times (each set-up: a fresh
interpreter importing the package, then resolving programs, building
cells and, for ``sampled-grid``, recording traces), then repeats timed
passes over the workload's cells until ``--seconds`` have elapsed. With
``--trace 1`` it first times untraced passes for a third of the time and
then traced passes (see :mod:`layers`). The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.

Correctness: every pass must reproduce the first pass's counters; a
seed with committed counters in ``reference.json`` must reproduce them;
any other seed is followed by an untimed anchor pass at the default seed
that must. ``sampled-grid`` also requires a fully hit warm rerun and
recordings that simulate like their live generators.
``--regen-reference`` recomputes ``reference.json`` after a deliberate
model change.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
WORKDIR = ROOT / ".perfbench-work"

#: Set-ups per run; set-up time is their median.
SETUP_REPEATS = 3
#: Seeds whose counters are committed; the first is the default seed.
REFERENCE_SEEDS = (1, 7)
#: Share of a traced run's time given to its untraced passes.
UNTRACED_SHARE = 1 / 3
#: End-to-end metrics (reported with ``--trace 0``) and their units.
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_kuops_per_s": "kuops/s",
    "span_kuops_per_s": "kuops/s",
    "peak_rss_mb": "MB",
}


def _import_seconds() -> float:
    """Wall time of a fresh interpreter importing the package."""
    import grid

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = perf_counter()
    subprocess.run([sys.executable, "-c",
                    "import " + ", ".join(grid.IMPORTS)],
                   cwd=ROOT, env=env, check=True)
    return perf_counter() - start


def _setup(workload, seed: int, workdir: Path):
    """Set up ``SETUP_REPEATS`` times; returns (median seconds, cells)."""
    samples = []
    prepared = None
    for repeat in range(SETUP_REPEATS):
        imported = _import_seconds()
        target = workdir / f"setup{repeat}"
        start = perf_counter()
        prepared = workload.prepare(seed, target)
        samples.append(imported + perf_counter() - start)
        if repeat + 1 < SETUP_REPEATS:
            shutil.rmtree(target, ignore_errors=True)
    print(f"perfbench: set-ups {', '.join(f'{s:.3f}' for s in samples)} s",
          file=sys.stderr, flush=True)
    return statistics.median(samples), prepared


def _timed_passes(workload, prepared, workdir: Path, seconds: float,
                  tracer=None):
    """Repeat passes until ``seconds`` of them elapse; returns [(wall,
    result, span window)].

    Each pass writes into a fresh directory, removed after the pass and
    outside its timed region: on a disk with online discard, removing
    the files one sampled pass writes takes seconds.
    """
    passes = []
    spent = 0.0
    while not passes or spent < seconds:
        target = workdir / f"pass{len(passes)}"
        target.mkdir()
        gc.collect()
        first = len(tracer.spans) if tracer is not None else 0
        if tracer is not None:
            tracer.install()
        try:
            start = perf_counter()
            result = workload.run_pass(prepared, target)
            wall = perf_counter() - start
        finally:
            if tracer is not None:
                tracer.remove()
        shutil.rmtree(target, ignore_errors=True)
        print(f"perfbench: {'traced' if tracer else 'untraced'} pass "
              f"{len(passes)}: {wall:.3f} s", file=sys.stderr, flush=True)
        end = len(tracer.spans) if tracer is not None else 0
        passes.append((wall, result, (first, end, wall)))
        spent += wall
    return passes


def _mismatches(stats: dict, expected: dict) -> int:
    """Cells whose counters differ from ``expected`` (or are missing)."""
    return sum(1 for cell_id, counters in expected.items()
               if stats.get(cell_id) != counters)


def _load_reference() -> dict:
    try:
        return json.loads(REFERENCE.read_text())
    except (OSError, ValueError):
        return {}


def _correctness(workload, reference: dict, seed: int, prepared, results,
                 workdir: Path):
    """Check every pass; returns (attempted, failed, checked pass,
    expected reference entry).

    Passes must agree with the first pass. The first pass must match the
    committed counters of its seed; for a seed without them, an untimed
    anchor pass at the default seed must match that seed's counters.
    """
    first = results[0]
    attempted = sum(result.attempted for result in results)
    failed = sum(result.failed for result in results)
    failed += sum(_mismatches(result.stats, first.stats)
                  for result in results[1:])
    expected = reference.get(str(seed))
    checked = first
    if expected is None:
        anchor_seed = REFERENCE_SEEDS[0]
        expected = reference.get(str(anchor_seed))
        anchor = workdir / "anchor"
        checked = workload.run_pass(workload.prepare(anchor_seed, anchor),
                                    anchor)
        shutil.rmtree(anchor, ignore_errors=True)
        attempted += checked.attempted
        failed += checked.failed
    if expected is not None:
        failed += _mismatches(checked.stats, expected["stats"])
    live_attempted, live_failed = workload.live_check(prepared, first)
    return (attempted + live_attempted, failed + live_failed, checked,
            expected)


def _traced_run(workload, seed: int, prepared, workdir: Path,
                seconds: float):
    """Traced set-up, then traced passes; returns (passes, per-layer
    metrics without the model and rerun rows)."""
    import layers
    from repro.perf.instrument import PhaseProfile

    profile = PhaseProfile()
    tracer = layers.build_tracer(profile)
    target = workdir / "traced-setup"
    start = perf_counter()
    with tracer:
        workload.prepare(seed, target)
    setup_s = perf_counter() - start
    shutil.rmtree(target, ignore_errors=True)
    setup_spans = len(tracer.spans)
    tracer.counts.clear()           # per-pass counters start here
    traced = _timed_passes(workload, prepared, workdir, seconds, tracer)
    per_layer = layers.layer_metrics(
        tracer, profile, [window for _, _, window in traced])
    per_layer["traces.capture_share"] = tracer.self_times(
        0, setup_spans).get("traces.capture", 0.0) / setup_s
    return traced, per_layer


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import grid
    import layers

    workload = grid.WORKLOADS[name]
    reference = _load_reference().get(name, {})
    WORKDIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORKDIR))
    try:
        setup_s, prepared = _setup(workload, seed, workdir / "setup")
        untraced_s = seconds * UNTRACED_SHARE if trace else seconds
        passes = _timed_passes(workload, prepared, workdir, untraced_s)
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        traced = []
        if trace:
            traced, per_layer = _traced_run(workload, seed, prepared,
                                            workdir, seconds - untraced_s)
        results = [result for _, result, _ in passes + traced]
        attempted, failed, checked, expected = _correctness(
            workload, reference, seed, prepared, results, workdir)
        first = results[0]
        wall_s = statistics.median(wall for wall, _, _ in passes)
        values = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "sim_kuops_per_s": first.detailed_uops / wall_s / 1e3,
            "span_kuops_per_s": first.span_uops / wall_s / 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
        if trace:
            per_layer.update(layers.model_metrics(first.stats))
            per_layer["model.sampled_ipc_err_pct"] = (
                workload.sampled_ipc_err_pct(checked.stats, expected["ipc"])
                if expected and expected["ipc"] and not failed else 0.0)
            per_layer["engine.rerun_share"] = statistics.median(
                result.rerun_s / wall for wall, result, _ in traced)
            per_layer["engine.rerun_hit_ratio"] = (
                first.rerun_hits / first.rerun_cells
                if first.rerun_cells else 0.0)
            per_layer["trace.overhead_ratio"] = statistics.median(
                wall for wall, _, _ in traced) / wall_s
            values, units = per_layer, layers.UNITS
        return {"correct": expected is not None and failed == 0,
                "attempted": attempted, "failed": failed,
                "metrics": {name: {"value": values[name], "unit": unit}
                            for name, unit in units.items()}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def regenerate_reference() -> None:
    """Recompute and write ``reference.json``: every workload's counters
    for each reference seed, plus sampled-grid's detailed reference IPC."""
    import grid

    out = {}
    WORKDIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="regen-", dir=WORKDIR))
    try:
        for name, workload in grid.WORKLOADS.items():
            out[name] = {}
            for seed in REFERENCE_SEEDS:
                target = workdir / f"{name}-{seed}"
                result = workload.run_pass(workload.prepare(seed, target),
                                           target)
                if result.failed:
                    raise SystemExit(f"{name} seed {seed}: "
                                     f"{result.failed} cells failed")
                out[name][str(seed)] = {"stats": result.stats,
                                        "ipc": workload.detailed_ipc(seed)}
                print(f"{name} seed {seed}: {len(result.stats)} cells",
                      flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEEDS[0])
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regen-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.regen_reference:
        regenerate_reference()
        return 0
    import grid

    if args.workload not in grid.WORKLOADS:
        parser.error(f"--workload must be one of: {', '.join(grid.WORKLOADS)}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
