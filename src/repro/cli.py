"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run WORKLOAD CONFIG`` — simulate one (workload, configuration) pair
  (any registry workload, recorded ``.trc`` traces included) and print
  the statistics; ``--sample`` switches to SMARTS-style interval
  sampling (mean IPC ± 95% CI), ``--from-checkpoint`` resumes from saved
  warm state, ``--events FILE`` records the cell's per-µop pipeline
  event trace (JSONL, gzip'd with a ``.gz`` suffix);
* ``table1`` — render the machine configuration (paper Table 1);
* ``table2`` — run Baseline_0 over the selected workloads (paper Table 2);
* ``figure {3,4,5,7,8,delay}`` — regenerate one evaluation figure (or
  the Section 5.3 delay sweep), summary rows beside the paper's values;
* ``sweep FILE`` — execute a declarative sweep file (TOML/JSON, see
  ``examples/sweeps/``) through the parallel experiment engine; a
  ``[sampling]`` table in the file runs every cell sampled;
* ``trace record WORKLOAD`` / ``trace info FILE`` — capture a µop
  stream (suite workload or RV32I program) to the binary trace format,
  inspect a recording;
* ``checkpoint create WORKLOAD CONFIG`` / ``checkpoint info FILE`` —
  freeze a mid-run simulator's complete state to a versioned ``.ckpt``
  file, or inspect one (``--verify`` re-checks the content digest, then
  decodes the state); ``run --from-checkpoint`` restores a purely
  functional checkpoint under any configuration that shares its memory
  and branch setup (see :mod:`repro.checkpoint.rebase`);
* ``events info FILE`` / ``events dump FILE`` / ``events export FILE``
  — inspect an event trace written by ``run --events``, print raw
  events, or export it to the gem5/Konata O3PipeView format (see
  ``docs/OBSERVABILITY.md``);
* ``report manifests`` — roll up the engine's per-cell run manifests
  (wall time, cache hit rate, peak RSS) from the cache directory
  (``--cache-dir`` selects it; the command runs no cell, so it takes no
  ``--jobs``);
* ``rv32i run PROGRAM`` — execute a real RV32I program image
  functionally to halt and print its end-state registers and memory
  digest (see ``docs/RV32I.md``);
* ``list`` — available workloads (suite, rv32i programs, traces) and
  presets.

Workload arguments resolve through the workload registry
(:mod:`repro.traces.registry`): suite names, RV32I program names/images
and recorded-trace names/files are all accepted. Workload selection and
simulation volume follow the ``REPRO_*`` environment variables (see
:mod:`repro.experiments.runner`), ``repro run`` included; the
``--jobs`` / ``--cache-dir`` flags on ``run --sample``, ``figure``,
``table2`` and ``sweep`` override ``REPRO_JOBS`` / ``REPRO_CACHE_DIR``
for one invocation.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path
from typing import List, Optional

from repro.core.presets import PRESET_NAMES
from repro.experiments import figures
from repro.experiments.engine import EngineOptions, Sweep
from repro.experiments.report import (
    breakdown_table,
    performance_table,
    sampling_table,
    summary_line,
)
from repro.experiments.runner import Settings, run_sweep
from repro.experiments.tables import render_table1, render_table2
from repro.pipeline.sim import run_workload, workload_seed
from repro.traces import capture, default_registry, read_info, verify
from repro.traces.registry import TraceWorkload

def _positive_int(text: str) -> int:
    """argparse ``type=`` for µop counts: a positive integer or exit 2."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cost-effective speculative scheduling (ISCA 2015) "
                    "reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate one workload/config pair")
    run_p.add_argument("workload",
                       help="registry name or file: suite workload, "
                            "RV32I program (.hex/.bin) or trace (.trc)")
    run_p.add_argument("config", help="e.g. SpecSched_4_Crit")
    run_p.add_argument("--dual-ported", action="store_true",
                       help="ideal dual-ported L1D instead of banked")
    run_p.add_argument("--measure", type=_positive_int, default=None,
                       help="measured µops (default: REPRO_MEASURE)")
    run_p.add_argument("--from-checkpoint", default=None, metavar="FILE",
                       help="resume from a saved .ckpt instead of "
                            "starting cold: a functional one under any "
                            "config sharing its memory and branch setup, "
                            "a detailed one under its own config only "
                            "(see 'repro checkpoint')")
    run_p.add_argument("--sample", action="store_true",
                       help="SMARTS-style interval sampling instead of "
                            "one contiguous measured region")
    run_p.add_argument("--intervals", type=int, default=None, metavar="K",
                       help="sampling: number of measurement intervals")
    run_p.add_argument("--interval-uops", type=int, default=None,
                       metavar="N", help="sampling: measured µops per "
                                         "interval")
    run_p.add_argument("--sample-warmup", type=int, default=None,
                       metavar="N", help="sampling: detailed warmup µops "
                                         "before each interval")
    run_p.add_argument("--period", type=int, default=None, metavar="N",
                       help="sampling: interval-start-to-start distance "
                            "in µops")
    run_p.add_argument("--offset", type=int, default=None, metavar="N",
                       help="sampling: functional warming µops before "
                            "the first interval")
    run_p.add_argument("--metrics", action="store_true",
                       help="attach the telemetry probes (occupancy "
                            "histograms, replay/filter aggregates) and "
                            "print the metrics report after the run")
    run_p.add_argument("--events", default=None, metavar="FILE",
                       help="record the cell's per-µop pipeline events "
                            "to a JSONL trace; a .gz suffix gzip-"
                            "compresses")
    _add_engine_flags(run_p)

    sub.add_parser("table1", help="render the machine configuration")
    table2_p = sub.add_parser("table2", help="Baseline_0 IPC per workload")
    _add_engine_flags(table2_p)

    fig_p = sub.add_parser("figure", help="regenerate an evaluation figure")
    fig_p.add_argument("number", choices=sorted(figures.FIGURES),
                       help="paper figure number to regenerate ('delay': "
                            "the Section 5.3 delay sweep)")
    _add_engine_flags(fig_p)

    sweep_p = sub.add_parser(
        "sweep", help="execute a declarative sweep file (TOML or JSON)")
    sweep_p.add_argument("file", help="sweep description, e.g. "
                                      "examples/sweeps/shifting.toml")
    sweep_p.add_argument("--progress", action="store_true",
                         help="print one line per simulated cell as "
                              "results land (completion order)")
    _add_engine_flags(sweep_p)

    trace_p = sub.add_parser(
        "trace", help="record and inspect binary µop traces (simulate "
                      "one with 'repro run FILE.trc')")
    trace_sub = trace_p.add_subparsers(dest="trace_command", required=True)

    record_p = trace_sub.add_parser(
        "record", help="capture a workload's µop stream to disk")
    record_p.add_argument("workload",
                          help="registry name (suite workload or RV32I "
                               "program)")
    record_p.add_argument("-o", "--output", default=None, metavar="FILE",
                          help="output path (default <workload>.trc)")
    record_p.add_argument("--uops", type=_positive_int,
                          default=None, metavar="N",
                          help="µops to capture (default: enough for the "
                               "current REPRO_* volumes)")
    record_p.add_argument("--seed", type=int, default=None,
                          help="generator seed (default: the workload's; "
                               "for an RV32I program it moves only the "
                               "wrong path)")

    info_p = trace_sub.add_parser("info", help="describe a trace file")
    info_p.add_argument("file", help="a .trc recording")
    info_p.add_argument("--verify", action="store_true",
                        help="re-scan the payload against the digest")


    ckpt_p = sub.add_parser(
        "checkpoint", help="create and inspect simulator checkpoints")
    ckpt_sub = ckpt_p.add_subparsers(dest="checkpoint_command",
                                     required=True)

    ckpt_create = ckpt_sub.add_parser(
        "create", help="run a workload to a point and freeze the "
                       "complete machine state to a .ckpt file")
    ckpt_create.add_argument("workload", help="registry name or file")
    ckpt_create.add_argument("config", help="e.g. SpecSched_4_Crit")
    ckpt_create.add_argument("-o", "--output", default=None, metavar="FILE",
                             help="output path (default "
                                  "<workload>-<config>.ckpt)")
    ckpt_create.add_argument("--uops", type=_positive_int,
                             default=60_000, metavar="N",
                             help="µops to advance before saving "
                                  "(default 60000)")
    ckpt_create.add_argument("--mode", choices=("functional", "detailed"),
                             default="functional",
                             help="functional: fast-forward (caches + "
                                  "branch predictors warmed, default); "
                                  "detailed: REPRO_FUNC_WARMUP functional "
                                  "warmup, then full pipeline simulation")
    ckpt_create.add_argument("--seed", type=int, default=None,
                             help="trace seed (default: the workload's)")
    ckpt_create.add_argument("--dual-ported", action="store_true",
                             help="ideal dual-ported L1D instead of banked")

    ckpt_info = ckpt_sub.add_parser("info", help="describe a checkpoint")
    ckpt_info.add_argument("file", help="a .ckpt file")
    ckpt_info.add_argument("--verify", action="store_true",
                           help="check the payload against the digest, "
                                "then decode the state")

    events_p = sub.add_parser(
        "events", help="inspect and export per-µop pipeline event traces "
                       "(record one with 'repro run --events FILE')")
    events_sub = events_p.add_subparsers(dest="events_command",
                                         required=True)

    ev_info = events_sub.add_parser("info", help="describe an event trace")
    ev_info.add_argument("file", help="a .events.jsonl[.gz] trace")

    ev_dump = events_sub.add_parser(
        "dump", help="print events as one line of text each")
    ev_dump.add_argument("file", help="a .events.jsonl[.gz] trace")
    ev_dump.add_argument("--limit", type=int, default=None, metavar="N",
                         help="stop after N events (default: all)")
    ev_dump.add_argument("--kind", default=None, metavar="KIND",
                         help="only events of this kind (e.g. replay)")

    ev_export = events_sub.add_parser(
        "export", help="convert an event trace to the O3PipeView format")
    ev_export.add_argument("file", help="a .events.jsonl[.gz] trace")
    ev_export.add_argument("-o", "--output", default=None, metavar="FILE",
                           help="output path (default: trace name with "
                                ".o3pipeview.txt)")

    report_p = sub.add_parser(
        "report", help="roll up engine run telemetry")
    report_sub = report_p.add_subparsers(dest="report_command",
                                         required=True)
    report_manifests = report_sub.add_parser(
        "manifests", help="summarize the per-cell run manifests next to "
                          "the result cache")
    report_manifests.add_argument("--json", action="store_true",
                                  help="print the rollup as JSON")
    _add_cache_dir_flag(report_manifests)

    rv32i_p = sub.add_parser(
        "rv32i", help="run real RV32I program images (record one with "
                      "'repro trace record')")
    rv32i_sub = rv32i_p.add_subparsers(dest="rv32i_command", required=True)

    rv_run = rv32i_sub.add_parser(
        "run", help="execute a program functionally to halt and print "
                    "its architectural end state")
    rv_run.add_argument("program",
                        help="bundled kernel name (see 'repro list') or "
                             "an image path (.hex/.bin)")
    rv_run.add_argument("--max-steps", type=int, default=1_000_000,
                        metavar="N",
                        help="step cap for runaway programs "
                             "(default 1000000)")
    rv_run.add_argument("--regs", action="store_true",
                        help="print the full register file, not just the "
                             "non-zero entries")

    sub.add_parser("list", help="available workloads and presets")
    return parser


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes (overrides REPRO_JOBS)")
    _add_cache_dir_flag(parser)


def _add_cache_dir_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="persistent result cache directory; 'off' "
                             "disables (overrides REPRO_CACHE_DIR)")


def _engine_options(args: argparse.Namespace) -> EngineOptions:
    """Environment defaults with the command-line flags layered on top.

    Built per invocation (never written back to ``os.environ``) so
    embedding ``main()`` in a test or notebook leaks no state."""
    import dataclasses

    options = EngineOptions.from_env()
    if getattr(args, "jobs", None) is not None:
        options = dataclasses.replace(options, jobs=max(1, args.jobs))
    if getattr(args, "cache_dir", None) is not None:
        options = dataclasses.replace(options, cache_dir=args.cache_dir)
    return options


def _print_run(result) -> None:
    stats = result.stats
    print(f"{result.workload} under {result.config_name}:")
    for key in ("cycles", "committed_uops", "issued_total", "unique_issued",
                "replayed_miss", "replayed_bank", "squash_events_miss",
                "squash_events_bank", "l1d_accesses", "l1d_misses",
                "l1d_bank_conflicts", "branches", "branch_mispredicts",
                "issue_cycles_lost"):
        print(f"  {key:22s} {getattr(stats, key)}")
    print(f"  {'IPC':22s} {stats.ipc:.3f}")
    print(f"  {'L1D miss rate':22s} {stats.l1d_miss_rate:.1%}")


def _fail(exc: BaseException) -> int:
    """Uniform clean-error exit for expected bad inputs (unknown names,
    malformed trace/program files, undersized traces)."""
    if isinstance(exc, OSError):
        # args[0] is the bare errno for OSErrors; str() keeps the path.
        message = str(exc)
    else:
        message = exc.args[0] if exc.args else exc
    print(f"error: {message}", file=sys.stderr)
    return 2


def _sampling_spec(args: argparse.Namespace):
    """Spec from the ``run --sample`` flags (defaults from the spec)."""
    from repro.checkpoint.sampling import SamplingSpec

    overrides = {}
    for field_name, arg_name in (("intervals", "intervals"),
                                 ("interval_uops", "interval_uops"),
                                 ("warmup_uops", "sample_warmup"),
                                 ("period_uops", "period"),
                                 ("offset_uops", "offset")):
        value = getattr(args, arg_name, None)
        if value is not None:
            overrides[field_name] = value
    return SamplingSpec(**overrides).validate()


def _print_sampled(result, spec) -> None:
    print(f"{result.workload} under {result.config_name} (sampled: "
          f"{len(result.intervals)} x {spec.interval_uops} µops, "
          f"period {spec.period_uops}, offset {spec.offset_uops}):")
    ipcs = " ".join(f"{stats.ipc:.3f}" for stats in result.intervals)
    print(f"  interval IPCs          {ipcs}")
    print(f"  {'IPC':22s} {result.ipc:.3f} ±{result.ipc_ci95:.3f} "
          f"(95% CI)")
    total = result.stats
    issued = total.issued_total or 1
    print(f"  {'issued breakdown':22s} "
          f"unique {total.unique_issued / issued:.3f}, "
          f"rpld_miss {total.replayed_miss / issued:.3f}, "
          f"rpld_bank {total.replayed_bank / issued:.3f}")
    print(f"  {'detailed µops':22s} {total.committed_uops} "
          f"(of a {spec.span_uops}-µop span)")


#: ``run`` flags that only shape sampled cells.
_SAMPLE_FLAGS = (("--intervals", "intervals"),
                 ("--interval-uops", "interval_uops"),
                 ("--sample-warmup", "sample_warmup"),
                 ("--period", "period"),
                 ("--offset", "offset"),
                 ("--jobs", "jobs"),
                 ("--cache-dir", "cache_dir"))


def _cmd_run(args: argparse.Namespace) -> int:
    if args.sample:
        given = [flag for flag, is_set in
                 (("--measure", args.measure is not None),
                  ("--metrics", args.metrics),
                  ("--events", args.events is not None)) if is_set]
        if given:
            return _fail(ValueError(
                f"{', '.join(given)} cannot be combined with --sample: "
                f"sampled cells run at the spec's volumes, "
                f"uninstrumented"))
    else:
        given = [flag for flag, arg_name in _SAMPLE_FLAGS
                 if getattr(args, arg_name) is not None]
        if given:
            return _fail(ValueError(
                f"{', '.join(given)} only take effect with --sample"))
    collector = writer = None
    if args.metrics or args.events is not None:
        from repro.telemetry import MetricsCollector

        collector = MetricsCollector()
    try:
        # The REPRO_* volumes, the same ones `trace record` sizes a
        # recording for; --measure overrides the measured count.
        settings = Settings.from_env()
        volumes = {"warmup_uops": settings.warmup_uops,
                   "measure_uops": args.measure or settings.measure_uops,
                   "functional_warmup_uops":
                       settings.functional_warmup_uops}
        sampling = _sampling_spec(args) if args.sample else None
        workload = default_registry().resolve(args.workload)
        with contextlib.ExitStack() as stack:
            if args.events is not None:
                from repro.telemetry import JsonlEventWriter

                provenance = {"workload": workload.name,
                              "config": args.config,
                              "seed": workload_seed(workload), **volumes}
                if args.from_checkpoint is not None:
                    provenance["checkpoint"] = args.from_checkpoint
                writer = collector.bus.attach(stack.enter_context(
                    JsonlEventWriter(args.events, provenance=provenance)))
            result = run_workload(
                workload, args.config, banked=not args.dual_ported,
                checkpoint=args.from_checkpoint, collector=collector,
                sampling=sampling,
                options=_engine_options(args) if sampling else None,
                **volumes)
    except (KeyError, OSError, ValueError) as exc:
        return _fail(exc)
    if sampling is not None:
        _print_sampled(result, sampling)
        return 0
    _print_run(result)
    if args.metrics:
        from repro.telemetry import render_metrics

        print()
        print(render_metrics(result.stats.telemetry))
    if writer is not None:
        print(f"\nrecorded {writer.count} events -> {args.events}")
    return 0


def _cmd_checkpoint_create(args: argparse.Namespace) -> int:
    from repro.checkpoint.format import save_checkpoint
    from repro.pipeline.cpu import Simulator

    try:
        workload = default_registry().resolve(args.workload)
        from repro.core.presets import make_config

        config = make_config(args.config, banked=not args.dual_ported)
        seed = workload_seed(workload, args.seed)
        sim = Simulator(config, workload.build_trace(seed))
        if args.mode == "functional":
            consumed = sim.fast_forward(args.uops)
            provenance = {"mode": "functional", "stream_uops": consumed}
        else:
            functional = Settings.from_env().functional_warmup_uops
            if functional:
                sim.functional_warmup(workload.build_trace(seed), functional)
            sim.run(max_uops=args.uops)
            # The stream position is the trace cursor, which runs
            # ahead of commit by the µops in flight.
            provenance = {"mode": "detailed",
                          "functional_warmup_uops": functional,
                          "stream_uops": sim.trace.emitted}
        porting = "-dual-ported" if args.dual_ported else ""
        output = (args.output
                  or f"{workload.name}-{args.config}{porting}.ckpt")
        info = save_checkpoint(sim, output, workload=workload, seed=seed,
                               provenance=provenance)
    except (KeyError, OSError, ValueError) as exc:
        return _fail(exc)
    print(f"checkpointed {workload.name!r} under {args.config} at "
          f"{provenance['stream_uops']} stream µops -> {output}")
    print(f"  digest     {info.digest}")
    print(f"  size       {info.file_bytes} bytes "
          f"(raw state {info.raw_bytes})")
    print(f"  committed  {info.uops_committed} µops, {info.cycles} cycles")
    return 0


def _cmd_checkpoint_info(args: argparse.Namespace) -> int:
    from repro.checkpoint.format import PayloadError, load_checkpoint, read_info

    try:
        info = read_info(args.file)
    except (OSError, ValueError) as exc:
        return _fail(exc)
    print(f"{args.file}:")
    print(f"  format     v{info.version} (zlib payload)")
    print(f"  workload   {info.workload_name}")
    print(f"  config     {info.config_name}")
    print(f"  l1d        {info.l1d}")
    print(f"  seed       {info.seed}")
    print(f"  committed  {info.uops_committed} µops, {info.cycles} cycles")
    print(f"  digest     {info.digest}")
    print(f"  size       {info.file_bytes} bytes "
          f"(raw state {info.raw_bytes})")
    for key in sorted(info.provenance):
        print(f"  {key:10s} {info.provenance[key]}")
    if args.verify:
        try:
            load_checkpoint(args.file)
        except PayloadError as exc:
            print("  payload    digest OK")
            print(f"  state      REFUSED ({exc})")
            return 1
        except (OSError, ValueError) as exc:
            print(f"  payload    DIGEST MISMATCH ({exc})")
            return 1
        print("  payload    digest OK")
        print("  state      decoded OK")
    return 0


def default_capture_uops(settings: Optional[Settings] = None) -> int:
    """Enough µops that replay never starves at the current volumes.

    The recording must cover the functional-warmup stream *and* the timed
    stream (warmup + measure, plus a margin for the µops still in flight
    when the measured budget is reached). Fetch is not bounded: on a
    flooding workload it runs far past this margin, and a recording that
    ends inside the flood still replays the live counters, because µops
    Rename never takes change nothing (libquantum at the default volumes
    replays its live counters from a 60,000-µop recording).
    """
    settings = settings or Settings.from_env()
    in_flight_margin = 8_192
    return max(settings.functional_warmup_uops,
               settings.warmup_uops + settings.measure_uops
               + in_flight_margin)


def _cmd_trace_record(args: argparse.Namespace) -> int:
    from repro.isa.rv32i.workload import Rv32iWorkload

    try:
        workload = default_registry().resolve(args.workload)
        if isinstance(workload, TraceWorkload):
            raise ValueError(
                "refusing to re-record an existing trace; record from a "
                "suite workload or RV32I program")
        seed = workload_seed(workload, args.seed)
        uops = args.uops if args.uops is not None else default_capture_uops()
        output = args.output or f"{workload.name}.trc"
        provenance = {
            "workload": workload.name,
            "description": workload.description,
            "is_fp": workload.is_fp,
            "seed": seed,
            "source_hash": workload.content_hash(),
        }
        if isinstance(workload, Rv32iWorkload):
            provenance["image_sha"] = workload.digest
        info = capture(workload.build_trace(seed), output, uops,
                       wp_seed=seed, provenance=provenance)
    except (KeyError, OSError, ValueError) as exc:
        return _fail(exc)
    ratio = info.raw_bytes / info.file_bytes if info.file_bytes else 0.0
    print(f"recorded {info.uop_count} µops of {workload.name!r} -> {output}")
    print(f"  digest     {info.digest}")
    print(f"  size       {info.file_bytes} bytes "
          f"({ratio:.1f}x vs raw records)")
    return 0


def _cmd_trace_info(args: argparse.Namespace) -> int:
    try:
        info = read_info(args.file)
    except (OSError, ValueError) as exc:
        return _fail(exc)
    print(f"{args.file}:")
    print(f"  format     v{info.version} (zlib frames)")
    print(f"  µops       {info.uop_count}")
    print(f"  digest     {info.digest}")
    print(f"  wp_seed    {info.wp_seed}")
    print(f"  size       {info.file_bytes} bytes "
          f"(raw records {info.raw_bytes})")
    for key in sorted(info.provenance):
        print(f"  {key:10s} {info.provenance[key]}")
    if args.verify:
        ok = verify(args.file)
        print(f"  payload    {'digest OK' if ok else 'DIGEST MISMATCH'}")
        return 0 if ok else 1
    return 0


def _cmd_events_info(args: argparse.Namespace) -> int:
    from repro.telemetry import count_events
    from repro.telemetry.events import EventsFormatError

    try:
        header, counts = count_events(args.file)
    except (OSError, EventsFormatError) as exc:
        return _fail(exc)
    print(f"{args.file}:")
    print(f"  format     {header['format']} v{header['version']}")
    print(f"  fields     {', '.join(header['fields'])}")
    for key in sorted(header.get("provenance", {})):
        print(f"  {key:10s} {header['provenance'][key]}")
    total = sum(counts.values())
    print(f"  events     {total}")
    for kind in sorted(counts):
        print(f"    {kind:14s} {counts[kind]}")
    return 0


def _cmd_events_dump(args: argparse.Namespace) -> int:
    from repro.telemetry import open_events
    from repro.telemetry.events import EventsFormatError

    try:
        _, events = open_events(args.file)
        printed = 0
        for cycle, kind, seq, pc, a, b in events:
            if args.kind is not None and kind != args.kind:
                continue
            print(f"{cycle:>10} {kind:<12} seq={seq} pc=0x{pc:x} "
                  f"a={a} b={b}")
            printed += 1
            if args.limit is not None and printed >= args.limit:
                break
    except (OSError, EventsFormatError) as exc:
        return _fail(exc)
    return 0


def _o3pipeview_default(events_path) -> str:
    """``<trace-stem>.o3pipeview.txt`` next to the event trace."""
    name = Path(events_path).name
    for suffix in (".events.jsonl.gz", ".events.jsonl", ".jsonl.gz",
                   ".jsonl"):
        if name.endswith(suffix):
            name = name[:-len(suffix)]
            break
    return str(Path(events_path).with_name(f"{name}.o3pipeview.txt"))


def _cmd_events_export(args: argparse.Namespace) -> int:
    from repro.telemetry import export_o3pipeview
    from repro.telemetry.events import EventsFormatError

    output = args.output or _o3pipeview_default(args.file)
    try:
        _, count = export_o3pipeview(args.file, output)
    except (OSError, EventsFormatError) as exc:
        return _fail(exc)
    print(f"exported {count} µop records -> {output}")
    return 0


def _cmd_report_manifests(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.telemetry import manifests_dir, read_manifests, \
        render_rollup, rollup

    try:
        directory = manifests_dir(_engine_options(args).cache_path())
    except ValueError as exc:
        return _fail(exc)
    if directory is None:
        return _fail(ValueError(
            "the persistent result cache is disabled (REPRO_CACHE_DIR=off) "
            "— no manifests to report"))
    manifests = read_manifests(directory)
    if not manifests:
        print(f"no manifests under {directory} (run a sweep first)")
        return 0
    summary = rollup(manifests)
    if args.json:
        print(json_module.dumps(summary, indent=1, sort_keys=True))
    else:
        print(f"manifests under {directory}:")
        print(render_rollup(summary))
    return 0


def _cmd_figure(number: str, settings: Settings,
                options: EngineOptions) -> int:
    result = figures.run_figure(number, settings, options)
    print(performance_table(result))
    for summary in figures.FIGURES[number].summaries:
        print()
        print(breakdown_table(result, summary.label))
        if summary.reference:
            print(summary_line(result, summary.label, summary.reference,
                               summary.paper))
    return 0


def _cmd_sweep(path: str, settings: Settings, options: EngineOptions,
               show_progress: bool = False) -> int:
    from repro.experiments.runner import shared_cache

    sweep = Sweep.from_file(path)
    cache = shared_cache(options)
    progress = None
    if show_progress:
        walls: List[float] = []

        def progress(done: int, total: int, manifest: dict) -> None:
            walls.append(float(manifest["wall_seconds"]))
            eta = ""
            remaining = total - done
            if remaining > 0 and walls:
                per_cell = sum(walls) / len(walls)
                eta_seconds = per_cell * remaining / max(1, options.jobs)
                eta = f"  eta {eta_seconds:5.1f}s"
            if "produce_position" in manifest:
                what = (f"ckpt {manifest['workload']} "
                        f"@{manifest['produce_position']}")
            else:
                what = f"{manifest['config']} x {manifest['workload']}"
            print(f"[{done}/{total}] {what}  "
                  f"{manifest['wall_seconds']:.2f}s{eta}", file=sys.stderr)
    result = run_sweep(sweep, settings=settings, options=options,
                       cache=cache, progress=progress)
    print(performance_table(result))
    if result.ipc_ci:
        print()
        print(sampling_table(result))
    for series in sweep.series:
        if series.label == sweep.baseline:
            continue
        print()
        print(summary_line(result, series.label, sweep.baseline))
    hits = cache.memory_hits + cache.disk_hits
    print(f"\ncells: {cache.stores} computed, {hits} cached "
          f"({cache.stores + hits} total)")
    return 0


def _resolve_rv32i(name: str):
    """A program argument -> :class:`Rv32iWorkload` (clean errors)."""
    from repro.isa.rv32i.workload import Rv32iWorkload

    workload = default_registry().resolve(name)
    if not isinstance(workload, Rv32iWorkload):
        raise ValueError(
            f"{name!r} resolves to a {type(workload).__name__}, not an "
            f"RV32I program; pass a bundled kernel name or a .hex/.bin "
            f"image path")
    return workload


_ABI_NAMES = (
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2",
    "s0", "s1", "a0", "a1", "a2", "a3", "a4", "a5",
    "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7",
    "s8", "s9", "s10", "s11", "t3", "t4", "t5", "t6",
)


def _cmd_rv32i_run(args: argparse.Namespace) -> int:
    try:
        workload = _resolve_rv32i(args.program)
    except (KeyError, OSError, ValueError) as exc:
        return _fail(exc)
    machine = workload.program.machine()
    try:
        retired = machine.run(max_steps=args.max_steps)
    except ValueError as exc:     # an undecodable instruction word
        return _fail(exc)
    print(f"{workload.name}: {retired} instructions retired, "
          f"halt={machine.halt_reason or 'step cap reached'} "
          f"at pc=0x{machine.pc:x}")
    print(f"  image      {len(workload.program.words)} words "
          f"(sha256 {workload.digest[:12]}…)")
    print(f"  mem digest {machine.memory_digest()}")
    print(f"  mem bytes  {sum(1 for b in machine.mem.values() if b)} "
          f"non-zero")
    for index in range(32):
        value = machine.regs[index]
        if args.regs or value:
            print(f"  x{index:<2d} ({_ABI_NAMES[index]:>4s}) "
                  f"0x{value:08x}  {value}")
    return 0 if machine.halted else 1


def _cmd_list() -> int:
    registry = default_registry()
    kinds = registry.names()
    print("workloads (suite + rv32i programs + recorded traces and "
          "images on the registry search path):")
    for name, workload in registry.entries():
        kind = kinds.get(name, "suite")
        klass = "FP " if workload.is_fp else "INT"
        print(f"  {name:16s} [{klass}] ({kind}) {workload.description}")
    print("\nconfiguration presets (grammar: see repro.core.presets):")
    for name in PRESET_NAMES:
        print(f"  {name}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "table1":
        print(render_table1())
        return 0
    if args.command in ("table2", "figure", "sweep"):
        try:
            options = _engine_options(args)
            settings = Settings.from_env()
            if args.command == "table2":
                print(render_table2(settings, options=options))
                return 0
            if args.command == "figure":
                return _cmd_figure(args.number, settings, options)
            return _cmd_sweep(args.file, settings, options,
                              show_progress=args.progress)
        except (KeyError, OSError, ValueError) as exc:
            return _fail(exc)
    if args.command == "trace":
        if args.trace_command == "record":
            return _cmd_trace_record(args)
        if args.trace_command == "info":
            return _cmd_trace_info(args)
    if args.command == "checkpoint":
        if args.checkpoint_command == "create":
            return _cmd_checkpoint_create(args)
        if args.checkpoint_command == "info":
            return _cmd_checkpoint_info(args)
    if args.command == "events":
        if args.events_command == "info":
            return _cmd_events_info(args)
        if args.events_command == "dump":
            return _cmd_events_dump(args)
        if args.events_command == "export":
            return _cmd_events_export(args)
    if args.command == "report":
        if args.report_command == "manifests":
            return _cmd_report_manifests(args)
    if args.command == "rv32i":
        if args.rv32i_command == "run":
            return _cmd_rv32i_run(args)
    if args.command == "list":
        return _cmd_list()
    return 1


if __name__ == "__main__":      # pragma: no cover
    sys.exit(main())
