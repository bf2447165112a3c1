#!/usr/bin/env python3
"""The trace subsystem end to end: record once, replay many.

Walks the full capture/replay workflow against a throwaway directory:

1. resolve two workloads through the registry: a Table-2 suite entry
   and the bundled RV32I program ``ptr-chase`` from ``examples/rv32i/``;
2. record each µop stream to the binary trace format and inspect it;
3. simulate generate-live vs replay-from-file through the experiment
   engine and check the ``SimStats`` are bit-identical;
4. time raw trace-source throughput both ways (why replay exists).

Usage::

    PYTHONPATH=src python examples/trace_workflow.py

The same workflow runs from the command line::

    python -m repro trace record mcf -o mcf.trc
    python -m repro trace info mcf.trc --verify
    python -m repro run mcf.trc SpecSched_4_Crit
"""

import tempfile
import time
from pathlib import Path

from repro.common.serialize import stable_hash
from repro.experiments.engine import cell_payload, simulate_payload
from repro.isa.trace import iterate
from repro.traces import TraceWorkload, capture, default_registry

VOLUMES = dict(warmup_uops=500, measure_uops=3000,
               functional_warmup_uops=8000, seed=3)
CAPTURE_UOPS = max(VOLUMES["functional_warmup_uops"],
                   VOLUMES["warmup_uops"] + VOLUMES["measure_uops"] + 8192)


def throughput(source, uops: int) -> float:
    start = time.perf_counter()
    count = sum(1 for _ in iterate(source, uops))
    return count / (time.perf_counter() - start)


def main() -> None:
    registry = default_registry()
    workloads = [registry.resolve("mcf"), registry.resolve("ptr-chase")]

    with tempfile.TemporaryDirectory() as tmp:
        for workload in workloads:
            path = Path(tmp) / f"{workload.name}.trc"
            info = capture(workload.build_trace(VOLUMES["seed"]), path,
                           CAPTURE_UOPS, wp_seed=VOLUMES["seed"],
                           provenance={"workload": workload.name})
            print(f"{workload.name}: recorded {info.uop_count} µops, "
                  f"{info.file_bytes / 1024:.0f} KB on disk "
                  f"({info.raw_bytes / info.file_bytes:.1f}x compressed), "
                  f"digest {info.digest[:12]}…")

            recorded = TraceWorkload(path)
            live = simulate_payload(
                cell_payload("SpecSched_4", workload, **VOLUMES))
            replay = simulate_payload(
                cell_payload("SpecSched_4", recorded, **VOLUMES))
            identical = stable_hash(live) == stable_hash(replay)
            print(f"  SimStats live vs replay: "
                  f"{'bit-identical' if identical else 'DIVERGED!'} "
                  f"(ipc={live['committed_uops'] / live['cycles']:.3f})")

            live_rate = throughput(workload.build_trace(VOLUMES["seed"]),
                                   CAPTURE_UOPS)
            replay_rate = throughput(recorded.build_trace(), CAPTURE_UOPS)
            print(f"  throughput: generate {live_rate / 1e3:.0f} kµops/s, "
                  f"replay {replay_rate / 1e3:.0f} kµops/s "
                  f"(x{replay_rate / live_rate:.2f})\n")

    print("registry view (suite + bundled RV32I programs):")
    names = registry.names()
    programs = ", ".join(sorted(n for n, k in names.items() if k == "rv32i"))
    suite_count = sum(1 for k in names.values() if k == "suite")
    print(f"  {suite_count} suite workloads; rv32i programs: "
          f"{programs or '(none found)'}")


if __name__ == "__main__":
    main()
