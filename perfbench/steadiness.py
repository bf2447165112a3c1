"""Steadiness report: run the benchmark repeatedly and summarize each metric.

Usage, from the repository root::

    python3 perfbench/steadiness.py --workload fig8-memory --runs 10
    python3 perfbench/steadiness.py --runs 10 --out runs.json   # all

Each run uses another seed (``--first-seed``, then the next ones). Per
end-to-end metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), the spread — the distance
between the quartiles as a share of the median — and the metric's bound
from ``BENCHMARK.json``. A spread below a third of the bound is steady;
``setup_s`` is exempt from the spread rule. ``--out`` writes the summary and
every value as JSON (``baseline.json`` is one such file).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run in its own process; its parsed result line."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values):
    """(median, first quartile, third quartile, spread)."""
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {}
    steady = True
    for workload in workloads:
        runs = []
        for offset in range(args.runs):
            result = run_once(workload, args.first_seed + offset,
                              args.seconds, args.trace)
            runs.append(result)
            print(f"{workload} seed {args.first_seed + offset}: correct="
                  f"{result['correct']} failed={result['failed']}/"
                  f"{result['attempted']}", flush=True)
        report[workload] = {
            "runs": len(runs),
            "correct": all(run["correct"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "attempted": sum(run["attempted"] for run in runs),
            "metrics": {}}
        print(f"\n{workload}: {len(runs)} runs")
        print(f"  {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name in runs[0]["metrics"]:
            values = [run["metrics"][name]["value"] for run in runs]
            median, q1, q3, spread = summarize(values)
            report[workload]["metrics"][name] = {
                "unit": runs[0]["metrics"][name]["unit"], "median": median,
                "q1": q1, "q3": q3, "spread": spread, "values": values}
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                ok = spread < bound / 3
                steady &= ok
                flag = "ok" if ok else "WIDE"
            print(f"  {name:34s} {median:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{spread:8.2%} {bound if bound is not None else '':>6} "
                  f"{flag}")
        print(flush=True)
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
