"""Self-tests of the benchmark itself.

Run from the repository root (takes about half a minute)::

    python3 perfbench/selftest.py

They check that the emitted metric names are exactly the ones
``BENCHMARK.json`` declares, that ``--seed`` changes every workload's
µop stream, that the tracer leaves no wrapper behind, and that the
reference check fails on a tampered counter.
"""

from __future__ import annotations

import copy
import gc
import json
import re
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import grid  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

from repro.perf.instrument import PhaseProfile  # noqa: E402
from repro.traces.registry import resolve_workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
run.WORKDIR.mkdir(exist_ok=True)
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _bench(*args: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
        capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _declared(section: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


class MetricNames(unittest.TestCase):
    def test_tables_match_benchmark_json(self):
        self.assertEqual(run.END_TO_END_UNITS, _declared("end_to_end"))
        self.assertEqual(layers.UNITS, _declared("per_layer"))
        self.assertEqual(set(grid.WORKLOADS),
                         {w["name"] for w in SPEC["workloads"]})
        for name in [*run.END_TO_END_UNITS, *layers.UNITS, *grid.WORKLOADS]:
            self.assertRegex(name, NAME)
            self.assertLessEqual(len(name), 64)

    def test_emitted_names(self):
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            result = _bench("--workload", "fig8-compute", "--seed", "1",
                            "--seconds", "1", "--trace", trace)
            self.assertEqual(set(result), {"correct", "attempted", "failed",
                                           "metrics"})
            self.assertTrue(result["correct"])
            emitted = {name: metric["unit"]
                       for name, metric in result["metrics"].items()}
            self.assertEqual(emitted, _declared(section))


class SeedChangesStream(unittest.TestCase):
    def _stream(self, name: str, seed: int):
        """Correct-path µops, then wrong-path filler (a pure streaming
        program such as libquantum differs by seed only there)."""
        trace = resolve_workload(name).build_trace(seed)
        correct = [(uop.pc, uop.mem_addr, uop.taken)
                   for uop in (trace.next_uop() for _ in range(2000))]
        wrong = [(uop.opclass, tuple(uop.srcs), uop.dst)
                 for uop in (trace.wrong_path_uop(seq, 64) for seq in
                             range(200))]
        return correct, wrong

    def test_every_program(self):
        programs = set(grid.WORKLOADS["sampled-grid"].programs)
        for workload in ("fig8-compute", "fig8-memory"):
            programs |= {cell[0] for cell in grid.WORKLOADS[workload].programs}
        for name in sorted(programs):
            self.assertNotEqual(self._stream(name, 1), self._stream(name, 2),
                                name)

    def test_payloads_and_recordings(self):
        with tempfile.TemporaryDirectory(dir=run.WORKDIR) as tmp:
            fig8 = grid.WORKLOADS["fig8-compute"]
            seeds = {payload["seed"] for seed in (1, 2)
                     for _, payload in fig8.prepare(seed, Path(tmp))}
            self.assertEqual(seeds, {1, 2})
            sampled = grid.WORKLOADS["sampled-grid"]
            digests = []
            for seed in (1, 2):
                prepared = sampled.prepare(seed, Path(tmp) / str(seed))
                digests.append([resolve_workload(path).digest
                                for path in prepared["recordings"]])
            for first, second in zip(*digests):
                self.assertNotEqual(first, second)


class TracerRestores(unittest.TestCase):
    def test_no_wrapper_survives_a_traced_pass(self):
        profile = PhaseProfile()
        tracer = layers.build_tracer(profile)
        originals = [(owner, attr, vars(owner)[attr])
                     for owner, attr, *_ in tracer._targets]
        workload = grid.Fig8Cells((("gzip", 200, 800, 1_000),))
        with tempfile.TemporaryDirectory(dir=run.WORKDIR) as tmp:
            cells = workload.prepare(1, Path(tmp))
            passes = run._timed_passes(workload, cells, Path(tmp), 0.0,
                                       tracer)
        self.assertEqual(passes[0][1].failed, 0)
        names = {span[0] for span in tracer.spans}
        self.assertTrue({"engine.simulate", "detailed.run",
                         "warming.functional_warmup"} <= names)
        self.assertGreater(profile.cycles, 0)
        for owner, attr, original in originals:
            self.assertIs(vars(owner)[attr], original)
        self.assertNotIn(tracer._time_gc, gc.callbacks)


class ReferenceCheck(unittest.TestCase):
    def test_tampered_counter_fails(self):
        reference = run._load_reference()["fig8-compute"]
        expected = reference["1"]["stats"]
        passes = [grid.PassResult(stats=copy.deepcopy(expected),
                                  attempted=len(expected))]
        workload = grid.WORKLOADS["fig8-compute"]
        with tempfile.TemporaryDirectory(dir=run.WORKDIR) as tmp:
            _, failed, _, _ = run._correctness(
                workload, reference, 1, None, passes, Path(tmp))
            self.assertEqual(failed, 0)
            tampered = copy.deepcopy(reference)
            cell = sorted(tampered["1"]["stats"])[0]
            tampered["1"]["stats"][cell]["committed_uops"] += 1
            _, failed, _, _ = run._correctness(
                workload, tampered, 1, None, passes, Path(tmp))
            self.assertEqual(failed, 1)


if __name__ == "__main__":
    unittest.main()
