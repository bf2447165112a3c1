"""Production warming vs the reference loop: identical state and checkpoints.

The contract under test (see ``repro.pipeline.warming``): after warming
the same stream span, :func:`warm_stream` (and so
:meth:`Simulator.fast_forward` and :meth:`Simulator.functional_warmup`)
must leave every component byte-identical to the per-µop reference
:func:`tests.warming.oracle.functional_stream` — same ``state_dict``
pickles, same ``.ckpt`` digests — on live workloads, recordings,
RV32I programs and hand-built lists, with and without filter training,
whatever the block size. Everything else about the loop is an
implementation detail; this equality is the feature.
"""

from __future__ import annotations

import pytest

from repro.isa.opclass import OpClass
from repro.isa.trace import ListTrace
from repro.isa.uop import MicroOp
from repro.pipeline import warming
from repro.pipeline.warming import warm_stream

from tests.warming.conftest import (
    PRESETS,
    build_sim,
    list_trace,
    random_uops,
    state_bytes,
    workload_sim,
)
from tests.warming.oracle import functional_stream


def oracle_state(sim, uops):
    """Fast-forward ``sim`` through the reference loop instead."""
    consumed = functional_stream(sim, sim.trace, uops, train_policy=True)
    return consumed, state_bytes(sim)


class TestEverySource:
    """Each kind of source, warmed with and without filter training, in
    whole and in odd-sized blocks."""

    @staticmethod
    def _source(kind, recording):
        from repro.traces.format import FileTrace
        from repro.traces.registry import resolve_workload

        if kind == "workload":
            return resolve_workload("mcf").build_trace(5)
        if kind == "file":
            return FileTrace(recording)
        if kind == "rv32i":
            return resolve_workload("dhry-mix").build_trace(1)
        return list_trace(29, 7000)

    @pytest.mark.parametrize("block", (None, 97))
    @pytest.mark.parametrize("train_policy", (False, True))
    @pytest.mark.parametrize("kind", ("workload", "file", "rv32i", "list"))
    def test_identity(self, kind, train_policy, block, recorded_trace,
                      monkeypatch):
        if block is not None:
            monkeypatch.setattr(warming, "BLOCK_UOPS", block)
        sims = [build_sim("SpecSched_4_Combined",
                          self._source(kind, recorded_trace))
                for _ in range(2)]
        assert warm_stream(sims[0], sims[0].trace, 6000,
                           train_policy=train_policy) == 6000
        assert functional_stream(sims[1], sims[1].trace, 6000,
                                 train_policy=train_policy) == 6000
        assert state_bytes(sims[0]) == state_bytes(sims[1])


class TestSyntheticWorkloads:
    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("workload", ("gzip", "mcf"))
    def test_fast_forward_identity(self, preset, workload):
        sim = workload_sim(preset, workload)
        assert sim.fast_forward(9000) == 9000
        assert (9000, state_bytes(sim)) == oracle_state(
            workload_sim(preset, workload), 9000)

    def test_functional_warmup_identity(self):
        from repro.traces.registry import resolve_workload

        def build():
            return (workload_sim("SpecSched_4_Combined", "gzip"),
                    resolve_workload("gzip").build_trace(7))

        oracle, trace = build()
        functional_stream(oracle, trace, 8000)
        sim, trace = build()
        sim.functional_warmup(trace, 8000)
        assert state_bytes(sim) == state_bytes(oracle)

    def test_warming_builds_no_micro_ops(self, monkeypatch,
                                         recorded_trace):
        """Warming a live workload, a recording, an RV32I program or a
        hand-built list reads record arrays only: not one ``MicroOp`` is
        constructed."""
        from repro.traces.format import FileTrace

        sims = (workload_sim("Baseline_0", "gzip"),
                build_sim("Baseline_0", FileTrace(recorded_trace)),
                workload_sim("Baseline_0", "dhry-mix"),
                build_sim("Baseline_0", list_trace(19, 6000)))
        built = []
        init = MicroOp.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(MicroOp, "__init__", counting)
        for sim in sims:
            assert sim.fast_forward(5000) == 5000
        assert sims[0].trace.next_uop() is not None     # the probe counts
        assert len(built) == 1


class TestRecordedTraces:
    @pytest.mark.parametrize(
        "preset", ("Baseline_0", "SpecSched_4_Combined", "SpecSched_4_Crit"))
    def test_state_and_digest_identity(self, recorded_trace, tmp_path, preset):
        """Equal component state and checkpoint digests on a recording."""
        from repro.checkpoint.format import save_checkpoint
        from repro.traces.format import FileTrace

        def build():
            return build_sim(preset, FileTrace(recorded_trace))

        oracle, sim = build(), build()
        assert functional_stream(oracle, oracle.trace, 9000,
                                 train_policy=True) == 9000
        assert sim.fast_forward(9000) == 9000
        assert state_bytes(sim) == state_bytes(oracle)
        digests = []
        for name, warmed in (("oracle", oracle), ("production", sim)):
            ckpt = tmp_path / f"{name}.ckpt"
            digests.append(save_checkpoint(warmed, ckpt).digest)
        assert digests[0] == digests[1]

    def test_non_frame_aligned_blocks(self, recorded_trace, monkeypatch):
        from repro.traces.format import FileTrace

        def build():
            return build_sim("SpecSched_4_Combined", FileTrace(recorded_trace))

        monkeypatch.setattr(warming, "BLOCK_UOPS", 97)
        sim = build()
        assert warm_stream(sim, sim.trace, 8503, train_policy=True) == 8503
        assert (8503, state_bytes(sim)) == oracle_state(build(), 8503)


class TestListStreams:
    def test_random_stream_identity(self):
        sim = build_sim("SpecSched_4_Combined", list_trace(11, 4000))
        assert warm_stream(sim, sim.trace, 4000, train_policy=True) == 4000
        oracle = build_sim("SpecSched_4_Combined", list_trace(11, 4000))
        assert (4000, state_bytes(sim)) == oracle_state(oracle, 4000)

    def test_unaligned_block_identity(self, monkeypatch):
        monkeypatch.setattr(warming, "BLOCK_UOPS", 97)
        sim = build_sim("SpecSched_4_Combined", list_trace(13, 3000))
        assert warm_stream(sim, sim.trace, 3000, train_policy=True) == 3000
        oracle = build_sim("SpecSched_4_Combined", list_trace(13, 3000))
        assert (3000, state_bytes(sim)) == oracle_state(oracle, 3000)

    def test_short_trace_reports_consumed(self):
        for warm in (functional_stream, warm_stream):
            sim = build_sim("Baseline_0", list_trace(17, 500))
            assert warm(sim, sim.trace, 2000) == 500

    def test_empty_trace(self):
        for warm in (functional_stream, warm_stream):
            sim = build_sim("Baseline_0", ListTrace([]))
            assert warm(sim, sim.trace, 100) == 0

    def test_zero_uops(self):
        for warm in (functional_stream, warm_stream):
            sim = build_sim("Baseline_0", list_trace(19, 100))
            assert warm(sim, sim.trace, 0) == 0


class TestBtbDemoteDivergence:
    """A BTB-demoted prediction, where the branch unit and TAGE disagree.

    A branch trained taken whose BTB entry has been evicted demotes to
    not-taken at predict. When it then resolves not-taken, the branch
    unit saw no misprediction and repairs nothing, while TAGE's own
    update (its direction was taken) puts the outcome in the history.
    ``BranchUnit.warm`` never repairs a conditional branch, relying on
    that update; this stream holds it to the reference in that case.
    """

    @staticmethod
    def _stream():
        def br(pc, taken):
            return MicroOp(seq=0, pc=pc, opclass=OpClass.BRANCH, srcs=[0],
                           target=pc + 7, taken=taken)

        victim = 0x1000
        num_sets = 4096              # BTB: 8192 entries, 2 ways
        alias1 = victim + 4 * num_sets
        alias2 = victim + 8 * num_sets
        uops = [br(victim, True) for _ in range(6)]       # train taken
        for _ in range(3):                                # evict via set
            uops.append(br(alias1, True))
            uops.append(br(alias2, True))
        uops.append(br(victim, False))                    # the trigger
        import random

        rng = random.Random(9)
        for _ in range(200):                              # stale-fold tail
            uops.append(br(0x2000 + 8 * rng.randrange(40),
                           rng.random() < 0.5))
        return uops

    def test_trigger_fires(self):
        """The crafted stream really exercises the demote case."""
        sim = build_sim("SpecSched_4_Combined", ListTrace(self._stream()))
        unit = sim.branch_unit
        events = 0
        for template in self._stream():
            uop = template.clone_arch(0)
            pred_taken, pred_target, uop.bp_state = unit.predict(
                uop.pc, uop.opclass, uop.target)
            uop.pred_taken, uop.pred_target = pred_taken, pred_target
            tage_direction = uop.bp_state[1][3]
            mispredicted = (pred_taken != uop.taken) or (
                uop.taken and pred_target != uop.target)
            if not mispredicted and tage_direction != uop.taken:
                events += 1
            unit.resolve(uop)
        assert events >= 1

    def test_identity_across_divergence(self):
        stream = self._stream()
        sim = build_sim("SpecSched_4_Combined", ListTrace(stream))
        warm_stream(sim, sim.trace, len(stream), train_policy=True)
        oracle = build_sim("SpecSched_4_Combined", ListTrace(stream))
        assert state_bytes(sim) == oracle_state(oracle, len(stream))[1]


class TestPropertyEquivalence:
    def test_random_seeds_identity(self, monkeypatch):
        """Property-style sweep: many random streams, exact identity."""
        monkeypatch.setattr(warming, "BLOCK_UOPS", 101)
        for seed in range(12):
            count = 600 + 137 * seed
            sim = build_sim("SpecSched_4_Combined",
                            ListTrace(random_uops(seed, count)))
            warm_stream(sim, sim.trace, count, train_policy=True)
            oracle = build_sim("SpecSched_4_Combined",
                               ListTrace(random_uops(seed, count)))
            assert state_bytes(sim) == oracle_state(oracle, count)[1], seed
