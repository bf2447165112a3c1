"""Bit-identity guarantees for real-ISA (RV32I) µop streams.

Four contracts, each inherited from the synthetic-workload stack and
re-proven here on streams lowered from real program execution:

* **Capture determinism** — recording the same program twice produces
  byte-identical ``.trc`` files, and the file replays the exact µop
  sequence the live executor lowers.
* **Engine determinism** — the same rv32i cell computed serially, in a
  process pool and through a cold-reloaded persistent cache yields
  identical ``SimStats`` counter dicts.
* **Warming equivalence** — production functional warming and the
  scalar reference loop leave byte-identical machine state (and
  identical ``.ckpt`` digests) after consuming an rv32i stream, live or
  recorded.
* **Checkpoint round-trip** — save → restore → continue on an rv32i
  workload matches an uninterrupted run counter-for-counter, in memory
  and through the on-disk format (the executor's sparse-memory state
  must survive the restricted unpickler).
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.presets import make_config
from repro.experiments.engine import (
    EngineOptions,
    ResultCache,
    base_cell_payload,
    run_cells,
)
from repro.pipeline.cpu import Simulator
from repro.pipeline.functional import functional_stream
from repro.traces.format import FileTrace, capture
from repro.traces.registry import TraceWorkload, resolve_workload

# seq is assigned by fetch at runtime, not part of the recorded contract
# (see repro/traces/format.py).
_UOP_FIELDS = ("pc", "opclass", "srcs", "dst", "mem_addr",
               "mem_size", "taken", "target")
CAPTURE_UOPS = 12_000


def _uop_tuple(uop):
    return tuple(getattr(uop, field) for field in _UOP_FIELDS)


@pytest.fixture(scope="module")
def captured(tmp_path_factory):
    """ptr-chase captured once to disk; (path, workload name, seed)."""
    path = tmp_path_factory.mktemp("rv32i-traces") / "ptr-chase.trc"
    workload = resolve_workload("ptr-chase")
    capture(workload.build_trace(3), path, CAPTURE_UOPS, wp_seed=3)
    return path


class TestCaptureIdentity:
    def test_capture_twice_is_byte_identical(self, captured, tmp_path):
        workload = resolve_workload("ptr-chase")
        again = tmp_path / "again.trc"
        capture(workload.build_trace(3), again, CAPTURE_UOPS, wp_seed=3)
        assert again.read_bytes() == captured.read_bytes()

    def test_file_replay_equals_live_lowering(self, captured):
        live = resolve_workload("ptr-chase").build_trace(3)
        replayed = FileTrace(captured)
        for index in range(CAPTURE_UOPS):
            recorded = replayed.next_uop()
            executed = live.next_uop()
            assert recorded is not None and executed is not None
            assert _uop_tuple(recorded) == _uop_tuple(executed), index

    def test_wrong_path_stream_matches(self, captured):
        live = resolve_workload("ptr-chase").build_trace(3)
        replayed = FileTrace(captured)
        for seq, pc in ((17, 0x44), (900, 0x10), (31_004, 0x88)):
            assert _uop_tuple(replayed.wrong_path_uop(seq, pc)) == \
                _uop_tuple(live.wrong_path_uop(seq, pc))


class TestEngineDeterminism:
    def _payloads(self, captured):
        config = make_config("SpecSched_4_Combined", banked=True)
        live = resolve_workload("dhry-mix")
        recorded = TraceWorkload(captured)
        return [
            base_cell_payload(config, live, warmup_uops=500,
                              measure_uops=2_000,
                              functional_warmup_uops=4_000, seed=1),
            base_cell_payload(config, recorded, warmup_uops=500,
                              measure_uops=2_000,
                              functional_warmup_uops=4_000, seed=3),
        ]

    def test_serial_pool_and_cache_identical(self, captured, tmp_path):
        payloads = self._payloads(captured)
        serial = run_cells(payloads, EngineOptions(jobs=1),
                           ResultCache(None))
        pooled = run_cells(payloads, EngineOptions(jobs=2),
                           ResultCache(None))
        primed = ResultCache(tmp_path)
        run_cells(payloads, EngineOptions(jobs=1), primed)
        reload_cache = ResultCache(tmp_path)   # fresh memory, warm disk
        reloaded = run_cells(payloads, EngineOptions(jobs=1), reload_cache)
        for a, b, c in zip(serial, pooled, reloaded):
            assert a.to_dict() == b.to_dict() == c.to_dict()
        assert reload_cache.disk_hits == len(payloads)
        assert reload_cache.misses == 0

    def test_cell_key_tracks_image_not_location(self, captured, tmp_path):
        """Copying an image elsewhere must hit the same cache key."""
        import shutil

        from repro.experiments.engine import cell_key
        from repro.isa.rv32i.corpus import bundled_programs

        config = make_config("SpecSched_4", banked=True)
        original = bundled_programs()["memcpy-stream"]
        copy = tmp_path / "renamed-kernel.hex"
        shutil.copy(original, copy)

        def key_for(path):
            workload = resolve_workload(str(path))
            return cell_key(base_cell_payload(
                config, workload, warmup_uops=500, measure_uops=1_000,
                functional_warmup_uops=2_000, seed=1))

        assert key_for(original) == key_for(copy)


class TestWarmingEquivalence:
    """Production warming vs the scalar reference loop on real-ISA
    streams (satellite of ``tests/warming/test_equivalence.py``)."""

    @staticmethod
    def _oracle(sim, uops):
        assert functional_stream(sim, sim.trace, uops,
                                 train_policy=True) == uops
        return sim

    @pytest.mark.parametrize("preset", ("Baseline_0",
                                        "SpecSched_4_Combined"))
    @pytest.mark.parametrize("name", ("ptr-chase", "state-machine"))
    def test_live_stream_identity(self, preset, name):
        def build():
            workload = resolve_workload(name)
            return Simulator(make_config(preset), workload.build_trace(7))

        sim = build()
        assert sim.fast_forward(9_000) == 9_000
        oracle = self._oracle(build(), 9_000)
        assert pickle.dumps(sim.state_dict()) == pickle.dumps(
            oracle.state_dict())

    def test_recorded_stream_state_and_digest_identity(self, captured,
                                                       tmp_path):
        from repro.checkpoint.format import save_checkpoint

        def build():
            return Simulator(make_config("SpecSched_4_Combined"),
                             FileTrace(captured))

        sim = build()
        assert sim.fast_forward(9_000) == 9_000
        oracle = self._oracle(build(), 9_000)
        assert pickle.dumps(sim.state_dict()) == pickle.dumps(
            oracle.state_dict())
        digests = []
        for label, warmed in (("oracle", oracle), ("production", sim)):
            ckpt = tmp_path / f"{label}.ckpt"
            digests.append(save_checkpoint(warmed, ckpt).digest)
        assert digests[0] == digests[1]


class TestCheckpointRoundtrip:
    SPLIT, TOTAL, FUNCTIONAL = 3_000, 7_000, 8_000

    def _reference(self, workload, config, seed):
        sim = Simulator(config, workload.build_trace(seed))
        sim.functional_warmup(workload.build_trace(seed), self.FUNCTIONAL)
        sim.run(max_uops=self.TOTAL)
        return sim.stats.to_dict()

    @pytest.mark.parametrize("name,preset",
                             [("dhry-mix", "SpecSched_4_Combined"),
                              ("matmul-inner", "Baseline_0")])
    def test_state_dict_roundtrip(self, name, preset):
        workload = resolve_workload(name)
        config = make_config(preset)
        seed = workload.seed
        reference = self._reference(workload, config, seed)

        sim = Simulator(config, workload.build_trace(seed))
        sim.functional_warmup(workload.build_trace(seed), self.FUNCTIONAL)
        sim.run(max_uops=self.SPLIT)
        state = pickle.loads(pickle.dumps(sim.state_dict(), protocol=4))

        restored = Simulator(config, workload.build_trace(seed))
        restored.load_state_dict(state)
        restored.run(max_uops=self.TOTAL)
        assert restored.stats.to_dict() == reference

    def test_file_checkpoint_roundtrip(self, tmp_path):
        from repro.checkpoint.format import load_checkpoint, save_checkpoint

        workload = resolve_workload("state-machine")
        config = make_config("SpecSched_4_Crit")
        seed = workload.seed
        reference = self._reference(workload, config, seed)

        sim = Simulator(config, workload.build_trace(seed))
        sim.functional_warmup(workload.build_trace(seed), self.FUNCTIONAL)
        sim.run(max_uops=self.SPLIT)
        path = tmp_path / "mid.ckpt"
        info = save_checkpoint(sim, path, workload=workload, seed=seed)
        assert info.uops_committed == sim.stats.committed_uops

        restored = load_checkpoint(path).restore()
        restored.run(max_uops=self.TOTAL)
        assert restored.stats.to_dict() == reference


class TestRestart:
    """An RV32I stream loops: when the program halts, it restarts from the
    initial image, so a finite kernel supplies µops without end."""

    def test_stream_restarts_after_halt(self):
        workload = resolve_workload("ptr-chase")
        one_run = workload.program.machine().run()
        trace = workload.build_trace()
        first = [_uop_tuple(trace.next_uop()) for _ in range(one_run)]
        again = [_uop_tuple(trace.next_uop()) for _ in range(one_run + 1)]
        assert trace.emitted == 2 * one_run + 1 > one_run
        assert again[:one_run] == first
        assert again[one_run] == first[0]

    def test_checkpoint_after_restart_round_trips(self, tmp_path):
        from repro.checkpoint.format import load_checkpoint, save_checkpoint

        workload = resolve_workload("ptr-chase")
        one_run = workload.program.machine().run()
        config = make_config("SpecSched_4")
        sim = Simulator(config, workload.build_trace(workload.seed))
        assert sim.fast_forward(one_run + 500) == one_run + 500
        assert sim.trace.emitted == one_run + 500   # past the halt
        path = tmp_path / "restarted.ckpt"
        info = save_checkpoint(sim, path, workload=workload,
                               seed=workload.seed)
        restored = load_checkpoint(path).restore()
        again = save_checkpoint(restored, tmp_path / "again.ckpt",
                                workload=workload, seed=workload.seed)
        assert again.digest == info.digest
        sim.run(max_uops=3_000)
        restored.run(max_uops=3_000)
        assert restored.stats.to_dict() == sim.stats.to_dict()
