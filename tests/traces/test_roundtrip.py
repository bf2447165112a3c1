"""Capture -> replay fidelity: the trace subsystem's core guarantee.

Two properties, asserted across Table-2 workloads and seeds:

1. **Stream fidelity** — replaying a recorded trace yields the
   bit-identical architectural µop sequence the live generator produces
   (and the bit-identical wrong-path stream).
2. **Result fidelity** — simulating through the engine from a trace file
   produces ``SimStats`` with the same content hash as simulating from
   the live generator, warmups and all.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.common.serialize import stable_hash
from repro.experiments.engine import cell_key, cell_payload, simulate_payload
from repro.experiments.runner import Settings, Sweep, SweepSeries, run_sweep
from repro.isa.trace import iterate
from repro.traces.format import capture
from repro.traces.registry import TraceWorkload, resolve_workload

#: Compute, FP and pointer-chasing programs, then pointer chasing plus
#: branches (omnetpp), hard branches (gobmk) and streaming (libquantum).
TABLE2_WORKLOADS = ("gzip", "swim", "mcf", "omnetpp", "gobmk", "libquantum")

#: Tiny but real volumes: functional warmup, timed warmup and measure all
#: exercised. The capture must cover the longer of the two streams plus
#: the bounded fetch-ahead still in flight at the measure cutoff.
VOLUMES = dict(warmup_uops=200, measure_uops=1200,
               functional_warmup_uops=3000, seed=5)
CAPTURE_UOPS = max(VOLUMES["functional_warmup_uops"],
                   VOLUMES["warmup_uops"] + VOLUMES["measure_uops"] + 8192)

ARCH_FIELDS = ("pc", "opclass", "srcs", "dst", "mem_addr", "mem_size",
               "taken", "target")


def _record(workload, tmp_path, seed: int) -> TraceWorkload:
    path = tmp_path / f"{workload.name}-{seed}.trc"
    capture(workload.build_trace(seed), path, CAPTURE_UOPS, wp_seed=seed,
            provenance={"workload": workload.name})
    return TraceWorkload(path)


# ---------------------------------------------------------------------------
# Stream fidelity

#: Content digests of ``repro trace record W --seed 1 --uops 20000``. They
#: pin the generated µop streams (the kernels and the RV32I executor) to
#: the bit: any change to a kernel's rows, its RNG draws or the record
#: encoding moves them.
RECORD_DIGESTS = {
    "gzip": "ac97098bb101eea41f3ca8e2d26cc13bf1cdd360c72e8dd5dfdd15fdc7cd60ce",
    "dhry-mix":
        "935dbd8dc17826138264fee92e35b5ac41c53d9d60d1ca1f490643f4fbca1d68",
}


@pytest.mark.parametrize("name", sorted(RECORD_DIGESTS))
def test_trace_record_digest_pinned(tmp_path, capsys, name):
    from repro.cli import main
    from repro.traces.format import read_info, verify

    path = tmp_path / f"{name}.trc"
    assert main(["trace", "record", name, "--seed", "1", "--uops", "20000",
                 "-o", str(path)]) == 0
    assert RECORD_DIGESTS[name] in capsys.readouterr().out
    assert read_info(path).digest == RECORD_DIGESTS[name]
    assert verify(path)


@pytest.mark.parametrize("name", TABLE2_WORKLOADS)
@pytest.mark.parametrize("seed", [1, 42])
def test_replay_stream_bit_identical(tmp_path, name, seed):
    workload = resolve_workload(name)
    recorded = _record(workload, tmp_path, seed)
    live = iterate(workload.build_trace(seed), 4000)
    replay = iterate(recorded.build_trace(), 4000)
    for expected, got in zip(live, replay):
        for field in ARCH_FIELDS:
            assert getattr(expected, field) == getattr(got, field), (
                f"{name} seed={seed}: {field} diverged at "
                f"pc={expected.pc:#x}")


@pytest.mark.parametrize("name", ("gzip", "libquantum"))
def test_replay_wrong_path_bit_identical(tmp_path, name):
    workload = resolve_workload(name)
    recorded = _record(workload, tmp_path, 7)
    live, replay = workload.build_trace(7), recorded.build_trace()
    for i in range(200):
        a, b = live.wrong_path_uop(0, i), replay.wrong_path_uop(0, i)
        assert (a.opclass, a.srcs, a.dst) == (b.opclass, b.srcs, b.dst)


# ---------------------------------------------------------------------------
# Result fidelity (the acceptance criterion)


@pytest.mark.parametrize("name, preset", [
    ("gzip", "Baseline_0"),
    ("swim", "SpecSched_4"),
    ("mcf", "SpecSched_4_Crit"),
    ("omnetpp", "SpecSched_4"),
    ("gobmk", "SpecSched_4_Shift"),
    ("libquantum", "SpecSched_4_Ctr"),
])
def test_engine_stats_identical_live_vs_replay(tmp_path, name, preset):
    workload = resolve_workload(name)
    recorded = _record(workload, tmp_path, VOLUMES["seed"])
    live = simulate_payload(cell_payload(preset, workload, **VOLUMES))
    replay = simulate_payload(cell_payload(preset, recorded, **VOLUMES))
    assert stable_hash(live) == stable_hash(replay), (
        f"{name}/{preset}: replayed SimStats diverged from live")


def test_cache_key_differs_between_live_and_trace(tmp_path):
    """Same stream, different provenance: a trace cell must not collide
    with (or go stale against) the live generator's cache entries."""
    workload = resolve_workload("gzip")
    recorded = _record(workload, tmp_path, VOLUMES["seed"])
    live_payload = cell_payload("Baseline_0", workload, **VOLUMES)
    trace_payload = cell_payload("Baseline_0", recorded, **VOLUMES)
    assert stable_hash(live_payload) != stable_hash(trace_payload)
    # Re-record with a different length: the digest, hence the key, moves.
    path = tmp_path / "re.trc"
    capture(workload.build_trace(VOLUMES["seed"]), path, CAPTURE_UOPS + 1,
            wp_seed=VOLUMES["seed"])
    rerecorded_payload = cell_payload("Baseline_0", TraceWorkload(path),
                                      **VOLUMES)
    assert stable_hash(trace_payload) != stable_hash(rerecorded_payload)


def test_cache_key_independent_of_trace_location(tmp_path):
    """The same recording at two paths keys the same cache entries."""
    workload = resolve_workload("gzip")
    recorded = _record(workload, tmp_path, VOLUMES["seed"])
    copy = tmp_path / "renamed-elsewhere.trc"
    copy.write_bytes(Path(recorded.path).read_bytes())
    key_a = cell_key(cell_payload("Baseline_0", recorded, **VOLUMES))
    key_b = cell_key(cell_payload("Baseline_0", TraceWorkload(copy),
                                  **VOLUMES))
    assert key_a == key_b


def test_undersized_trace_rejected_not_measured(tmp_path):
    """A trace shorter than warmup+measure must fail loudly, not cache
    an all-zero measured region."""
    workload = resolve_workload("gzip")
    path = tmp_path / "short.trc"
    capture(workload.build_trace(VOLUMES["seed"]), path, 500,
            wp_seed=VOLUMES["seed"])
    payload = cell_payload("Baseline_0", TraceWorkload(path), **VOLUMES)
    with pytest.raises(ValueError, match="holds only 500"):
        simulate_payload(payload)


def test_run_sweep_accepts_trace_names(tmp_path, monkeypatch):
    """A recorded trace is addressable by registry name end-to-end."""
    workload = resolve_workload("gzip")
    path = tmp_path / "gzip-rec.trc"
    capture(workload.build_trace(VOLUMES["seed"]), path, CAPTURE_UOPS,
            wp_seed=VOLUMES["seed"], provenance={"workload": "gzip"})
    monkeypatch.setenv("REPRO_WORKLOAD_PATH", str(tmp_path))
    settings = Settings(workloads=("gzip", "gzip-rec"),
                        warmup_uops=VOLUMES["warmup_uops"],
                        measure_uops=VOLUMES["measure_uops"],
                        functional_warmup_uops=VOLUMES[
                            "functional_warmup_uops"],
                        seed=VOLUMES["seed"])
    series = SweepSeries("Baseline_0", "Baseline_0", banked=False)
    result = run_sweep(Sweep(name="trace-name", baseline="Baseline_0",
                             series=(series,)), settings)
    live = result.get("Baseline_0", "gzip")
    replay = result.get("Baseline_0", "gzip-rec")
    assert stable_hash(live.to_dict()) == stable_hash(replay.to_dict())


def test_run_workload_rejects_undersized_trace(tmp_path):
    """The guard holds on the run_workload path too, not just
    the engine and the replay subcommand."""
    from repro.pipeline.sim import run_workload

    workload = resolve_workload("gzip")
    path = tmp_path / "short.trc"
    capture(workload.build_trace(1), path, 300, wp_seed=1)
    with pytest.raises(ValueError, match="holds only 300"):
        run_workload(TraceWorkload(path), "SpecSched_4",
                     warmup_uops=200, measure_uops=1000,
                     functional_warmup_uops=0)


def test_restore_past_truncation_is_one_line_cli_error(tmp_path, capsys):
    """Resuming a checkpoint over a recording cut inside a frame the
    restore seek steps over is a one-line error (exit 2), not a run over
    a silently shortened stream."""
    from repro.checkpoint.format import save_checkpoint
    from repro.cli import main
    from repro.core.presets import make_config
    from repro.pipeline.cpu import Simulator
    from repro.common.container import FRAME_HEADER, HEADER
    from repro.traces.format import DEFAULT_FRAME_RECORDS

    path = tmp_path / "gzip.trc"
    capture(resolve_workload("gzip").build_trace(1), path,
            5 * DEFAULT_FRAME_RECORDS, wp_seed=1)
    workload = TraceWorkload(path)
    sim = Simulator(make_config("Baseline_0"), workload.build_trace(1))
    sim.fast_forward(3 * DEFAULT_FRAME_RECORDS)
    ckpt = tmp_path / "past-cut.ckpt"
    save_checkpoint(sim, ckpt, workload=workload, seed=1)
    data = path.read_bytes()
    meta_len = HEADER.unpack_from(data)[5]
    first_frame = HEADER.size + meta_len
    _, stored_len = FRAME_HEADER.unpack_from(data, first_frame)
    cut = first_frame + FRAME_HEADER.size + stored_len + 100   # in frame 1
    path.write_bytes(data[:cut])
    assert main(["run", str(path), "Baseline_0",
                 "--from-checkpoint", str(ckpt), "--measure", "500"]) == 2
    captured = capsys.readouterr()
    errors = captured.err.strip().splitlines()
    assert len(errors) == 1
    assert errors[0].startswith("error: ") and "truncated" in errors[0]
