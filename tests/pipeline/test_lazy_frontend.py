"""The flooded frontend holds shared trace rows, not µops.

libquantum under SpecSched_4 (the perfbench ``fig8-memory`` cell: 20k
µops of functional warmup, then 500 + 3,000 detailed) ends with tens of
thousands of fetched µops in the frontend pipe that Rename never takes.
Fetch keeps every correct-path µop, a branch and its prediction too, as
its trace row until Rename takes it, and the kernel shares the rows that
do not vary between its loop iterations; so the only µops built in
flight are wrong-path ones, and an in-flight µop costs well under the
335 bytes (deep size) an eager frontend or a per-iteration row paid.

The pipe's checkpoint state is unchanged by this: a detailed checkpoint
taken mid-flood has the payload digest the eager frontend (one built
µop per pipe entry) wrote, and a run resumed from it matches the
uninterrupted run.

Replayed from a recording, the same cell keeps the same cost: the
reader hands a repeated record the row it already decoded.
"""

from __future__ import annotations

import sys
from collections import deque

import pytest

from repro.checkpoint.format import load_checkpoint, save_checkpoint
from repro.core.presets import make_config
from repro.isa.uop import MicroOp
from repro.pipeline.cpu import Simulator
from repro.traces.format import FileTrace, capture
from repro.traces.registry import resolve_workload

#: Payload digest of the mid-flood checkpoint below, as the eager
#: frontend wrote it.
MID_FLOOD_DIGEST = (
    "2e27c833c278f9f33dea39ea47a1bb866cce7269f90fbb305a514577b4277582")

FUNCTIONAL, WARMUP, MEASURE, MID = 20_000, 500, 3_000, 1_500

#: µops recorded for the replayed cell: its warmup, measurement and
#: flood, with room to spare.
RECORDED = 120_000

#: Deep size per in-flight µop the flooded pipe must stay under, in
#: bytes. Building the branches and a fresh row per kernel iteration
#: cost 335.5; shared rows cost about 138 (CPython 3.11, 64-bit).
MAX_BYTES_PER_UOP = 200


def _layout(fetch):
    """The pipe as fetch grouped it: ``(ready, first seq, rows)`` per
    fetch group (rows copied) and ``(ready, seq)`` per built µop."""
    return [(entry[0], entry[1], list(entry[2])) if len(entry) == 3
            else (entry[0], entry[1].seq) for entry in fetch.pipe]


def _deep_size(root) -> int:
    """Bytes reachable from ``root`` through containers and µops, each
    object counted once."""
    seen, total, stack = set(), 0, [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, (tuple, list, deque)):
            stack.extend(obj)
        elif isinstance(obj, MicroOp):
            stack.extend(getattr(obj, slot) for slot in MicroOp.__slots__)
    return total


@pytest.fixture(scope="module")
def flood(tmp_path_factory):
    """The libquantum cell, checkpointed after ``MID`` measured µops:
    (simulator at the cell's end, checkpoint path, checkpoint info,
    pipe layout at the checkpoint)."""
    workload = resolve_workload("libquantum")
    sim = Simulator(make_config("SpecSched_4", banked=True),
                    workload.build_trace(1))
    sim.functional_warmup(workload.build_trace(1), FUNCTIONAL)
    sim.run_with_warmup(WARMUP, MID)
    path = tmp_path_factory.mktemp("flood") / "mid.ckpt"
    info = save_checkpoint(sim, path, workload=workload, seed=1)
    mid_layout = _layout(sim.fetch)
    sim.run(max_uops=WARMUP + MEASURE)
    return sim, path, info, mid_layout


def test_flooded_pipe_builds_only_wrong_path(flood):
    sim, _, _, _ = flood
    assert sim.stats.committed_uops == WARMUP + MEASURE
    built = [entry[1] for entry in sim.fetch.pipe if len(entry) == 2]
    rows = [row for entry in sim.fetch.pipe if len(entry) == 3
            for row in entry[2]]
    assert len(built) + len(rows) > 80_000
    assert all(uop.wrong_path for uop in built)
    # Branches wait as rows too, carrying their prediction.
    assert sum(1 for row in rows if len(row) == 12) > 1_000
    assert sum(1 for _ in sim.fetch.in_flight()) == len(built) + len(rows)


def test_flooded_pipe_costs_shared_rows(flood):
    sim, _, _, _ = flood
    in_flight = sum(1 for _ in sim.fetch.in_flight())
    assert _deep_size(sim.fetch.pipe) / in_flight < MAX_BYTES_PER_UOP


def test_replayed_flood_costs_shared_rows(tmp_path):
    """The cell replayed from a recording: a fresh row and ``srcs`` list
    per record cost 303 bytes per in-flight µop."""
    path = tmp_path / "libquantum.trc"
    capture(resolve_workload("libquantum").build_trace(1), path, RECORDED,
            wp_seed=1)
    sim = Simulator(make_config("SpecSched_4", banked=True), FileTrace(path))
    sim.functional_warmup(FileTrace(path), FUNCTIONAL)
    sim.run_with_warmup(WARMUP, MEASURE)
    in_flight = sum(1 for _ in sim.fetch.in_flight())
    assert in_flight > 80_000
    assert _deep_size(sim.fetch.pipe) / in_flight < MAX_BYTES_PER_UOP


def test_mid_flood_checkpoint_keeps_the_eager_digest_and_resumes(flood,
                                                                 tmp_path):
    sim, path, info, mid_layout = flood
    assert info.digest == MID_FLOOD_DIGEST
    restored = load_checkpoint(path).restore()
    # The loader regroups the saved µops into the groups fetch made:
    # same ready cycles, first seqs and rows, branch predictions
    # included.
    assert _layout(restored.fetch) == mid_layout
    assert any(len(entry) == 3 for entry in restored.fetch.pipe)
    again = save_checkpoint(restored, tmp_path / "again.ckpt",
                            workload=resolve_workload("libquantum"), seed=1)
    assert again.digest == MID_FLOOD_DIGEST
    restored.run(max_uops=WARMUP + MEASURE)
    assert restored.stats.to_dict() == sim.stats.to_dict()
