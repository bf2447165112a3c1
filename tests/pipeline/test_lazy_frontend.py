"""The flooded frontend holds trace rows, not µops.

libquantum under SpecSched_4 (the perfbench ``fig8-memory`` cell: 20k
µops of functional warmup, then 500 + 3,000 detailed) ends with tens of
thousands of fetched µops in the frontend pipe that Rename never takes.
Fetch keeps a correct-path non-branch µop as its trace row until Rename
takes it, so the only µops built in flight are branches (prediction
writes onto them at fetch), refetch clones and wrong-path µops.

The pipe's checkpoint state is unchanged by this: a detailed checkpoint
taken mid-flood has the payload digest the eager frontend (one built
µop per pipe entry) wrote, and a run resumed from it matches the
uninterrupted run.
"""

from __future__ import annotations

import pytest

from repro.checkpoint.format import load_checkpoint, save_checkpoint
from repro.core.presets import make_config
from repro.pipeline.cpu import Simulator
from repro.traces.registry import resolve_workload

#: Payload digest of the mid-flood checkpoint below, as the eager
#: frontend wrote it.
MID_FLOOD_DIGEST = (
    "2e27c833c278f9f33dea39ea47a1bb866cce7269f90fbb305a514577b4277582")

FUNCTIONAL, WARMUP, MEASURE, MID = 20_000, 500, 3_000, 1_500


def _built_and_rows(fetch):
    """The µops the pipe holds built, and the count it holds as rows
    (entries are ``(ready, µop)`` or ``[ready, first seq, rows]``)."""
    built = [entry[1] for entry in fetch.pipe if len(entry) == 2]
    rows = sum(len(entry[2]) for entry in fetch.pipe if len(entry) == 3)
    return built, rows


@pytest.fixture(scope="module")
def flood(tmp_path_factory):
    """The libquantum cell, checkpointed after ``MID`` measured µops:
    (simulator at the cell's end, checkpoint path, checkpoint info,
    built pipe entries at the checkpoint, refetch clones)."""
    workload = resolve_workload("libquantum")
    sim = Simulator(make_config("SpecSched_4", banked=True),
                    workload.build_trace(1))
    clones = []
    inject = sim.fetch.inject_refetch

    def recorded(uops):
        clones.extend(uops)
        inject(uops)

    sim.fetch.inject_refetch = recorded
    sim.functional_warmup(workload.build_trace(1), FUNCTIONAL)
    sim.run_with_warmup(WARMUP, MID)
    path = tmp_path_factory.mktemp("flood") / "mid.ckpt"
    info = save_checkpoint(sim, path, workload=workload, seed=1)
    mid_built = [(entry[0], entry[1].seq) for entry in sim.fetch.pipe
                 if len(entry) == 2]
    sim.run(max_uops=WARMUP + MEASURE)
    return sim, path, info, mid_built, clones


def test_flooded_pipe_builds_only_branches_clones_and_wrong_path(flood):
    sim, _, _, _, clones = flood
    assert sim.stats.committed_uops == WARMUP + MEASURE
    built, rows = _built_and_rows(sim.fetch)
    assert len(built) + rows > 80_000
    assert rows > 5 * len(built)
    clone_ids = {id(uop) for uop in clones}
    assert all(uop.is_branch or uop.wrong_path or id(uop) in clone_ids
               for uop in built)
    assert sum(1 for _ in sim.fetch.in_flight()) == len(built) + rows


def test_mid_flood_checkpoint_keeps_the_eager_digest_and_resumes(flood,
                                                                 tmp_path):
    sim, path, info, mid_built, _ = flood
    assert info.digest == MID_FLOOD_DIGEST
    restored = load_checkpoint(path).restore()
    # The loader regroups the saved µops into the runs fetch made.
    assert [(entry[0], entry[1].seq) for entry in restored.fetch.pipe
            if len(entry) == 2] == mid_built
    assert _built_and_rows(restored.fetch)[1] > 0
    again = save_checkpoint(restored, tmp_path / "again.ckpt",
                            workload=resolve_workload("libquantum"), seed=1)
    assert again.digest == MID_FLOOD_DIGEST
    restored.run(max_uops=WARMUP + MEASURE)
    assert restored.stats.to_dict() == sim.stats.to_dict()
