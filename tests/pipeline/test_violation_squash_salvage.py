"""Regression: a memory-order-violation squash must not drop correct-path
µops still inside the frontend pipe.

Found by the drain-and-commit property suite: after a mispredicted
branch *resolves* (redirect), the frontend starts fetching correct-path
µops again; if a violation squash fires while those are still in the
frontend delay pipe, the old ``redirect``-based flush discarded them —
and a trace cursor never rewinds, so they were lost forever (the run
drained with fewer commits than trace µops). ``FetchStage.squash_all``
now salvages correct-path pipe occupants into the replay queue behind
the re-injected ROB clones.
"""

from __future__ import annotations

from repro.isa.opclass import OpClass
from repro.isa.trace import ListTrace
from repro.pipeline.cpu import Simulator

from tests.conftest import alu, run_to_completion, spec_config, uop


def _violation_during_refetch_uops():
    # A frozen fuzzer counterexample (delay=0 config): the store at
    # 0x105 takes its data off a multiply chain, so the younger load at
    # 0x106 executes first. By the time the store fires the violation
    # squash, the mispredicted taken branch at 0x107 has already
    # resolved and restarted correct-path fetch — the trailing branches
    # are mid-frontend, and the old flush dropped two of them for good
    # (8 of 10 committed).
    from repro.isa.uop import MicroOp

    return [
        MicroOp(0, 0x100, OpClass.LOAD, srcs=[8], dst=4, mem_addr=0x2040),
        MicroOp(0, 0x101, OpClass.INT_MUL, srcs=[8, 2], dst=6),
        MicroOp(0, 0x102, OpClass.INT_MUL, srcs=[5, 8], dst=2),
        MicroOp(0, 0x103, OpClass.INT_MUL, srcs=[2, 4], dst=9),
        MicroOp(0, 0x104, OpClass.BRANCH, srcs=[8], taken=False,
                target=0x105),
        MicroOp(0, 0x105, OpClass.STORE, srcs=[6, 6], mem_addr=0x2040),
        MicroOp(0, 0x106, OpClass.LOAD, srcs=[3], dst=8, mem_addr=0x2040),
        MicroOp(0, 0x107, OpClass.BRANCH, srcs=[7], taken=True,
                target=0x147),
        MicroOp(0, 0x108, OpClass.BRANCH, srcs=[4], taken=False,
                target=0x109),
        MicroOp(0, 0x109, OpClass.BRANCH, srcs=[5], taken=True,
                target=0x149),
    ]


def test_every_uop_commits_despite_violation_during_refetch():
    uops = _violation_during_refetch_uops()
    sim = Simulator(spec_config(delay=0), ListTrace(uops))
    run_to_completion(sim)
    assert sim.stats.memory_order_violations >= 1, \
        "scenario must actually trigger the violation squash"
    assert sim.stats.committed_uops == len(uops)


def test_squash_all_salvages_correct_path_pipe_occupants():
    uops = [alu([2], 3, pc=0x10 + i) for i in range(6)]
    sim = Simulator(spec_config(delay=0), ListTrace(uops))
    fetch = sim.fetch
    fetch.tick(0)                       # µops now sit in the delay pipe
    in_pipe = [u.pc for _, u in fetch.in_flight() if not u.wrong_path]
    assert in_pipe, "precondition: the pipe holds correct-path µops"
    fetch.squash_all(0)
    assert not fetch.pipe
    salvaged = list(fetch.replay_queue)
    assert [row[0] for row in salvaged] == in_pipe   # program order kept
    # Plain correct-path rows: the trace µops' architectural fields.
    assert salvaged == [u.arch_row() for u in uops[:len(salvaged)]]


def test_branch_redirect_alone_still_discards_wrong_path():
    # The inverse guard: a plain mispredict flush must not "salvage"
    # wrong-path filler into the replay queue.
    uops = [
        alu([2], 3, pc=0x10),
        uop(OpClass.BRANCH, pc=0x11, srcs=[2], taken=True, target=0x80),
        alu([3], 4, pc=0x80),
        alu([4], 5, pc=0x81),
    ]
    sim = Simulator(spec_config(delay=2), ListTrace(uops))
    run_to_completion(sim)
    assert sim.stats.committed_uops == len(uops)
    assert sim.fetch.replay_queue == type(sim.fetch.replay_queue)()
