from repro.common.config import CoreConfig
from repro.common.stats import SimStats
from repro.frontend.branch_unit import BranchUnit
from repro.frontend.fetch import FetchStage
from repro.isa.opclass import OpClass
from repro.isa.trace import ListTrace
from repro.isa.uop import MicroOp


def alu(pc):
    return MicroOp(0, pc, OpClass.INT_ALU, srcs=[1], dst=2)


def make_fetch(uops, delay=4):
    core = CoreConfig(issue_to_execute_delay=delay)
    return FetchStage(ListTrace(uops), BranchUnit(), core, SimStats())


def take(f, now, max_uops):
    """Consume up to ``max_uops`` ready µops the way Rename does: an
    empty pipe materialises the next wrong-path µop, then the ready head
    is taken."""
    out = []
    while len(out) < max_uops:
        if not f.pipe and not f.materialize_wrong_path(now):
            break
        ready, opclass, dst = f.head()
        if ready > now:
            break
        uop = f.take()
        assert (uop.opclass, uop.dst) == (opclass, dst)
        out.append(uop)
    return out


def in_flight(f):
    return [uop for _, uop in f.in_flight()]


def test_fetch_width_limit():
    f = make_fetch([alu(i) for i in range(20)])
    f.tick(0)
    assert len(in_flight(f)) == 8     # fetch_width


def test_frontend_depth_delays_delivery():
    f = make_fetch([alu(i) for i in range(4)], delay=4)   # depth 11
    f.tick(0)
    assert take(f, 10, 8) == []
    out = take(f, 11, 8)
    assert len(out) == 4


def test_delivery_respects_width():
    f = make_fetch([alu(i) for i in range(8)])
    f.tick(0)
    out = take(f, 100, 3)
    assert len(out) == 3
    assert len(take(f, 100, 8)) == 5


def test_seq_assignment_monotonic():
    f = make_fetch([alu(i) for i in range(12)])
    f.tick(0)
    f.tick(1)
    seqs = [u.seq for u in in_flight(f)]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)


def test_stalled_peek_keeps_uop_in_order():
    f = make_fetch([alu(i) for i in range(6)])
    f.tick(0)
    take(f, 50, 2)
    # A stalled Rename reads the head without taking it: the µop stays.
    left = [(u.seq, u.pc) for u in in_flight(f)]
    assert f.head() == f.head() == (11, OpClass.INT_ALU, 2)
    assert [(u.seq, u.pc) for u in in_flight(f)] == left
    again = take(f, 50, 6)
    assert [u.pc for u in again] == [2, 3, 4, 5]


def test_wrong_path_mode_on_mispredict():
    # A branch that is taken: cold predictor predicts not-taken (BTB miss),
    # so fetch must switch to wrong-path synthesis.
    br = MicroOp(0, 0x10, OpClass.BRANCH, srcs=[1], taken=True, target=0x40)
    f = make_fetch([alu(0), br, alu(0x11), alu(0x12)])
    f.tick(0)
    assert f.wrong_path
    f.tick(1)
    # Wrong-path fetch is lazy: tick(1) records a virtual full-width
    # group instead of materializing µops into the pipe...
    assert not any(u.wrong_path for u in in_flight(f))
    # ...but delivery materializes them once their frontend traversal
    # completes, younger than (and behind) the mispredicted branch.
    out = take(f, 1 + f.depth, 16)
    wrong = [u for u in out if u.wrong_path]
    assert len(wrong) == 8, "wrong-path µops must materialize on delivery"
    seqs = [u.seq for u in out]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)


def test_wrong_path_bulk_discard_matches_eager_stream():
    # Two fetches with the same trace seed: one delivers wrong-path µops
    # before redirecting, one redirects straight away (bulk discard).
    # After the redirect both must synthesize identical wrong-path
    # streams in the *next* episode — the bulk skip advances the
    # synthesis RNG exactly as if the µops had been built.
    br = MicroOp(0, 0x10, OpClass.BRANCH, srcs=[1], taken=True, target=0x40)

    def episode(take_first):
        trace = [alu(0), br.clone_arch(), alu(0x11), br.clone_arch()]
        f = make_fetch(trace)
        f.tick(0)                     # mispredict -> wrong-path mode
        for cycle in range(1, 4):
            f.tick(cycle)             # three virtual wrong-path groups
        if take_first:
            take(f, 3 + f.depth, 10)
        f.redirect(20)
        f.tick(22)                    # next correct-path group (+ branch)
        assert f.wrong_path           # second mispredict
        f.tick(23)
        return [(u.srcs[0], u.dst) for u in take(f, 23 + f.depth, 30)
                if u.wrong_path]

    first = episode(take_first=False)
    second = episode(take_first=True)
    assert first and first == second


def test_redirect_clears_and_stalls():
    br = MicroOp(0, 0x10, OpClass.BRANCH, srcs=[1], taken=True, target=0x40)
    f = make_fetch([alu(0), br, alu(0x11)])
    f.tick(0)
    f.tick(1)
    f.redirect(5)
    assert not f.pipe and not f.wrong_path
    f.tick(5)
    assert not f.pipe            # redirect bubble
    f.tick(5 + 2)
    assert f.pipe                # fetch resumed on the correct path
    assert all(not u.wrong_path for u in in_flight(f))


def test_trace_exhaustion_and_done():
    f = make_fetch([alu(0)])
    f.tick(0)
    f.tick(1)
    assert f.trace_exhausted
    assert not f.done            # µop still in the pipe
    take(f, 100, 8)
    assert f.done


def test_refetch_queue_served_before_trace():
    f = make_fetch([alu(5), alu(6)])
    clones = [alu(1), alu(2)]
    f.inject_refetch(clones)
    f.tick(0)
    pcs = [u.pc for u in in_flight(f)]
    assert pcs[:2] == [1, 2]
    assert pcs[2:] == [5, 6]


def test_group_stops_after_second_taken_branch():
    def taken_br(pc):
        return MicroOp(0, pc, OpClass.BRANCH, srcs=[1], taken=True,
                       target=pc + 0x100)
    bu = BranchUnit()
    # Pre-train the BTB/TAGE so both branches predict taken correctly.
    for pc in (0x10, 0x20):
        for _ in range(50):
            u = taken_br(pc)
            u.pred_taken, u.pred_target, u.bp_state = bu.predict(
                u.pc, u.opclass, u.target)
            bu.resolve(u)
    trace = ListTrace([taken_br(0x10), alu(0x11), taken_br(0x20),
                       alu(0x21), alu(0x22)])
    f = FetchStage(trace, bu, CoreConfig(), SimStats())
    f.tick(0)
    # Group must end with the second predicted-taken branch.
    assert len(in_flight(f)) <= 3


def test_squash_all_salvages_row_runs_in_program_order():
    """A violation flush over refetched rows, trace rows and a branch
    between them salvages every correct-path µop, oldest first, as its
    plain row (the branch's without its prediction), which fetch serves
    before the trace."""
    br = MicroOp(0, 0x13, OpClass.BRANCH, srcs=[1], taken=False)
    trace = [alu(0x10), alu(0x11), alu(0x12), br] + [alu(0x14 + i)
                                                      for i in range(8)]
    f = make_fetch(trace)
    f.inject_refetch([alu(0x1), alu(0x2)])
    f.tick(0)
    f.tick(1)
    # One group per fetch cycle: the branch joins its cycle's rows.
    assert [len(entry[2]) for entry in f.pipe] == [8, 6]
    assert not f.wrong_path
    pcs = [0x1, 0x2, 0x10, 0x11, 0x12, 0x13] + [0x14 + i for i in range(8)]
    in_pipe = in_flight(f)
    assert [u.pc for u in in_pipe] == pcs
    f.squash_all(5)
    assert not f.pipe
    assert list(f.replay_queue) == [u.arch_row() for u in in_pipe]
    f.tick(5 + 2)                           # after the redirect bubble
    assert [u.pc for u in in_flight(f)] == pcs[:8]
