"""The cycle's port table, as Issue's select walks it."""

from repro.isa.opclass import FuKind, OpClass
from repro.isa.trace import ListTrace
from repro.isa.uop import MicroOp
from repro.pipeline.cpu import Simulator
from repro.pipeline.stages import Issue
from tests.conftest import spec_config


class RecordingIssue(Issue):
    """Keeps the ``loads_before`` each issued load was handed."""

    def __init__(self, sim) -> None:
        super().__init__(sim)
        self.loads_before = []

    def _do_issue(self, uop, now: int, loads_before: int) -> None:
        if uop.is_load:
            self.loads_before.append(loads_before)
        super()._do_issue(uop, now, loads_before)


def make(**core):
    return Simulator(spec_config(**core), ListTrace([]),
                     stage_overrides={"issue": RecordingIssue})


def select(sim, opclasses, now=0, new_cycle=True):
    """Put one ready µop per opclass in the IQ and run one select;
    returns which of them issued (the rest leave the IQ)."""
    if new_cycle:
        sim.fus.new_cycle()
    base = sim.fus.counts[FuKind.ALU] * 1000 + now * 100
    uops = [MicroOp(base + i, 0x10 + i, op) for i, op in enumerate(opclasses)]
    for uop in uops:
        sim.iq.insert(uop)
        sim.iq.make_ready(uop)
    issue = sim.stage("issue")
    issue._issue_from(sim.iq.take_ready(), issue.width, now)
    for uop in uops:
        if uop.in_iq:
            sim.iq.release(uop)
    return [uop.num_issues == 1 for uop in uops]


def test_alu_count():
    assert select(make(), [OpClass.INT_ALU] * 5) == [True] * 4 + [False]


def test_load_ports_and_loads_before():
    sim = make()
    assert select(sim, [OpClass.LOAD] * 3) == [True, True, False]
    assert sim.stage("issue").loads_before == [0, 1]
    assert sim.fus.used[FuKind.LOAD_PORT] == 2


def test_store_port_single():
    assert select(make(), [OpClass.STORE] * 2) == [True, False]


def test_new_cycle_resets_ports():
    sim = make()
    select(sim, [OpClass.INT_ALU] * 4)
    assert select(sim, [OpClass.INT_ALU] * 4, now=1) == [True] * 4
    assert select(sim, [OpClass.INT_ALU], now=1, new_cycle=False) == [False]


def test_branches_share_alu_ports():
    assert select(make(), [OpClass.BRANCH] * 4 + [OpClass.INT_ALU]) == [True] * 4 + [False]


def test_issue_width_bounds_select():
    ops = [OpClass.INT_ALU] * 4 + [OpClass.FP_ADD] * 2 + [OpClass.LOAD]
    assert select(make(), ops) == [True] * 6 + [False]


def test_unpipelined_divider_blocks():
    sim = make()
    assert select(sim, [OpClass.INT_DIV]) == [True]
    # Divider busy for 25 cycles: the next div is refused, then granted.
    assert select(sim, [OpClass.INT_DIV], now=1) == [False]
    assert select(sim, [OpClass.INT_DIV], now=25) == [True]


def test_refused_divider_leaves_its_port_slot_free():
    sim = make()
    select(sim, [OpClass.INT_DIV])
    assert select(sim, [OpClass.INT_DIV, OpClass.INT_MUL], now=1) == [False, True]


def test_pipelined_mul_not_blocked():
    sim = make()
    assert select(sim, [OpClass.INT_MUL]) == [True]
    assert select(sim, [OpClass.INT_MUL], now=1) == [True]


def test_fp_divider_separate_units():
    sim = make()
    # Two FPMulDiv units: two divs in a cycle, a third refused.
    assert select(sim, [OpClass.FP_DIV] * 3) == [True, True, False]
    assert select(sim, [OpClass.FP_DIV], now=1) == [False]
    assert select(sim, [OpClass.FP_DIV], now=10) == [True]


def test_claim_unpipelined_blocks_for_the_latency():
    fus = make().fus
    assert fus.claim_unpipelined(FuKind.MULDIV, OpClass.INT_DIV, 0)
    assert not fus.claim_unpipelined(FuKind.MULDIV, OpClass.INT_DIV, 24)
    assert fus.claim_unpipelined(FuKind.MULDIV, OpClass.INT_DIV, 25)


def test_state_holds_the_table_and_busy_units_only():
    sim = make()
    select(sim, [OpClass.INT_DIV, OpClass.LOAD])
    state = sim.fus.state_dict()
    assert set(state) == {"used", "busy_until"}
    other = make().fus
    other.load_state_dict(state)
    assert other.state_dict() == state
