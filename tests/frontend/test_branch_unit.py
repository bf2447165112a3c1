from repro.frontend.branch_unit import BranchUnit
from repro.isa.opclass import OpClass
from repro.isa.uop import MicroOp


def branch(pc, taken, target, opclass=OpClass.BRANCH):
    return MicroOp(0, pc, opclass, srcs=[1], taken=taken, target=target)


def predict(bu, uop):
    """Predict ``uop`` and write the prediction onto it, as fetch does."""
    uop.pred_taken, uop.pred_target, uop.bp_state = bu.predict(
        uop.pc, uop.opclass, uop.target)
    return uop.pred_taken, uop.pred_target


def predict_resolve(bu, uop):
    predict(bu, uop)
    return bu.resolve(uop)


class TestConditional:
    def test_learns_taken_branch_with_btb(self):
        bu = BranchUnit()
        mispredicts = 0
        for _ in range(100):
            uop = branch(0x100, taken=True, target=0x80)
            if predict_resolve(bu, uop):
                mispredicts += 1
        assert mispredicts < 10

    def test_btb_miss_forces_not_taken(self):
        bu = BranchUnit()
        uop = branch(0x200, taken=True, target=0x90)
        # TAGE may predict taken, but with no BTB entry the frontend cannot
        # redirect: prediction reported as not-taken -> mispredict.
        pred_taken, pred_target = predict(bu, uop)
        if pred_taken:
            # only possible after install; first lookup must fall through
            raise AssertionError("no target should be available yet")
        assert pred_target == uop.pc + 1

    def test_not_taken_branch(self):
        bu = BranchUnit()
        wrong = 0
        for _ in range(100):
            uop = branch(0x300, taken=False, target=0x99)
            if predict_resolve(bu, uop):
                wrong += 1
        assert wrong < 10


class TestCallReturn:
    def test_call_then_ret_roundtrip(self):
        bu = BranchUnit()
        call = branch(0x1000, True, 0x2000, OpClass.CALL)
        predict(bu, call)
        ret = branch(0x2010, True, 0x1001, OpClass.RET)
        predict(bu, ret)
        assert ret.pred_target == 0x1001       # RAS: call pc + 1

    def test_nested_calls(self):
        bu = BranchUnit()
        for pc in (0x100, 0x200, 0x300):
            c = branch(pc, True, pc + 0x1000, OpClass.CALL)
            predict(bu, c)
        targets = []
        for pc in (0x900, 0x910, 0x920):
            r = branch(pc, True, 0, OpClass.RET)
            _, tgt = predict(bu, r)
            targets.append(tgt)
        assert targets == [0x301, 0x201, 0x101]


class TestRepair:
    def test_mispredict_repairs_history(self):
        bu = BranchUnit()
        # Train a pattern, then check a mispredict doesn't wedge history:
        # subsequent predictions still function and accuracy recovers.
        for i in range(300):
            uop = branch(0x400, taken=(i % 2 == 0), target=0x500)
            predict_resolve(bu, uop)
        late_wrong = 0
        for i in range(300, 400):
            uop = branch(0x400, taken=(i % 2 == 0), target=0x500)
            if predict_resolve(bu, uop):
                late_wrong += 1
        assert late_wrong < 15
