from repro.backend.prf import NEVER, Scoreboard
from repro.isa.opclass import OpClass
from repro.isa.uop import MicroOp


def consumer(psrcs):
    u = MicroOp(0, 0x10, OpClass.INT_ALU, srcs=[0] * len(psrcs), dst=None)
    u.psrcs = list(psrcs)
    return u


def make(n=16):
    woken = []
    sb = Scoreboard(n, on_ready=woken.append)
    return sb, woken


class TestBroadcastAndWakeup:
    def test_initially_ready(self):
        sb, _ = make()
        u = consumer([1, 2])
        assert sb.watch(u) == 0
        assert all(sb.ready[p] for p in u.psrcs)
        assert all(sb.data_ready_at[p] <= 0 for p in u.psrcs)

    def test_broadcast_then_event_fires(self):
        sb, woken = make()
        sb.broadcast(3, wake_cycle=10, data_ready_exec=15)
        u = consumer([3])
        assert sb.watch(u) == 1
        sb.tick(9)
        assert not woken
        sb.tick(10)
        assert woken == [u]
        assert sb.ready[3]

    def test_multi_source_waits_for_all(self):
        sb, woken = make()
        sb.broadcast(3, 10, 15)
        sb.broadcast(4, 12, 17)
        u = consumer([3, 4])
        sb.watch(u)
        sb.tick(10)
        assert not woken
        sb.tick(12)
        assert woken == [u]

    def test_duplicate_source(self):
        sb, woken = make()
        sb.broadcast(3, 10, 15)
        u = consumer([3, 3])
        assert sb.watch(u) == 2
        sb.tick(10)
        assert woken == [u]


class TestSquashSemantics:
    def test_unready_cancels_stale_event(self):
        sb, woken = make()
        sb.broadcast(3, 10, 15)
        u = consumer([3])
        sb.watch(u)
        sb.unready(3)                    # producer squashed
        sb.tick(10)                      # stale event must not fire
        assert not woken
        assert not sb.ready[3]
        assert sb.data_ready_at[3] == NEVER

    def test_rebroadcast_after_unready(self):
        sb, woken = make()
        sb.broadcast(3, 10, 15)
        u = consumer([3])
        sb.watch(u)
        sb.unready(3)
        sb.broadcast(3, 20, 25)          # replayed producer
        sb.tick(10)
        assert not woken
        sb.tick(20)
        assert woken == [u]

    def test_drop_waiter_then_rewatch(self):
        sb, woken = make()
        sb.broadcast(3, 10, 15)
        u = consumer([3])
        sb.watch(u)
        sb.drop_waiter(u)
        assert sb.watch(u) == 1          # re-armed exactly once
        sb.tick(10)
        assert woken == [u]
        assert u.pending == 0

    def test_dead_waiter_skipped(self):
        sb, woken = make()
        sb.broadcast(3, 10, 15)
        u = consumer([3])
        sb.watch(u)
        u.dead = True
        sb.tick(10)
        assert not woken


class TestDataValidity:
    def test_data_ready_check(self):
        sb, _ = make()
        sb.broadcast(5, 10, data_ready_exec=15)
        u = consumer([5])
        sb.tick(10)
        # Execute refuses a µop before its sources' data is valid.
        assert [sb.data_ready_at[p] for p in u.psrcs] == [15]

    def test_rebroadcast_after_unready(self):
        sb, _ = make()
        sb.unready(7)
        sb.broadcast(7, wake_cycle=5, data_ready_exec=5)
        sb.tick(5)
        u = consumer([7])
        assert sb.watch(u) == 0
        assert sb.data_ready_at[7] == 5

    def test_same_cycle_wakeups_all_fire(self):
        sb, woken = make()
        sb.broadcast(1, 3, 4)
        sb.broadcast(2, 3, 4)
        u = consumer([1, 2])
        assert sb.watch(u) == 2
        sb.tick(3)
        assert sb.ready[1] and sb.ready[2]
        assert woken == [u] and u.pending == 0
