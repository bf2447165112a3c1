"""Bank-conflict model tests — the Section 3.1/4.2 rules, including the
paper's worked queueing example."""

from repro.memory.banks import BankScheduler, bank_of, set_of


def addr(bank: int, set_idx: int) -> int:
    """Compose an address with the given bank [5:3] and set [11:6] bits."""
    return (set_idx << 6) | (bank << 3)


class TestAddressMapping:
    def test_bank_bits(self):
        assert bank_of(0x00, 8) == 0
        assert bank_of(0x08, 8) == 1
        assert bank_of(0x38, 8) == 7
        assert bank_of(0x40, 8) == 0      # next line, same offset

    def test_set_bits(self):
        assert set_of(0x000, 64, 64) == 0
        assert set_of(0x040, 64, 64) == 1
        assert set_of(0x1000 + 0x40 * 63, 64, 64) == (64 + 63) % 64


class TestConflictRules:
    """The conflict rule, as the delay of the second of two same-cycle
    accesses."""

    @staticmethod
    def second_delay(b, first, second):
        assert b.access(first, 10) == 0
        return b.access(second, 10)

    def test_same_bank_different_set_conflicts(self):
        b = BankScheduler()
        assert self.second_delay(b, addr(3, 1), addr(3, 2)) == 1

    def test_same_set_does_not_conflict(self):
        # Rivers line buffer: two reads to the same set may proceed.
        b = BankScheduler()
        assert self.second_delay(b, addr(3, 5), addr(3, 5)) == 0

    def test_different_bank_does_not_conflict(self):
        b = BankScheduler()
        assert self.second_delay(b, addr(1, 4), addr(2, 4)) == 0

    def test_unbanked_never_conflicts(self):
        b = BankScheduler(banked=False)
        assert self.second_delay(b, addr(3, 1), addr(3, 2)) == 0


class TestAccessScheduling:
    def test_pair_conflict_delays_second(self):
        b = BankScheduler()
        assert b.access(addr(0, 1), 100) == 0
        assert b.access(addr(0, 2), 100) == 1

    def test_same_set_pair_no_delay(self):
        b = BankScheduler()
        assert b.access(addr(0, 1), 100) == 0
        assert b.access(addr(0, 1) + 8 * 0, 100) == 0

    def test_different_banks_no_delay(self):
        b = BankScheduler()
        assert b.access(addr(0, 1), 100) == 0
        assert b.access(addr(1, 1), 100) == 0

    def test_port_limit_two_per_cycle(self):
        b = BankScheduler()
        assert b.access(addr(0, 1), 50) == 0
        assert b.access(addr(1, 1), 50) == 0
        # Third access this cycle: all ports busy even on a free bank.
        assert b.access(addr(2, 1), 50) == 1

    def test_paper_queueing_example(self):
        """Section 3.1: conflicting pair at cycle 0; two more loads at
        cycle 1 conflicting with the buffered load. The last proceeds at
        cycle 3."""
        b = BankScheduler()
        assert b.access(addr(0, 1), 0) == 0      # load A: cycle 0
        assert b.access(addr(0, 2), 0) == 1      # load B: buffered, cycle 1
        assert b.access(addr(0, 3), 1) == 1      # load C: cycle 2
        assert b.access(addr(0, 4), 1) == 2      # load D: cycle 3

    def test_paper_example_port_variant(self):
        """If the younger loads do NOT conflict with the buffered load,
        one still queues: the cache services only two accesses/cycle."""
        b = BankScheduler()
        b.access(addr(0, 1), 0)
        assert b.access(addr(0, 2), 0) == 1      # buffered to cycle 1
        assert b.access(addr(1, 3), 1) == 0      # different bank: fits
        assert b.access(addr(2, 4), 1) == 1      # port limit pushes to 2

    def test_delays_accumulate_in_one_bank(self):
        b = BankScheduler()
        assert [b.access(addr(0, s), 0) for s in (1, 2, 3)] == [0, 1, 2]

    def test_prune_keeps_behaviour(self):
        b = BankScheduler()
        for t in range(0, 10_000, 2):
            b.access(addr(0, (t // 2) % 60 + 1), t)
        # after pruning, current-cycle scheduling still works
        assert b.access(addr(0, 61), 10_000) == 0
        assert b.access(addr(0, 62), 10_000) == 1
