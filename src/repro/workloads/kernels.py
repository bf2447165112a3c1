"""Parametric µop kernels.

Each kernel owns a PC region and a window of architectural registers, and
emits *blocks* (short basic-block-like µop groups, same PCs every
iteration so the per-PC predictors — hit/miss filter, criticality table,
stride prefetcher, TAGE — see stable static instructions). Kernels differ
in the properties the paper's mechanisms react to:

==================  =========================================================
StreamKernel        sequential loads, accumulation; miss rate set by stride
                    and working-set size; prefetcher-friendly
PointerChaseKernel  serially dependent loads (mcf/omnetpp-like)
RandomLoadKernel    independent loads over a working set (xalancbmk-like
                    when the set exceeds the caches: high ILP + high miss)
ComputeKernel       ALU/FP chains, no memory (namd/gamess-like)
BankConflictKernel  L1-resident streams striding one cache line so every
                    access lands in the same data bank (swim/crafty-like
                    conflict behaviour)
BranchKernel        patterned/noisy conditional branches
StoreLoadKernel     store->load pairs exercising forwarding + store sets
==================  =========================================================

A block is a list of plain rows, not :class:`~repro.isa.uop.MicroOp`
objects. A row holds the ``MicroOp`` positional arguments after ``seq``:
``(pc, opclass, srcs, dst, mem_addr, mem_size, taken, target)``.
:class:`~repro.workloads.spec.WorkloadTrace` builds a ``MicroOp`` from a
row only when the detailed machine fetches it (``MicroOp(0, *row)``);
functional warming and trace capture turn rows straight into record
arrays.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.isa.opclass import OpClass

LINE = 64

#: One emitted µop (the row layout in the module docstring).
Row = Tuple[int, OpClass, List[int], Optional[int], int, int, bool, int]


class Kernel:
    """Base: a block generator bound to PC/register/address regions."""

    #: registers a kernel may use inside its window
    REG_WINDOW = 6

    def __init__(self, name: str, pc_base: int, reg_base: int,
                 addr_base: int, rng: random.Random,
                 fp: bool = False) -> None:
        self.name = name
        self.pc_base = pc_base
        self.reg_base = reg_base
        self.addr_base = addr_base
        self.rng = rng
        self.fp = fp
        self._iteration = 0

    # -- register / pc helpers -------------------------------------------

    def reg(self, i: int) -> int:
        """i-th register of this kernel's window (FP window if ``fp``)."""
        base = self.reg_base + (32 if self.fp else 0)
        return base + (i % self.REG_WINDOW)

    def ireg(self, i: int) -> int:
        """Integer register regardless of the kernel's FP-ness (addresses)."""
        return self.reg_base + (i % self.REG_WINDOW)

    def pc(self, i: int) -> int:
        return self.pc_base + i

    def alu_op(self) -> OpClass:
        return OpClass.FP_ADD if self.fp else OpClass.INT_ALU

    # -- block emission ----------------------------------------------------

    def next_block(self) -> List[Row]:
        block = self._emit()
        self._iteration += 1
        return block

    def _emit(self) -> List[Row]:
        raise NotImplementedError

    def _branch(self, pc_off: int, taken: bool) -> Row:
        return (self.pc(pc_off), OpClass.BRANCH, [self.ireg(0)], None, 0, 8,
                taken, self.pc_base if taken else self.pc(pc_off) + 1)

    # -- state protocol (repro.checkpoint) -------------------------------

    def state_dict(self) -> dict:
        """Every kernel attribute is plain data except the RNG, so one
        generic capture covers all kernel kinds (cursors like
        ``_offsets``/``_idx``/``_cursor`` included)."""
        attrs = {}
        for key, value in self.__dict__.items():
            if key == "rng":
                continue
            attrs[key] = list(value) if isinstance(value, list) else value
        return {"attrs": attrs, "rng": self.rng.getstate()}

    def load_state_dict(self, state: dict) -> None:
        from repro.checkpoint.state import set_rng_state

        for key, value in state["attrs"].items():
            setattr(self, key,
                    list(value) if isinstance(value, list) else value)
        set_rng_state(self.rng, state["rng"])


class StreamKernel(Kernel):
    """Sequential loads + accumulation (swim/libquantum/lbm-like)."""

    def __init__(self, *args, stride: int = 8, ws_lines: int = 256,
                 unroll: int = 4, serial_acc: bool = False,
                 streams: int = 1, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.stride = stride
        self.ws_bytes = ws_lines * LINE
        self.unroll = unroll
        self.serial_acc = serial_acc
        self.streams = max(1, streams)
        self._offsets = [i * (self.ws_bytes // self.streams)
                         for i in range(self.streams)]

    def _emit(self) -> List[Row]:
        block: List[Row] = []
        pc_off = 0
        for u in range(self.unroll):
            stream = u % self.streams
            addr = self.addr_base + self._offsets[stream]
            self._offsets[stream] = (
                self._offsets[stream] + self.stride) % self.ws_bytes
            value_reg = self.reg(1 + (u % 3))
            block.append((self.pc(pc_off), OpClass.LOAD, [self.ireg(0)],
                          value_reg, addr, 8, False, 0))
            pc_off += 1
            acc = self.reg(0) if self.serial_acc else self.reg(4)
            srcs = [acc, value_reg] if self.serial_acc else [value_reg]
            block.append((self.pc(pc_off), self.alu_op(), srcs, acc, 0, 8,
                          False, 0))
            pc_off += 1
        block.append(self._branch(pc_off, taken=self._iteration % 64 != 63))
        return block


class PointerChaseKernel(Kernel):
    """Serially dependent loads (mcf/omnetpp-like)."""

    def __init__(self, *args, ws_lines: int = 1 << 17, work: int = 2,
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.ws_lines = ws_lines
        self.work = work
        self._idx = 1

    def _next_index(self) -> int:
        # Full-period LCG over the (power-of-two) line index space.
        self._idx = (self._idx * 1103515245 + 12345) % self.ws_lines
        return self._idx

    def _emit(self) -> List[Row]:
        block: List[Row] = []
        pc_off = 0
        addr = self.addr_base + self._next_index() * LINE
        ptr = self.ireg(1)
        # The load's address source is the previous load's destination —
        # a genuinely serial chain.
        block.append((self.pc(pc_off), OpClass.LOAD, [ptr], ptr, addr, 8,
                      False, 0))
        pc_off += 1
        prev = ptr
        for w in range(self.work):
            dst = self.reg(2 + (w % 2))
            block.append((self.pc(pc_off), self.alu_op(), [prev], dst, 0, 8,
                          False, 0))
            prev = dst
            pc_off += 1
        block.append(self._branch(pc_off, taken=self._iteration % 32 != 31))
        return block


class RandomLoadKernel(Kernel):
    """Random-address loads over a working set (xalancbmk/art-like).

    With ``indirect=True`` each access is the classic ``a[b[i]]`` gather:
    an index load from a small (L1-resident) table produces the register
    the data load's address comes from — a genuine two-level load chain,
    so the scheduler cannot issue the data load before the index load's
    value arrives. This is what makes conservative scheduling expensive
    (Figure 3): every level of the chain pays the full load-to-use, plus
    the issue-to-execute delay when dependents are not woken speculatively.
    """

    INDEX_LINES = 64    # index table: always L1-resident

    def __init__(self, *args, ws_lines: int = 1 << 15, loads: int = 4,
                 work_per_load: int = 1, indirect: bool = False,
                 phase_blocks: int = 0, hot_lines: int = 64,
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.ws_lines = ws_lines
        self.loads = loads
        self.work_per_load = work_per_load
        self.indirect = indirect
        # Phase behaviour: real programs' misses cluster in time (which is
        # the premise of the Alpha-style global counter, Section 5.2).
        # With phase_blocks > 0 the kernel alternates between a hot phase
        # (addresses from an L1-resident subset) and a cold phase (the
        # full working set).
        self.phase_blocks = phase_blocks
        self.hot_lines = min(hot_lines, ws_lines)
        self._index_cursor = 0

    def _in_hot_phase(self) -> bool:
        if not self.phase_blocks:
            return False
        return (self._iteration // self.phase_blocks) % 2 == 0

    def _emit(self) -> List[Row]:
        block: List[Row] = []
        pc_off = 0
        hot = self._in_hot_phase()
        # Cold phases are load-dominated (the gather loop is traversing
        # cold data and does little compute per element), which is what
        # produces the dense miss *cycles* the global counter keys on.
        work_per_load = self.work_per_load if (hot or not self.phase_blocks) \
            else 0
        for i in range(self.loads):
            line = self.rng.randrange(self.hot_lines if hot
                                      else self.ws_lines)
            offset = self.rng.randrange(LINE // 8) * 8
            addr = self.addr_base + line * LINE + offset
            value_reg = self.reg(1 + (i % 3))
            addr_reg = self.ireg(0)
            if self.indirect:
                # Index load: small strided table, L1-resident, feeds the
                # data load's address register.
                self._index_cursor = (self._index_cursor + 8) % (
                    self.INDEX_LINES * LINE)
                idx_reg = self.ireg(5)
                block.append((self.pc(pc_off), OpClass.LOAD,
                              [self.ireg(0)], idx_reg,
                              self.addr_base + self._index_cursor, 8,
                              False, 0))
                pc_off += 1
                addr_reg = idx_reg
            block.append((self.pc(pc_off), OpClass.LOAD, [addr_reg],
                          value_reg, addr, 8, False, 0))
            pc_off += 1
            for w in range(work_per_load):
                block.append((self.pc(pc_off), self.alu_op(), [value_reg],
                              self.reg(4 + (w % 2)), 0, 8, False, 0))
                pc_off += 1
        block.append(self._branch(pc_off, taken=self._iteration % 16 != 15))
        return block


class ComputeKernel(Kernel):
    """Dependency chains with tunable ILP, no memory (namd/gamess-like)."""

    def __init__(self, *args, chains: int = 3, chain_len: int = 4,
                 mul_every: int = 0, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.chains = min(chains, self.REG_WINDOW - 1)
        self.chain_len = chain_len
        self.mul_every = mul_every

    def _emit(self) -> List[Row]:
        block: List[Row] = []
        pc_off = 0
        for step in range(self.chain_len):
            for chain in range(self.chains):
                reg = self.reg(1 + chain)
                opclass = self.alu_op()
                if self.mul_every and (step * self.chains + chain) \
                        % self.mul_every == self.mul_every - 1:
                    opclass = OpClass.FP_MUL if self.fp else OpClass.INT_MUL
                block.append((self.pc(pc_off), opclass, [reg], reg, 0, 8,
                              False, 0))
                pc_off += 1
        block.append(self._branch(pc_off, taken=self._iteration % 64 != 63))
        return block


class BankConflictKernel(Kernel):
    """L1-resident *pairs* of same-bank, different-set loads.

    Each pair reads two different cache lines whose quadword offset — the
    bank index bits [5:3] — is identical, so when the dual-load issue
    capacity sends both to the L1 in the same cycle they serialize
    (Section 4.2). The bank rotates every pair, so no single bank
    saturates: conflicts are the transient, one-cycle-delay kind that
    Schedule Shifting is designed to absorb (Section 5.1). The working
    set stays L1-resident — these are *hits* that replay.
    """

    def __init__(self, *args, streams: int = 2, ws_lines: int = 128,
                 unroll: int = 2, same_bank: bool = True, filler: int = 2,
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.streams = max(2, streams)
        self.ws_lines = ws_lines
        self.unroll = unroll            # pairs per block
        self.same_bank = same_bank
        self.filler = filler            # ALU µops between pairs
        self._line = [i * (ws_lines // self.streams)
                      for i in range(self.streams)]

    def _emit(self) -> List[Row]:
        block: List[Row] = []
        pc_off = 0
        for u in range(self.unroll):
            bank = (self._iteration * self.unroll + u) % 8
            for side in range(2):
                stream = side % self.streams
                line = self._line[stream] % self.ws_lines
                self._line[stream] += 1
                offset = (bank if self.same_bank else (bank + side) % 8) * 8
                addr = self.addr_base + line * LINE + offset
                value_reg = self.reg(1 + ((2 * u + side) % 3))
                block.append((self.pc(pc_off), OpClass.LOAD, [self.ireg(0)],
                              value_reg, addr, 8, False, 0))
                pc_off += 1
            for f in range(self.filler):
                block.append((self.pc(pc_off), self.alu_op(),
                              [self.reg(1 + f % 3)], self.reg(4), 0, 8,
                              False, 0))
                pc_off += 1
        block.append(self._branch(pc_off, taken=self._iteration % 64 != 63))
        return block


class BranchKernel(Kernel):
    """Conditional branches with a periodic pattern + noise.

    ``noise`` is the probability a branch outcome deviates from its
    period-``period`` pattern — TAGE learns the pattern, so the achieved
    misprediction rate tracks the noise (gobmk/vpr-like at high noise).
    """

    def __init__(self, *args, branches: int = 2, period: int = 8,
                 noise: float = 0.05, filler: int = 2, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.branches = branches
        self.period = max(2, period)
        self.noise = noise
        self.filler = filler

    def _emit(self) -> List[Row]:
        block: List[Row] = []
        pc_off = 0
        for b in range(self.branches):
            for f in range(self.filler):
                block.append((self.pc(pc_off), self.alu_op(),
                              [self.reg(1 + f % 2)], self.reg(1 + f % 2),
                              0, 8, False, 0))
                pc_off += 1
            pattern = (self._iteration + b) % self.period != 0
            taken = pattern ^ (self.rng.random() < self.noise)
            block.append((self.pc(pc_off), OpClass.BRANCH, [self.reg(1)],
                          None, 0, 8, taken,
                          self.pc_base if taken else self.pc(pc_off) + 1))
            pc_off += 1
        return block


class StoreLoadKernel(Kernel):
    """Store->load pairs: forwarding, store sets, occasional violations.

    Stores write a small buffer; loads read it back shortly after. The
    store's data comes off a short dependency chain so it executes late;
    an aggressively issued load initially reads stale data, triggering a
    memory-order violation that trains the store-sets predictor.
    """

    def __init__(self, *args, buffer_lines: int = 16, pairs: int = 2,
                 alias_prob: float = 0.7, chain: int = 2, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.buffer_bytes = buffer_lines * LINE
        self.pairs = pairs
        self.alias_prob = alias_prob
        self.chain = chain
        self._cursor = 0

    def _emit(self) -> List[Row]:
        block: List[Row] = []
        pc_off = 0
        for p in range(self.pairs):
            self._cursor = (self._cursor + 8) % self.buffer_bytes
            store_addr = self.addr_base + self._cursor
            data_reg = self.reg(1)
            for c in range(self.chain):
                block.append((self.pc(pc_off), self.alu_op(), [data_reg],
                              data_reg, 0, 8, False, 0))
                pc_off += 1
            block.append((self.pc(pc_off), OpClass.STORE,
                          [self.ireg(0), data_reg], None, store_addr, 8,
                          False, 0))
            pc_off += 1
            if self.rng.random() < self.alias_prob:
                load_addr = store_addr
            else:
                load_addr = (self.addr_base
                             + self.rng.randrange(self.buffer_bytes // 8) * 8)
            block.append((self.pc(pc_off), OpClass.LOAD, [self.ireg(0)],
                          self.reg(3), load_addr, 8, False, 0))
            pc_off += 1
        block.append(self._branch(pc_off, taken=self._iteration % 32 != 31))
        return block
