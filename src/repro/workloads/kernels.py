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

A block is a list of plain rows (:data:`repro.isa.trace.Row`), not
:class:`~repro.isa.uop.MicroOp` objects. A row holds the ``MicroOp``
positional arguments after ``seq``: ``(pc, opclass, srcs, dst, mem_addr,
mem_size, taken, target)``. :class:`~repro.workloads.spec.WorkloadTrace`
buffers them in its :class:`~repro.isa.trace.TraceSource` row buffer,
which builds a ``MicroOp`` from a row only when the detailed machine
fetches it; functional warming and trace capture turn rows straight into
record arrays.
"""

from __future__ import annotations

import random
from typing import List

from repro.isa.opclass import OpClass
from repro.isa.trace import Row

LINE = 64


class Kernel:
    """Base: a block generator bound to PC/register/address regions.

    A kernel's registers are ``REG_WINDOW`` consecutive ones from
    ``reg_base``: integer registers for addresses and the loop-closing
    branch, and for values the FP window 32 above when ``fp``. Each ``_emit``
    reads the window bases and the ALU opclass, fixed at construction,
    straight off the kernel."""

    #: registers a kernel may use inside its window
    REG_WINDOW = 6

    def __init__(self, pc_base: int, reg_base: int, addr_base: int,
                 rng: random.Random, fp: bool = False) -> None:
        self.pc_base = pc_base
        self.reg_base = reg_base
        self.addr_base = addr_base
        self.rng = rng
        self.fp = fp
        self._iteration = 0
        # Derived from the above, so not part of the checkpoint state.
        self._value_base = reg_base + (32 if fp else 0)
        self._alu = OpClass.FP_ADD if fp else OpClass.INT_ALU

    # -- block emission ----------------------------------------------------

    def next_block(self) -> List[Row]:
        block = self._emit()
        self._iteration += 1
        return block

    def _emit(self) -> List[Row]:
        raise NotImplementedError

    def _branch(self, pc: int, taken: bool) -> Row:
        """The loop-closing branch at ``pc``: back to ``pc_base`` when
        taken."""
        return (pc, OpClass.BRANCH, [self.reg_base], None, 0, 8,
                taken, self.pc_base if taken else pc + 1)

    # -- state protocol (repro.checkpoint) -------------------------------

    #: Attributes :meth:`state_dict` leaves out: the RNG (saved as its
    #: state) and the constants ``__init__`` derives.
    _NOT_STATE = frozenset(("rng", "_value_base", "_alu"))

    def state_dict(self) -> dict:
        """Every kernel attribute is plain data except the RNG, so one
        generic capture covers all kernel kinds (cursors like
        ``_offsets``/``_idx``/``_cursor`` included)."""
        attrs = {}
        for key, value in self.__dict__.items():
            if key in self._NOT_STATE:
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
        pc = self.pc_base
        base, alu, addr_reg = self._value_base, self._alu, self.reg_base
        offsets = self._offsets
        serial_acc = self.serial_acc
        acc = base if serial_acc else base + 4
        for u in range(self.unroll):
            stream = u % self.streams
            addr = self.addr_base + offsets[stream]
            offsets[stream] = (offsets[stream] + self.stride) % self.ws_bytes
            value_reg = base + 1 + u % 3
            block.append((pc, OpClass.LOAD, [addr_reg], value_reg, addr, 8,
                          False, 0))
            srcs = [acc, value_reg] if serial_acc else [value_reg]
            block.append((pc + 1, alu, srcs, acc, 0, 8, False, 0))
            pc += 2
        block.append(self._branch(pc, taken=self._iteration % 64 != 63))
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
        pc = self.pc_base
        base, alu = self._value_base, self._alu
        addr = self.addr_base + self._next_index() * LINE
        ptr = self.reg_base + 1
        # The load's address source is the previous load's destination —
        # a genuinely serial chain.
        block: List[Row] = [(pc, OpClass.LOAD, [ptr], ptr, addr, 8, False, 0)]
        prev = ptr
        for w in range(self.work):
            pc += 1
            dst = base + 2 + w % 2
            block.append((pc, alu, [prev], dst, 0, 8, False, 0))
            prev = dst
        block.append(self._branch(pc + 1,
                                  taken=self._iteration % 32 != 31))
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
        pc = self.pc_base
        base, alu, int_base = self._value_base, self._alu, self.reg_base
        addr_base = self.addr_base
        randrange = self.rng.randrange
        hot = self._in_hot_phase()
        lines = self.hot_lines if hot else self.ws_lines
        # Cold phases are load-dominated (the gather loop is traversing
        # cold data and does little compute per element), which is what
        # produces the dense miss *cycles* the global counter keys on.
        work_per_load = self.work_per_load if (hot or not self.phase_blocks) \
            else 0
        for i in range(self.loads):
            line = randrange(lines)
            offset = randrange(LINE // 8) * 8
            addr = addr_base + line * LINE + offset
            value_reg = base + 1 + i % 3
            addr_reg = int_base
            if self.indirect:
                # Index load: small strided table, L1-resident, feeds the
                # data load's address register.
                self._index_cursor = (self._index_cursor + 8) % (
                    self.INDEX_LINES * LINE)
                addr_reg = int_base + 5
                block.append((pc, OpClass.LOAD, [int_base], addr_reg,
                              addr_base + self._index_cursor, 8, False, 0))
                pc += 1
            block.append((pc, OpClass.LOAD, [addr_reg], value_reg, addr, 8,
                          False, 0))
            pc += 1
            for w in range(work_per_load):
                block.append((pc, alu, [value_reg], base + 4 + w % 2, 0, 8,
                              False, 0))
                pc += 1
        block.append(self._branch(pc, taken=self._iteration % 16 != 15))
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
        pc = self.pc_base
        base, alu = self._value_base, self._alu
        chains, mul_every = self.chains, self.mul_every
        mul = OpClass.FP_MUL if self.fp else OpClass.INT_MUL
        for step in range(self.chain_len):
            for chain in range(chains):
                reg = base + 1 + chain
                opclass = alu
                if mul_every and (step * chains + chain) \
                        % mul_every == mul_every - 1:
                    opclass = mul
                block.append((pc, opclass, [reg], reg, 0, 8, False, 0))
                pc += 1
        block.append(self._branch(pc, taken=self._iteration % 64 != 63))
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
        pc = self.pc_base
        base, alu, addr_reg = self._value_base, self._alu, self.reg_base
        lines = self._line
        for u in range(self.unroll):
            bank = (self._iteration * self.unroll + u) % 8
            for side in range(2):
                stream = side % self.streams
                line = lines[stream] % self.ws_lines
                lines[stream] += 1
                offset = (bank if self.same_bank else (bank + side) % 8) * 8
                addr = self.addr_base + line * LINE + offset
                value_reg = base + 1 + (2 * u + side) % 3
                block.append((pc, OpClass.LOAD, [addr_reg], value_reg, addr,
                              8, False, 0))
                pc += 1
            for f in range(self.filler):
                block.append((pc, alu, [base + 1 + f % 3], base + 4, 0, 8,
                              False, 0))
                pc += 1
        block.append(self._branch(pc, taken=self._iteration % 64 != 63))
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
        pc = self.pc_base
        base, alu = self._value_base, self._alu
        for b in range(self.branches):
            for f in range(self.filler):
                reg = base + 1 + f % 2
                block.append((pc, alu, [reg], reg, 0, 8, False, 0))
                pc += 1
            pattern = (self._iteration + b) % self.period != 0
            taken = pattern ^ (self.rng.random() < self.noise)
            block.append((pc, OpClass.BRANCH, [base + 1], None, 0, 8, taken,
                          self.pc_base if taken else pc + 1))
            pc += 1
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
        pc = self.pc_base
        base, alu, addr_reg = self._value_base, self._alu, self.reg_base
        data_reg = base + 1
        for p in range(self.pairs):
            self._cursor = (self._cursor + 8) % self.buffer_bytes
            store_addr = self.addr_base + self._cursor
            for c in range(self.chain):
                block.append((pc, alu, [data_reg], data_reg, 0, 8, False, 0))
                pc += 1
            block.append((pc, OpClass.STORE, [addr_reg, data_reg], None,
                          store_addr, 8, False, 0))
            pc += 1
            if self.rng.random() < self.alias_prob:
                load_addr = store_addr
            else:
                load_addr = (self.addr_base
                             + self.rng.randrange(self.buffer_bytes // 8) * 8)
            block.append((pc, OpClass.LOAD, [addr_reg], base + 3, load_addr,
                          8, False, 0))
            pc += 1
        block.append(self._branch(pc, taken=self._iteration % 32 != 31))
        return block
