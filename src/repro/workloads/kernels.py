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
buffers them in its :class:`~repro.isa.trace.TraceSource` row buffer;
the detailed machine builds a ``MicroOp`` from a row only when Rename
takes it, and functional warming and trace capture turn rows straight
into record arrays.

A kernel builds what its blocks share once, at construction (its
``_plan``): the pcs, the ``srcs`` lists and destinations of every
position, every row that never varies (ALU work, filler) and both
outcomes of each branch (:meth:`Kernel._branch_rows`). A block then
allocates only the rows that vary, such as a load with its address, and
otherwise repeats the shared tuples, so a frontend flooded with fetched
rows holds one tuple slot per invariant µop. Rows are read-only
(:data:`repro.isa.trace.Row`).
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.isa.opclass import OpClass
from repro.isa.trace import Row

LINE = 64


class Kernel:
    """Base: a block generator bound to PC/register/address regions.

    A kernel's registers are ``REG_WINDOW`` consecutive ones from
    ``reg_base``: integer registers for addresses and the loop-closing
    branch, and for values the FP window 32 above when ``fp``. Each ``_emit``
    reads the window bases and the ALU opclass, fixed at construction,
    straight off the kernel.

    A subclass ends its ``__init__`` by building ``_plan``, the rows and
    row parts its blocks share (in a layout of its own, documented
    where it is built), and ``_loop``, its loop-closing branch's rows by
    outcome (:meth:`_branch_rows`; :class:`BranchKernel` keeps its
    branches in ``_plan``). ``_emit`` then allocates only the rows that
    vary."""

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
        # The srcs of the loop branch and of every load addressed off
        # ``reg_base``: one list for all their rows.
        self._addr_srcs = [reg_base]

    # -- block emission ----------------------------------------------------

    def next_block(self) -> List[Row]:
        block = self._emit()
        self._iteration += 1
        return block

    def _emit(self) -> List[Row]:
        raise NotImplementedError

    def _branch_rows(self, pc: int, srcs: List[int]) -> Tuple[Row, Row]:
        """The rows of a branch at ``pc`` reading ``srcs``, indexed by
        its outcome: falling through, and taken back to ``pc_base``."""
        return ((pc, OpClass.BRANCH, srcs, None, 0, 8, False, pc + 1),
                (pc, OpClass.BRANCH, srcs, None, 0, 8, True, self.pc_base))

    def _alu_row(self, pc: int, srcs: List[int], dst: int) -> Row:
        return (pc, self._alu, srcs, dst, 0, 8, False, 0)

    # -- state protocol (repro.checkpoint) -------------------------------

    #: Attributes :meth:`state_dict` leaves out: the RNG (saved as its
    #: state), the constants ``__init__`` derives and the rows and row
    #: parts built from them (``_plan``, ``_loop``).
    _NOT_STATE = frozenset(("rng", "_value_base", "_alu", "_addr_srcs",
                            "_plan", "_loop"))

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
        # Per unrolled step: (load pc, stream, value register, the
        # accumulating ALU row).
        base = self._value_base
        acc = base if self.serial_acc else base + 4
        pc = self.pc_base
        plan = []
        for u in range(self.unroll):
            value_reg = base + 1 + u % 3
            srcs = [acc, value_reg] if self.serial_acc else [value_reg]
            plan.append((pc, u % self.streams, value_reg,
                         self._alu_row(pc + 1, srcs, acc)))
            pc += 2
        self._plan = tuple(plan)
        self._loop = self._branch_rows(pc, self._addr_srcs)

    def _emit(self) -> List[Row]:
        block: List[Row] = []
        append = block.append
        addr_srcs, addr_base = self._addr_srcs, self.addr_base
        offsets, stride, ws_bytes = self._offsets, self.stride, self.ws_bytes
        load = OpClass.LOAD
        for pc, stream, value_reg, alu_row in self._plan:
            offset = offsets[stream]
            offsets[stream] = (offset + stride) % ws_bytes
            append((pc, load, addr_srcs, value_reg, addr_base + offset, 8,
                    False, 0))
            append(alu_row)
        append(self._loop[self._iteration % 64 != 63])
        return block


class PointerChaseKernel(Kernel):
    """Serially dependent loads (mcf/omnetpp-like)."""

    def __init__(self, *args, ws_lines: int = 1 << 17, work: int = 2,
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.ws_lines = ws_lines
        self.work = work
        self._idx = 1
        # The chase load's srcs (its pointer register) and the work
        # chain's rows.
        ptr = self.reg_base + 1
        pc, prev, work_rows = self.pc_base, ptr, []
        for w in range(self.work):
            pc += 1
            dst = self._value_base + 2 + w % 2
            work_rows.append(self._alu_row(pc, [prev], dst))
            prev = dst
        self._plan = ([ptr], tuple(work_rows))
        self._loop = self._branch_rows(pc + 1, self._addr_srcs)

    def _next_index(self) -> int:
        # Full-period LCG over the (power-of-two) line index space.
        self._idx = (self._idx * 1103515245 + 12345) % self.ws_lines
        return self._idx

    def _emit(self) -> List[Row]:
        addr = self.addr_base + self._next_index() * LINE
        ptr_srcs, work_rows = self._plan
        # The load's address source is the previous load's destination —
        # a genuinely serial chain.
        block: List[Row] = [(self.pc_base, OpClass.LOAD, ptr_srcs,
                             ptr_srcs[0], addr, 8, False, 0)]
        block += work_rows
        block.append(self._loop[self._iteration % 32 != 31])
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
        # A block's layout by its ALU work per load (cold phases do none).
        self._plan = {work: self._layout(work) for work in {work_per_load, 0}}

    def _layout(self, work: int):
        """The rows a block with ``work`` ALU µops per load shares: per
        load, (index-load pc or ``None``, data-load pc, data-load srcs,
        value register, work rows); then the loop branch's rows."""
        base, int_base = self._value_base, self.reg_base
        data_srcs = [int_base + 5] if self.indirect else self._addr_srcs
        pc = self.pc_base
        loads = []
        for i in range(self.loads):
            index_pc = None
            if self.indirect:
                index_pc, pc = pc, pc + 1
            value_reg = base + 1 + i % 3
            load_pc, pc = pc, pc + 1
            work_rows = []
            for w in range(work):
                work_rows.append(
                    self._alu_row(pc, [value_reg], base + 4 + w % 2))
                pc += 1
            loads.append((index_pc, load_pc, data_srcs, value_reg,
                          tuple(work_rows)))
        return tuple(loads), self._branch_rows(pc, self._addr_srcs)

    def _in_hot_phase(self) -> bool:
        if not self.phase_blocks:
            return False
        return (self._iteration // self.phase_blocks) % 2 == 0

    def _emit(self) -> List[Row]:
        block: List[Row] = []
        append = block.append
        addr_base, index_srcs = self.addr_base, self._addr_srcs
        index_reg = self.reg_base + 5
        randrange = self.rng.randrange
        load = OpClass.LOAD
        hot = self._in_hot_phase()
        lines = self.hot_lines if hot else self.ws_lines
        # Cold phases are load-dominated (the gather loop is traversing
        # cold data and does little compute per element), which is what
        # produces the dense miss *cycles* the global counter keys on.
        work_per_load = self.work_per_load if (hot or not self.phase_blocks) \
            else 0
        loads, loop = self._plan[work_per_load]
        for index_pc, load_pc, data_srcs, value_reg, work_rows in loads:
            line = randrange(lines)
            offset = randrange(LINE // 8) * 8
            if index_pc is not None:
                # Index load: small strided table, L1-resident, feeds the
                # data load's address register.
                self._index_cursor = (self._index_cursor + 8) % (
                    self.INDEX_LINES * LINE)
                append((index_pc, load, index_srcs, index_reg,
                        addr_base + self._index_cursor, 8, False, 0))
            append((load_pc, load, data_srcs, value_reg,
                    addr_base + line * LINE + offset, 8, False, 0))
            block += work_rows
        append(loop[self._iteration % 16 != 15])
        return block


class ComputeKernel(Kernel):
    """Dependency chains with tunable ILP, no memory (namd/gamess-like)."""

    def __init__(self, *args, chains: int = 3, chain_len: int = 4,
                 mul_every: int = 0, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.chains = min(chains, self.REG_WINDOW - 1)
        self.chain_len = chain_len
        self.mul_every = mul_every
        # Every row but the loop branch: a block never varies.
        chains, mul_every = self.chains, self.mul_every
        mul = OpClass.FP_MUL if self.fp else OpClass.INT_MUL
        regs = [self._value_base + 1 + chain for chain in range(chains)]
        chain_srcs = [[reg] for reg in regs]
        pc = self.pc_base
        rows = []
        for step in range(self.chain_len):
            for chain in range(chains):
                opclass = self._alu
                if mul_every and (step * chains + chain) \
                        % mul_every == mul_every - 1:
                    opclass = mul
                rows.append((pc, opclass, chain_srcs[chain], regs[chain],
                             0, 8, False, 0))
                pc += 1
        self._plan = tuple(rows)
        self._loop = self._branch_rows(pc, self._addr_srcs)

    def _emit(self) -> List[Row]:
        block: List[Row] = list(self._plan)
        block.append(self._loop[self._iteration % 64 != 63])
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
        # Per pair: its two loads as (pc, stream, bank shift, value
        # register), then its filler rows.
        base = self._value_base
        filler_srcs = [[base + 1 + f % 3] for f in range(self.filler)]
        pc = self.pc_base
        plan = []
        for u in range(self.unroll):
            sides = []
            for side in range(2):
                sides.append((pc, side % self.streams,
                              0 if self.same_bank else side,
                              base + 1 + (2 * u + side) % 3))
                pc += 1
            fillers = []
            for srcs in filler_srcs:
                fillers.append(self._alu_row(pc, srcs, base + 4))
                pc += 1
            plan.append((tuple(sides), tuple(fillers)))
        self._plan = tuple(plan)
        self._loop = self._branch_rows(pc, self._addr_srcs)

    def _emit(self) -> List[Row]:
        block: List[Row] = []
        append = block.append
        addr_base, addr_srcs = self.addr_base, self._addr_srcs
        lines, ws_lines = self._line, self.ws_lines
        load = OpClass.LOAD
        first_bank = self._iteration * self.unroll
        for u, (sides, fillers) in enumerate(self._plan):
            bank = (first_bank + u) % 8
            for pc, stream, shift, value_reg in sides:
                line = lines[stream] % ws_lines
                lines[stream] += 1
                offset = (bank + shift) % 8 * 8
                append((pc, load, addr_srcs, value_reg,
                        addr_base + line * LINE + offset, 8, False, 0))
            block += fillers
        append(self._loop[self._iteration % 64 != 63])
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
        # Per branch: its filler rows, then its rows by outcome.
        base = self._value_base
        filler_srcs = [[base + 1 + f % 2] for f in range(self.filler)]
        branch_srcs = [base + 1]
        pc = self.pc_base
        plan = []
        for _ in range(self.branches):
            fillers = []
            for srcs in filler_srcs:
                fillers.append(self._alu_row(pc, srcs, srcs[0]))
                pc += 1
            plan.append((tuple(fillers), self._branch_rows(pc, branch_srcs)))
            pc += 1
        self._plan = tuple(plan)

    def _emit(self) -> List[Row]:
        block: List[Row] = []
        iteration, period = self._iteration, self.period
        random, noise = self.rng.random, self.noise
        for b, (fillers, branch) in enumerate(self._plan):
            block += fillers
            pattern = (iteration + b) % period != 0
            block.append(branch[pattern ^ (random() < noise)])
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
        # The store's srcs, then per pair: the data chain's rows, the
        # store's pc and the load's pc.
        data_reg = self._value_base + 1
        data_srcs = [data_reg]
        pc = self.pc_base
        plan = []
        for _ in range(self.pairs):
            chain_rows = []
            for _ in range(self.chain):
                chain_rows.append(self._alu_row(pc, data_srcs, data_reg))
                pc += 1
            plan.append((tuple(chain_rows), pc, pc + 1))
            pc += 2
        self._plan = ([self.reg_base, data_reg], tuple(plan))
        self._loop = self._branch_rows(pc, self._addr_srcs)

    def _emit(self) -> List[Row]:
        block: List[Row] = []
        append = block.append
        addr_base, addr_srcs = self.addr_base, self._addr_srcs
        buffer_bytes = self.buffer_bytes
        load_dst = self._value_base + 3
        random, randrange = self.rng.random, self.rng.randrange
        store_srcs, pairs = self._plan
        for chain_rows, store_pc, load_pc in pairs:
            self._cursor = (self._cursor + 8) % buffer_bytes
            store_addr = addr_base + self._cursor
            block += chain_rows
            append((store_pc, OpClass.STORE, store_srcs, None, store_addr, 8,
                    False, 0))
            if random() < self.alias_prob:
                load_addr = store_addr
            else:
                load_addr = addr_base + randrange(buffer_bytes // 8) * 8
            append((load_pc, OpClass.LOAD, addr_srcs, load_dst, load_addr, 8,
                    False, 0))
        append(self._loop[self._iteration % 32 != 31])
        return block
