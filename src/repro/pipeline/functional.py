"""Functional (timing-free) µop streaming: the scalar reference loop.

The OoO backend is bypassed entirely: the stream touches caches and
branch predictors only, which is why throughput sits an order of
magnitude above detailed simulation. Production warming —
:meth:`Simulator.functional_warmup` (the paper's 50M-instruction warmup
analogue, no policy training) and :meth:`Simulator.fast_forward`
(SMARTS-style warming on the simulator's own trace, additionally
training the scheduling policy's per-PC hit/miss filter) — runs the
numpy block kernels of :mod:`repro.pipeline.warming.engine`.

This per-µop loop is the **reference oracle** for functional warming:
the kernels must leave every component bit-identical to what this loop
produces. The equivalence suite under ``tests/warming/`` compares the
two; perfbench's ``warming.*`` layers (``perfbench/run.py --trace 1``)
time the kernels. Keep any state-effect change here mirrored there.
"""

from __future__ import annotations

from repro.isa.trace import TraceSource


def functional_stream(sim, trace: TraceSource, uops: int, train_policy: bool = False) -> int:
    """Stream ``uops`` µops of ``trace`` through ``sim``'s caches and
    branch predictors without timing; returns the count actually
    consumed (short when the trace exhausts).

    With ``train_policy`` each load's L1 probe outcome also trains the
    scheduling policy's per-PC hit/miss filter, when it has one — the
    filter's saturate-and-silence dynamics span far more committed loads
    than a measurement interval, so leaving it cold would bias every
    filter-gated configuration toward Always-Hit behaviour.
    """
    # The memory path is inlined against the cache internals (the
    # exact fill/probe semantics of SetAssocCache, hit path only).
    # State effects are identical to calling fill()/probe().
    l1d, l2 = sim.hierarchy.l1d, sim.hierarchy.l2
    l1d_fill, l2_fill = l1d.fill, l2.fill
    l1_offset = l1d._offset_bits
    l1_mask = l1d._index_mask
    l1_set_bits = l1d._set_bits
    l1_sets = l1d._sets
    l2_offset = l2._offset_bits
    l2_mask = l2._index_mask
    l2_set_bits = l2._set_bits
    l2_sets = l2._sets
    train = sim.hierarchy.prefetcher.train_and_prefetch
    predict = sim.branch_unit.predict
    resolve = sim.branch_unit.resolve
    hm_filter = sim.policy.hm_filter if train_policy else None
    train_filter = hm_filter.train if hm_filter is not None else None
    next_uop = trace.next_uop
    line_bytes = sim.config.memory.l2.line_bytes
    for consumed in range(uops):
        uop = next_uop()
        if uop is None:
            return consumed
        if uop.is_mem:
            addr = uop.mem_addr
            l1_line = addr >> l1_offset
            l1_set = l1_sets[l1_line & l1_mask]
            l1_tag = l1_line >> l1_set_bits
            if train_filter is not None and uop.is_load:
                # The probe outcome is what a detailed run would have
                # committed (modulo in-flight effects): train the
                # per-PC filter on it before the line is installed.
                train_filter(uop.pc, l1_tag in l1_set)
            if l1_tag in l1_set:  # fill() hit path: LRU touch
                l1d._stamp += 1
                l1_set[l1_tag] = l1d._stamp
            else:
                l1d_fill(addr)
            l2_line = addr >> l2_offset
            l2_set = l2_sets[l2_line & l2_mask]
            l2_tag = l2_line >> l2_set_bits
            if l2_tag in l2_set:  # probe hit: fill() = touch
                l2._stamp += 1
                l2_set[l2_tag] = l2._stamp
            else:
                for line in train(uop.pc, addr):
                    l2_fill(line * line_bytes)
                l2_fill(addr)
        elif uop.is_branch:
            uop.pred_taken, uop.pred_target, uop.bp_state = predict(uop.pc, uop.opclass, uop.target)
            resolve(uop)
    return uops
