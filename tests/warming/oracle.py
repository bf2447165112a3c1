"""The per-µop reference loop of functional warming.

:func:`functional_stream` reads the stream one ``MicroOp`` at a time
(:meth:`~repro.isa.trace.TraceSource.next_uop`) and warms through the
components' own methods: ``SetAssocCache.fill`` on a miss, the
prefetcher's ``train_and_prefetch``, ``BranchUnit.predict`` then
``resolve``, ``HitMissFilter.train``. Its semantics define what warming
means; production warming (:func:`repro.pipeline.warming.warm_stream`)
must leave every component byte-identical to it, which
``tests/warming/test_equivalence.py`` and ``tests/rv32i`` check.
"""

from __future__ import annotations

from repro.isa.trace import TraceSource


def functional_stream(sim, trace: TraceSource, uops: int, train_policy: bool = False) -> int:
    """Stream ``uops`` µops of ``trace`` through ``sim``'s caches and
    branch predictors without timing; returns the count actually
    consumed (short when the trace exhausts).

    With ``train_policy`` each load's L1 probe outcome also trains the
    scheduling policy's per-PC hit/miss filter, when it has one, before
    the line is installed.
    """
    l1d, l2 = sim.hierarchy.l1d, sim.hierarchy.l2
    train = sim.hierarchy.prefetcher.train_and_prefetch
    branch_unit = sim.branch_unit
    hm_filter = sim.policy.hm_filter if train_policy else None
    line_bytes = sim.config.memory.l2.line_bytes
    for consumed in range(uops):
        uop = trace.next_uop()
        if uop is None:
            return consumed
        if uop.is_mem:
            if hm_filter is not None and uop.is_load:
                hm_filter.train(uop.pc, l1d.probe(uop.mem_addr))
            l1d.fill(uop.mem_addr)          # a hit is an LRU touch
            if not l2.lookup(uop.mem_addr):
                for line in train(uop.pc, uop.mem_addr):
                    l2.fill(line * line_bytes)
                l2.fill(uop.mem_addr)
        elif uop.is_branch:
            uop.pred_taken, uop.pred_target, uop.bp_state = branch_unit.predict(
                uop.pc, uop.opclass, uop.target)
            branch_unit.resolve(uop)
    return uops
