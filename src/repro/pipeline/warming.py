"""Functional warming: the one loop behind every warm call.

Functional warming is the wall-time bound of SMARTS-style sampling and
the stand-in for the paper's 50M-instruction warmup. Every warm call —
:meth:`Simulator.functional_warmup`, :meth:`Simulator.fast_forward` and
through them every sampled interval — lands in :func:`warm_stream`. The
OoO backend is bypassed: the stream touches caches and branch
predictors only, which is why throughput sits an order of magnitude
above detailed simulation.

The stream arrives in blocks of plain columns
(:meth:`repro.isa.trace.TraceSource.next_record_block`): a generated
source's rows transposed with ``zip``, or a recording's records
unpacked in C. The memory µops and branches of a block are picked out
of its columns with ``itertools.compress``, so the Python loops below
visit only the µops that touch state, one arm per kind:

* memory µops: L1 touch-or-fill with LRU stamps, then L2 touch, or on
  an L2 miss stride-prefetcher training and timeless fills of the
  prefetched and demand lines (no MSHR, DRAM or stat effects: warming
  models directory state only); with ``train_policy`` each load's L1
  probe outcome, taken before its own fill, also trains the scheduling
  policy's per-PC hit/miss filter;
* branches: :meth:`BranchUnit.warm`, predict then resolve per branch.

Warming state falls into four islands — L1, L2 and prefetcher, the
policy filter, the branch predictors — and no warming update of one
reads another, so the branch arm may run after the memory arm of the
same block: within each island the updates keep stream order, and the
final ``state_dict()`` is the one a per-µop loop leaves
(``tests/warming`` holds it to such a loop).
"""

from __future__ import annotations

from itertools import compress

from repro.isa.opclass import BRANCH_OPS, OpClass
from repro.isa.trace import TraceSource

#: µops per block. Matches the trace format's frame size
#: (``DEFAULT_FRAME_RECORDS``), so a recording serves whole frames.
BLOCK_UOPS = 4096

_STORE, _LOAD = 1, 2

#: By opclass value: ``_LOAD``, ``_STORE``, or 0 for a µop that is not
#: a memory access.
_MEM_KIND = tuple({OpClass.LOAD: _LOAD, OpClass.STORE: _STORE}.get(op, 0) for op in OpClass)
#: By opclass value: whether the µop is a branch.
_IS_BRANCH = tuple(op in BRANCH_OPS for op in OpClass)


def warm_stream(sim, trace: TraceSource, uops: int, train_policy: bool = False) -> int:
    """Functionally stream ``uops`` µops of ``trace`` through ``sim``.

    Shared by :meth:`Simulator.functional_warmup` and
    :meth:`Simulator.fast_forward`; returns the count actually consumed
    (short when the trace exhausts). With ``train_policy`` each load's
    L1 probe outcome also trains the policy's hit/miss filter, when it
    has one: the filter's saturate-and-silence dynamics span far more
    committed loads than a measurement interval, so leaving it cold
    would bias every filter-gated configuration toward Always-Hit.
    """
    hierarchy = sim.hierarchy
    l1d, l2 = hierarchy.l1d, hierarchy.l2
    l1_sets, l1_assoc = l1d._sets, l1d.assoc
    l1_offset, l1_mask, l1_set_bits = l1d._offset_bits, l1d._index_mask, l1d._set_bits
    l2_sets, l2_assoc = l2._sets, l2.assoc
    l2_offset, l2_mask, l2_set_bits = l2._offset_bits, l2._index_mask, l2._set_bits
    prefetch = hierarchy.prefetcher.train_and_prefetch
    hm_filter = sim.policy.hm_filter if train_policy else None
    train_filter = hm_filter.train if hm_filter is not None else None
    warm_branches = sim.branch_unit.warm
    next_block = trace.next_record_block
    consumed = 0
    while consumed < uops:
        block = next_block(min(BLOCK_UOPS, uops - consumed))
        if block is None:
            break
        consumed += len(block)
        pcs, opclasses, addrs = block.pcs, block.opclasses, block.mem_addrs

        kinds = list(map(_MEM_KIND.__getitem__, opclasses))
        mem = zip(compress(kinds, kinds), compress(pcs, kinds), compress(addrs, kinds))
        l1_stamp, l2_stamp = l1d._stamp, l2._stamp
        for kind, pc, addr in mem:
            line = addr >> l1_offset
            cache_set = l1_sets[line & l1_mask]
            tag = line >> l1_set_bits
            hit = tag in cache_set
            if kind == _LOAD and train_filter is not None:
                train_filter(pc, hit)
            if not hit and len(cache_set) >= l1_assoc:
                del cache_set[min(cache_set, key=cache_set.get)]
            l1_stamp += 1
            cache_set[tag] = l1_stamp

            line = addr >> l2_offset
            cache_set = l2_sets[line & l2_mask]
            tag = line >> l2_set_bits
            if tag not in cache_set:
                # A prefetched line may be the demand line, hence the
                # demand fill's re-check before it evicts.
                for pf_line in prefetch(pc, addr):
                    pf_set = l2_sets[pf_line & l2_mask]
                    pf_tag = pf_line >> l2_set_bits
                    l2_stamp += 1
                    if pf_tag not in pf_set and len(pf_set) >= l2_assoc:
                        del pf_set[min(pf_set, key=pf_set.get)]
                    pf_set[pf_tag] = l2_stamp
                if tag not in cache_set and len(cache_set) >= l2_assoc:
                    del cache_set[min(cache_set, key=cache_set.get)]
            l2_stamp += 1
            cache_set[tag] = l2_stamp
        l1d._stamp, l2._stamp = l1_stamp, l2_stamp

        branches = list(map(_IS_BRANCH.__getitem__, opclasses))
        warm_branches(
            compress(pcs, branches),
            compress(opclasses, branches),
            compress(block.targets, branches),
            compress(block.takens, branches),
        )
    return consumed
