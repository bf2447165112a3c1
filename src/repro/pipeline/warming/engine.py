"""The vectorized functional-warming engine.

The µop stream arrives as record arrays
(:meth:`repro.isa.trace.TraceSource.next_record_block`), one input shape
for every source. Each block is classified and address-decomposed with
numpy kernels (the masks of :mod:`repro.pipeline.warming.blocks`), then
applied to the machine through the components' batch entry points:

* :meth:`SetAssocCache.warm_block` — L1 touch-or-fill with LRU stamps;
* :meth:`MemoryHierarchy.warm_l2_block` — L2 touch / prefetcher-train /
  timeless fill;
* :meth:`SchedulingPolicy.on_load_commits` — hit/miss-filter training on
  the ordered per-load L1 probe outcomes;
* :meth:`BranchUnit.resolve_block` — predict+resolve in stream order;
  the TAGE history folds (the hash math that dominates prediction cost)
  are precomputed for the whole block by :func:`tage_fold_indices`, so
  only the state-dependent table walk stays scalar per element.

**Bit-identity contract.** Functional warming touches four state islands
— L1, L2+prefetcher, the policy filter, and the branch predictors — and
no warming update of one island reads another (the scalar loop in
:mod:`repro.pipeline.functional` is the proof text: each arm is
self-contained). Within one island the batch entry points apply updates
in exact stream order. Reordering *across* islands is therefore free,
and the final ``state_dict()`` — and every checkpoint digest — is byte
identical to the scalar reference's. ``tests/warming`` holds this contract;
extend a batch kernel only with updates that keep per-island stream
order.
"""

from __future__ import annotations

import numpy as np

from repro.isa.trace import TraceSource
from repro.pipeline.warming.blocks import (
    DEFAULT_BLOCK_UOPS,
    IS_BRANCH,
    IS_CALL_OR_RET,
    IS_LOAD,
    IS_MEM,
)


def tage_fold_indices(tage, pcs: np.ndarray, takens: np.ndarray):
    """Per-branch TAGE table indices and partial tags, folded in bulk.

    ``pcs``/``takens`` are one block's *conditional* branches in stream
    order. In functional warming the predictor's global history after
    each resolved branch is normally the actual outcome (a correct
    prediction pushes it directly; a misprediction is repaired to it
    before the next branch), so every branch's history is a prefix of
    ``takens`` appended to the current history — known for the whole
    block up front. The one exception — a BTB-demoted taken prediction
    resolving not-taken keeps the *direction* in history — is caught at
    run time by :meth:`BranchUnit.resolve_block`, which abandons the
    remaining precomputed rows for that block. The chunked-XOR history folds of
    :meth:`repro.frontend.tage.TageLite._recompute_folds` are then
    sliding-window XOR sums over that outcome sequence, computed here
    for all branches and tables with numpy and consumed one row at a
    time by :meth:`TageLite.warm_predict`. Returns ``(idx_rows,
    tag_rows)``: per-branch lists of per-table values, bit-identical to
    the scalar hash math.
    """
    cfg = tage.config
    n = len(pcs)
    depth = cfg.max_history  # longest table history length
    index_bits = tage._index_bits
    tag_bits = cfg.tag_bits
    history = tage._history
    seq = np.empty(depth + n, dtype=np.uint64)
    for j in range(depth):  # oldest history bit first
        seq[j] = (history >> (depth - 1 - j)) & 1
    seq[depth:] = takens

    def window_sums(width: int) -> np.ndarray:
        # sums[j] = Σ_p seq[j-p] << p (out-of-range bits are zero): the
        # width-bit value ending at sequence position j, newest at LSB.
        padded = np.concatenate([np.zeros(width - 1, dtype=np.uint64), seq])
        windows = np.lib.stride_tricks.sliding_window_view(padded, width)
        weights = 1 << np.arange(width - 1, -1, -1, dtype=np.uint64)
        return (windows * weights).sum(axis=1, dtype=np.uint64)

    idx_sums = window_sums(index_bits)
    tag_sums = window_sums(tag_bits)
    pc_idx = (pcs >> np.uint64(2)) ^ (pcs >> np.uint64(index_bits + 2))
    pc_tag = ((pcs >> np.uint64(2)) ^ ((pcs * np.uint64(0x9E3779B1)) >> np.uint64(13)))
    index_mask = np.uint64(tage._index_mask)
    tag_mask = np.uint64(tage._tag_mask)

    def folds(sums: np.ndarray, width: int, length: int) -> np.ndarray:
        # XOR of the table's history chunks for every branch at once:
        # chunk c of branch i ends at sequence position depth-1-c*w+i.
        fold = np.zeros(n, dtype=np.uint64)
        chunk = 0
        while chunk * width < length:
            bits = min(width, length - chunk * width)
            start = depth - 1 - chunk * width
            fold ^= sums[start:start + n] & np.uint64((1 << bits) - 1)
            chunk += 1
        return fold

    idx_cols = [
        (folds(idx_sums, index_bits, length) ^ pc_idx ^ np.uint64(t)) & index_mask
        for t, length in enumerate(tage.history_lengths)
    ]
    tag_cols = [
        (folds(tag_sums, tag_bits, length) ^ pc_tag) & tag_mask for length in tage.history_lengths
    ]
    return (np.stack(idx_cols, axis=1).tolist(), np.stack(tag_cols, axis=1).tolist())


def warm_stream_vectorized(
    sim,
    trace: TraceSource,
    uops: int,
    train_policy: bool = False,
    block_uops: int = DEFAULT_BLOCK_UOPS,
) -> int:
    """Vectorized twin of :func:`repro.pipeline.functional.functional_stream`.

    Consumes up to ``uops`` correct-path µops from ``trace`` in blocks of
    ``block_uops``, returning the count actually consumed (short when the
    trace exhausts). State effects are byte-identical to the scalar
    reference (see the module docstring's bit-identity contract).
    """
    if uops <= 0:
        return 0
    hierarchy = sim.hierarchy
    l1d = hierarchy.l1d
    l2 = hierarchy.l2
    l1_offset = l1d._offset_bits
    l1_mask = l1d._index_mask
    l1_set_bits = l1d._set_bits
    l2_offset = l2._offset_bits
    l2_mask = l2._index_mask
    l2_set_bits = l2._set_bits
    branch_unit = sim.branch_unit
    policy = sim.policy if train_policy else None
    next_records = trace.next_record_block
    consumed = 0
    while consumed < uops:
        records = next_records(min(block_uops, uops - consumed))
        if records is None:
            return consumed
        pc = records["pc"]
        opclass = records["opclass"]
        mem = np.flatnonzero(IS_MEM[opclass])
        if mem.size:
            addr = records["mem_addr"][mem]
            pcs = pc[mem].tolist()
            l1_line = addr >> l1_offset
            l1_sets = (l1_line & l1_mask).tolist()
            l1_tags = (l1_line >> l1_set_bits).tolist()
            l2_line = addr >> l2_offset
            l2_sets = (l2_line & l2_mask).tolist()
            l2_tags = (l2_line >> l2_set_bits).tolist()
            if policy is not None:
                # The probe outcome each load would have committed,
                # captured before its own install — the scalar loop's
                # train-before-fill ordering, batched per island.
                hits = l1d.warm_block(l1_sets, l1_tags, record_hits=True)
                loads = IS_LOAD[opclass[mem]].tolist()
                outcomes = [(pc, hit) for pc, hit, is_load in zip(pcs, hits, loads) if is_load]
                if outcomes:
                    policy.on_load_commits(outcomes)
            else:
                l1d.warm_block(l1_sets, l1_tags)
            hierarchy.warm_l2_block(pcs, addr.tolist(), l2_sets, l2_tags)
        branches = np.flatnonzero(IS_BRANCH[opclass])
        if branches.size:
            branch_pc = pc[branches]
            branch_op = opclass[branches]
            branch_taken = (records["flags"][branches] & 1) != 0
            cond = ~IS_CALL_OR_RET[branch_op]
            branch_unit.resolve_block(
                branch_pc.tolist(),
                branch_op.tolist(),
                records["target"][branches].tolist(),
                branch_taken.tolist(),
                cond_indices=tage_fold_indices(
                    branch_unit.tage, branch_pc[cond], branch_taken[cond]
                ),
            )
        consumed += len(records)
    return consumed
