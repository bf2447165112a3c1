"""Store-to-load forwarding, memory-order violations, store sets."""

from repro.isa.opclass import OpClass
from repro.isa.trace import ListTrace
from repro.pipeline.cpu import Simulator

from tests.conftest import alu, load, run_to_completion, spec_config, store, uop


def test_forwarding_from_executed_store():
    cfg = spec_config(delay=4)
    uops = [store(0x1000, data_reg=2, pc=0x10),
            alu([2], 6),                       # spacer
            load(0x1000, dst=4, pc=0x20)]
    sim = Simulator(cfg, ListTrace(uops))
    run_to_completion(sim)
    assert sim.stats.store_forwards >= 1
    assert sim.stats.memory_order_violations == 0


def test_violation_detected_and_refetched():
    """Store data comes off a long divide, so the younger load to the same
    address executes first -> violation -> squash + refetch from the load."""
    cfg = spec_config(delay=4)
    uops = [uop(OpClass.INT_DIV, pc=0x8, srcs=[2], dst=3),
            store(0x2000, data_reg=3, pc=0x10),
            load(0x2000, dst=4, pc=0x20),
            alu([4], 5, pc=0x30)]
    sim = Simulator(cfg, ListTrace(uops))
    sim.hierarchy.l1d.fill(0x2000)
    sim.hierarchy.l2.fill(0x2000)
    run_to_completion(sim)
    assert sim.stats.memory_order_violations == 1
    assert sim.stats.committed_uops == 4     # refetch re-executes everything


def test_store_sets_learn_to_serialize():
    """After the first violation, the predictor makes the load wait: the
    same pattern repeated must not keep violating."""
    cfg = spec_config(delay=4)
    block = [uop(OpClass.INT_DIV, pc=0x8, srcs=[2], dst=3),
             store(0x2000, data_reg=3, pc=0x10),
             load(0x2000, dst=4, pc=0x20),
             alu([4], 5, pc=0x30)]
    sim = Simulator(cfg, ListTrace(block * 10))
    sim.hierarchy.l1d.fill(0x2000)
    sim.hierarchy.l2.fill(0x2000)
    run_to_completion(sim, max_cycles=100_000)
    assert sim.stats.committed_uops == 40
    # One cold violation trains the predictor; later instances wait.
    assert 1 <= sim.stats.memory_order_violations <= 3
    # The violation trained the store sets: the load's PC now waits for
    # an in-flight store from the store's PC.
    inflight = store(0x2000, data_reg=3, pc=0x10)
    younger = load(0x2000, dst=4, pc=0x20)
    inflight.seq, younger.seq = 100, 101
    assert sim.store_sets.lookup_dependence(inflight) is None
    assert sim.store_sets.lookup_dependence(younger) is inflight


def test_loads_to_different_addresses_do_not_wait():
    cfg = spec_config(delay=4)
    uops = [uop(OpClass.INT_DIV, pc=0x8, srcs=[2], dst=3),
            store(0x2000, data_reg=3, pc=0x10),
            load(0x3000, dst=4, pc=0x20)]
    sim = Simulator(cfg, ListTrace(uops))
    for a in (0x2000, 0x3000):
        sim.hierarchy.l1d.fill(a)
        sim.hierarchy.l2.fill(a)
    run_to_completion(sim)
    assert sim.stats.memory_order_violations == 0
    assert sim.stats.committed_uops == 3


def test_forwarded_load_skips_cache_and_banks():
    cfg = spec_config(delay=4, banked=True)
    uops = [store(0x1000, data_reg=2, pc=0x10),
            alu([2], 6), alu([6], 7), alu([7], 8),
            load(0x1000, dst=4, pc=0x20)]
    sim = Simulator(cfg, ListTrace(uops))
    run_to_completion(sim)
    assert sim.stats.store_forwards == 1
    assert sim.stats.l1d_accesses == 0        # load never touched the cache
