#!/usr/bin/env python3
"""Reproduce the paper's pipeline timing diagrams (Figures 1, 2 and 6)
from live simulation.

Legend: ``I`` issue, ``.`` in flight between Issue and Execute, ``E``
execute, ``x`` a squashed (replayed) issue attempt.

Usage::

    python examples/timeline_diagrams.py
"""

from repro.common.config import SimConfig
from repro.experiments.timeline import TimelineSink, render_timeline
from repro.isa.opclass import OpClass
from repro.isa.trace import ListTrace
from repro.isa.uop import MicroOp
from repro.pipeline.cpu import Simulator
from repro.telemetry.events import EventBus


def cfg(delay=4, banked=False, speculative=True, shifting=False):
    c = SimConfig(name="demo").with_core(issue_to_execute_delay=delay)
    c = c.with_l1d(banked=banked)
    return c.with_sched(speculative=speculative,
                        schedule_shifting=shifting).validate()


def load(addr, dst, pc):
    return MicroOp(0, pc, OpClass.LOAD, srcs=[2], dst=dst, mem_addr=addr)


def alu(srcs, dst, pc):
    return MicroOp(0, pc, OpClass.INT_ALU, srcs=srcs, dst=dst)


def run(config, uops, prefill):
    timeline = TimelineSink(config.core.issue_to_execute_delay)
    sim = Simulator(config, ListTrace(uops), event_bus=EventBus(timeline))
    for addr in prefill:
        sim.hierarchy.l1d.fill(addr)
        sim.hierarchy.l2.fill(addr)
    sim.run(max_cycles=10_000)
    return timeline


def figure1():
    print("Figure 1 — two dependent µops issued back-to-back (D=4):\n")
    timeline = run(cfg(), [alu([2], 4, 0x10), alu([4], 5, 0x11)], [])
    print(render_timeline(timeline, labels={0: "I0: add r4", 1: "I1: add r5"}))
    print()


def figure2():
    uops = [load(0x1000, 4, 0x20), alu([4], 5, 0x21)]
    print("Figure 2 (top) — conservative: dependent waits for the hit "
          "signal:\n")
    timeline = run(cfg(speculative=False), [u.clone_arch(0) for u in uops],
              [0x1000])
    print(render_timeline(timeline, labels={0: "load r4", 1: "inc r5"}))
    print("\nFigure 2 (bottom) — speculative: dependent issued assuming "
          "an L1 hit:\n")
    timeline = run(cfg(), [u.clone_arch(0) for u in uops], [0x1000])
    print(render_timeline(timeline, labels={0: "load r4", 1: "inc r5"}))
    print()


def figure6():
    # Two loads to the same bank, different sets, plus their dependents.
    uops = [load(0x000, 4, 0x30), load(0x040, 5, 0x31),
            alu([4], 6, 0x32), alu([5], 7, 0x33)]
    labels = {0: "ld r4 (bank0)", 1: "ld r5 (bank0)",
              2: "inc r6 <- r4", 3: "inc r7 <- r5"}
    print("Figure 6 (top) — bank conflict without Schedule Shifting: the "
          "second load returns late, dependents replay:\n")
    timeline = run(cfg(banked=True), [u.clone_arch(0) for u in uops],
              [0x000, 0x040])
    print(render_timeline(timeline, labels=labels))
    print("\nFigure 6 (bottom) — with Schedule Shifting: the second "
          "load's dependent is issued one cycle late, no replay:\n")
    timeline = run(cfg(banked=True, shifting=True), [u.clone_arch(0) for u in uops],
              [0x000, 0x040])
    print(render_timeline(timeline, labels=labels))


def main() -> None:
    figure1()
    figure2()
    figure6()


if __name__ == "__main__":
    main()
