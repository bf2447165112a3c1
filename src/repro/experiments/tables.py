"""Table 1 (simulator configuration) and Table 2 (benchmarks + IPC)."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.config import SimConfig
from repro.core.presets import make_config
from repro.experiments.engine import EngineOptions, Sweep
from repro.experiments.figures import BASELINE
from repro.experiments.report import format_table
from repro.experiments.runner import Settings, run_sweep
from repro.traces.registry import resolve_workload


def render_table1(config: Optional[SimConfig] = None) -> str:
    """Render the machine description the way Table 1 groups it."""
    cfg = config or make_config("SpecSched_4")
    core, mem, br = cfg.core, cfg.memory, cfg.branch
    rows = [
        ("Front End",
         f"{core.fetch_width}-wide fetch/decode, {core.rename_width}-wide "
         f"rename; TAGE {br.num_tagged_tables} tagged tables; "
         f"{br.btb_ways}-way {br.btb_entries}-entry BTB, "
         f"{br.ras_entries}-entry RAS; frontend depth "
         f"{core.frontend_depth} cycles"),
        ("Execution",
         f"{core.rob_entries}-entry ROB, {core.iq_entries}-entry IQ "
         f"unified, {core.lq_entries}/{core.sq_entries}-entry LQ/SQ, "
         f"{core.int_prf}/{core.fp_prf} INT/FP registers; "
         f"{core.store_set_ssid_entries}-SSID store sets; "
         f"{core.issue_width}-issue, {core.num_alu}ALU(1c) "
         f"{core.num_muldiv}MulDiv(3c/25c*) {core.num_fp}FP(3c) "
         f"{core.num_fpmuldiv}FPMulDiv(5c/10c*) "
         f"{core.num_load_ports}Ld {core.num_store_ports}Str; "
         f"{core.retire_width}-wide retire; issue-to-execute delay "
         f"{core.issue_to_execute_delay}"),
        ("Caches",
         f"L1D {mem.l1d.assoc}-way {mem.l1d.size_bytes // 1024}KB "
         f"{'banked x' + str(mem.l1d.banks) if mem.l1d.banked else 'dual-ported'}, "
         f"{mem.l1d.latency}-cycle load-to-use, {mem.l1d.mshrs} MSHRs; "
         f"L2 {mem.l2.assoc}-way {mem.l2.size_bytes // 1024}KB, "
         f"{mem.l2.latency} cycles, stride prefetcher degree "
         f"{mem.prefetcher_degree}; {mem.l1d.line_bytes}B lines, LRU"),
        ("Memory",
         f"DDR3-like: {mem.dram.ranks} ranks x {mem.dram.banks_per_rank} "
         f"banks, {mem.dram.row_bytes // 1024}KB rows; min read "
         f"{mem.dram.base_latency} cycles, max {mem.dram.max_latency}"),
        ("Scheduling",
         f"speculative={cfg.sched.speculative}, hit/miss="
         f"{cfg.sched.hit_miss}, shifting={cfg.sched.schedule_shifting}, "
         f"criticality={cfg.sched.criticality}"),
    ]
    return format_table(["Group", "Configuration"],
                        [[g, d] for g, d in rows],
                        title=f"Table 1 — {cfg.name}")


def table2(settings: Optional[Settings] = None,
           options: Optional[EngineOptions] = None,
           ) -> Dict[str, Dict[str, object]]:
    """Run Baseline_0 over the selected workloads: the Table-2 analogue.

    Returns ``name -> {ipc, fp, miss_rate, description}``.
    """
    settings = settings or Settings.from_env()
    sweep = Sweep(name="table2", baseline=BASELINE.label,
                  series=(BASELINE,))
    result = run_sweep(sweep, settings, options=options)
    out: Dict[str, Dict[str, object]] = {}
    for name in settings.workloads:
        stats = result.get(BASELINE.label, name)
        workload = resolve_workload(name)
        out[name] = {
            "ipc": stats.ipc,
            "fp": workload.is_fp,
            "l1_miss_rate": stats.l1d_miss_rate,
            "description": workload.description,
        }
    return out


def render_table2(settings: Optional[Settings] = None,
                  options: Optional[EngineOptions] = None) -> str:
    rows: List[List[str]] = []
    data = table2(settings, options=options)
    for name, row in data.items():
        rows.append([
            name, "FP" if row["fp"] else "INT", f"{row['ipc']:.3f}",
            f"{row['l1_miss_rate']:.1%}", str(row["description"]),
        ])
    return format_table(
        ["Program", "Class", "IPC", "L1D miss", "Description"], rows,
        title="Table 2 — synthetic suite under Baseline_0")
