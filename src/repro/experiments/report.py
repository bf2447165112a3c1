"""ASCII rendering of experiment results (paper-style rows)."""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

from repro.experiments.runner import ExperimentResult


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]],
                 title: Optional[str] = None) -> str:
    """Fixed-width ASCII table."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def performance_table(result: ExperimentResult,
                      labels: Optional[Sequence[str]] = None) -> str:
    """Figure (a) style: per-workload IPC normalized to the baseline."""
    labels = list(labels or [lbl for lbl in result.labels()
                             if lbl != result.baseline_label])
    headers = ["workload"] + list(labels)
    rows = []
    ratios = {label: result.ipc_ratio(label) for label in labels}
    for wl in result.workloads:
        rows.append([wl] + [f"{ratios[label][wl]:.3f}" for label in labels])
    rows.append(["gmean"] + [f"{result.gmean_ipc_ratio(label):.3f}"
                             for label in labels])
    return format_table(headers, rows,
                        title=f"[{result.name}] IPC normalized to "
                              f"{result.baseline_label}")


def sampling_table(result: ExperimentResult,
                   labels: Optional[Sequence[str]] = None) -> str:
    """Sampled-run view: per-workload interval-mean IPC ± 95% CI.

    Only meaningful for results produced by a sampled experiment
    (``result.ipc_ci`` populated); detailed grids have no interval
    spread to report.
    """
    labels = list(labels or result.labels())
    headers = ["workload"] + [f"{label} (IPC ±CI95)" for label in labels]
    rows = []
    for wl in result.workloads:
        row = [wl]
        for label in labels:
            ci = result.ipc_ci.get(label, {}).get(wl)
            if ci is None:
                row.append(f"{result.get(label, wl).ipc:.3f}")
            else:
                mean_ipc, half = ci
                row.append(f"{mean_ipc:.3f} ±{half:.3f}")
        rows.append(row)
    return format_table(headers, rows,
                        title=f"[{result.name}] sampled IPC "
                              f"(interval mean ± 95% CI)")


def breakdown_table(result: ExperimentResult, label: str) -> str:
    """Figure (b) style: Unique / RpldMiss / RpldBank per workload."""
    headers = ["workload", "Unique", "RpldMiss", "RpldBank", "Total"]
    rows = []
    breakdown = result.breakdown(label)
    for wl in result.workloads:
        b = breakdown[wl]
        rows.append([wl, f"{b['unique']:.3f}", f"{b['rpld_miss']:.3f}",
                     f"{b['rpld_bank']:.3f}", f"{b['total']:.3f}"])
    n = len(result.workloads)
    rows.append([
        "mean",
        f"{sum(b['unique'] for b in breakdown.values()) / n:.3f}",
        f"{sum(b['rpld_miss'] for b in breakdown.values()) / n:.3f}",
        f"{sum(b['rpld_bank'] for b in breakdown.values()) / n:.3f}",
        f"{sum(b['total'] for b in breakdown.values()) / n:.3f}",
    ])
    return format_table(
        headers, rows,
        title=f"[{result.name}] issued µops for {label}, normalized to "
              f"{result.baseline_label} issued µops")


#: The metrics of :func:`summary_line`: speedup over the reference, total
#: / miss / bank replay reduction and issued-µop reduction.
SUMMARY_METRICS = ("speedup", "total", "miss", "bank", "issued")


def summary_line(result: ExperimentResult, label: str, reference: str,
                 paper: Optional[Mapping[str, float]] = None) -> str:
    """One-line digest: speedup + replay/issued reductions vs reference.

    ``paper`` maps some of :data:`SUMMARY_METRICS` to the paper's value,
    printed as ``[paper X]`` right after the measured one.
    """
    measured = {
        "speedup": result.speedup_over(label, reference) - 1.0,
        "total": result.replay_reduction(label, reference, "total"),
        "miss": result.replay_reduction(label, reference, "miss"),
        "bank": result.replay_reduction(label, reference, "bank"),
        "issued": result.issued_reduction(label, reference),
    }
    paper = paper or {}

    def show(metric: str) -> str:
        fmt = "{:+.1%}" if metric == "speedup" else "-{:.1%}"
        text = fmt.format(measured[metric])
        if metric in paper:
            text += f" [paper {fmt.format(paper[metric])}]"
        return text

    return (f"{label} vs {reference}: speedup {show('speedup')}, replays "
            f"{show('total')} (miss {show('miss')}, bank {show('bank')}), "
            f"issued µops {show('issued')}")
