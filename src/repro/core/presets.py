"""Named machine configurations used throughout the paper's evaluation.

``make_config("SpecSched_4_Crit")`` returns the exact machine the paper
evaluates. Grammar::

    Baseline_<D>                 conservative scheduling, delay D
    SpecSched_<D>                Always-Hit speculative scheduling
    SpecSched_<D>_Shift          + Schedule Shifting
    SpecSched_<D>_Ctr            global-counter hit/miss gating
    SpecSched_<D>_Filter         filter + global counter
    SpecSched_<D>_Combined       Shift + Filter + Ctr
    SpecSched_<D>_Crit           Combined + criticality gating

Keyword ``banked`` selects the banked L1D (bank conflicts possible, the
default for Section 5) or the ideal dual-ported L1D (``banked=False``,
Baseline_0's reference configuration and the darker bars of Figure 4a).
``load_ports`` reproduces the single-load-port bar of Figure 3.
"""

from __future__ import annotations

import re

from repro.common.config import HitMissPolicy, SimConfig

_NAME_RE = re.compile(
    r"^(Baseline|SpecSched)_(\d+)"
    r"(?:_(Shift|Ctr|Filter|Combined|Crit))?$")

#: The named configurations of the paper's figures (delay-4 family).
PRESET_NAMES = (
    "Baseline_0", "Baseline_2", "Baseline_4", "Baseline_6",
    "SpecSched_0", "SpecSched_2", "SpecSched_4", "SpecSched_6",
    "SpecSched_4_Shift", "SpecSched_4_Ctr", "SpecSched_4_Filter",
    "SpecSched_4_Combined", "SpecSched_4_Crit",
)


def make_config(name: str, banked: bool = True, load_ports: int = 2) -> SimConfig:
    """Build a validated :class:`SimConfig` from a paper-style name."""
    match = _NAME_RE.match(name)
    if match is None:
        raise ValueError(
            f"unknown configuration {name!r}; expected e.g. 'Baseline_4', "
            f"'SpecSched_4_Crit'")
    family, delay_text, variant = match.groups()
    delay = int(delay_text)

    config = SimConfig(name=name)
    config = config.with_core(issue_to_execute_delay=delay,
                              num_load_ports=load_ports)
    config = config.with_l1d(banked=banked)

    if family == "Baseline":
        if variant is not None:
            raise ValueError("Baseline_* takes no mechanism suffix")
        config = config.with_sched(speculative=False)
        return config.validate()

    sched_kwargs = dict(speculative=True,
                        hit_miss=HitMissPolicy.ALWAYS_HIT,
                        schedule_shifting=False, criticality=False)
    if variant == "Shift":
        sched_kwargs["schedule_shifting"] = True
    elif variant == "Ctr":
        sched_kwargs["hit_miss"] = HitMissPolicy.GLOBAL_CTR
    elif variant == "Filter":
        sched_kwargs["hit_miss"] = HitMissPolicy.FILTER_CTR
    elif variant == "Combined":
        sched_kwargs["hit_miss"] = HitMissPolicy.FILTER_CTR
        sched_kwargs["schedule_shifting"] = True
    elif variant == "Crit":
        sched_kwargs["hit_miss"] = HitMissPolicy.FILTER_CTR
        sched_kwargs["schedule_shifting"] = True
        sched_kwargs["criticality"] = True
    config = config.with_sched(**sched_kwargs)
    return config.validate()
