"""Small numeric helpers used throughout the simulator."""

from __future__ import annotations

import math
from typing import Iterable


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of strictly positive values.

    The paper reports all averaged speedups as geometric means (Section 5).

    Raises:
        ValueError: if ``values`` is empty or contains a non-positive entry.
    """
    vals = list(values)
    if not vals:
        raise ValueError("geomean of empty sequence")
    acc = 0.0
    for v in vals:
        if v <= 0.0:
            raise ValueError(f"geomean requires positive values, got {v}")
        acc += math.log(v)
    return math.exp(acc / len(vals))


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean; raises ValueError on an empty sequence."""
    vals = list(values)
    if not vals:
        raise ValueError("mean of empty sequence")
    return sum(vals) / len(vals)


def sample_stdev(values: Iterable[float]) -> float:
    """Bessel-corrected sample standard deviation (0.0 below 2 samples)."""
    vals = list(values)
    n = len(vals)
    if n < 2:
        return 0.0
    mu = sum(vals) / n
    return math.sqrt(sum((v - mu) ** 2 for v in vals) / (n - 1))


def ci95_half_width(values: Iterable[float]) -> float:
    """Half-width of the normal-approximation 95% confidence interval on
    the mean: ``1.96 * s / sqrt(n)``.

    The sampling layer reports interval-mean IPC this way (SMARTS
    Section 3 does the same); with the small interval counts used in CI
    runs the normal z is a mild underestimate of the t quantile — treat
    tight margins accordingly.
    """
    vals = list(values)
    n = len(vals)
    if n < 2:
        return 0.0
    return 1.96 * sample_stdev(vals) / math.sqrt(n)


def is_pow2(n: int) -> bool:
    """True when ``n`` is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


def log2_int(n: int) -> int:
    """Exact integer log2; ``n`` must be a power of two."""
    if not is_pow2(n):
        raise ValueError(f"{n} is not a power of two")
    return n.bit_length() - 1
