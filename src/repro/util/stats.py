"""Small statistical helpers used throughout the reproduction.

The paper aggregates results with geometric means (Figures 6 and 8) and the
harmonic mean of normalised IPCs (Equation 1); the motivation figures are
cumulative distributions (Figures 1 and 2). All of those primitives live
here so the metric and experiment code stays declarative.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "geomean",
    "geomean_with_zeros",
    "hmean",
    "cdf_points",
    "fraction_below",
    "percentile",
    "clamp",
]


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of strictly positive values.

    Raises :class:`ValueError` on empty input or non-positive entries, since
    a silent NaN would corrupt every downstream aggregate.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("geomean of empty sequence")
    if np.any(arr <= 0.0):
        raise ValueError("geomean requires strictly positive values")
    return float(np.exp(np.mean(np.log(arr))))


def geomean_with_zeros(values: Iterable[float], floor: float = 1e-4) -> float:
    """Geometric mean where zeros are floored instead of rejected.

    SUCI (Equation 4) is zero whenever the SLO is missed, yet the paper
    reports geometric means of SUCI across workloads (Figure 8). A true
    geometric mean would collapse to zero on a single miss, so — as is
    conventional when summarising indices that can be exactly zero — values
    below ``floor`` are clamped to ``floor`` before averaging.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("geomean of empty sequence")
    if np.any(arr < 0.0):
        raise ValueError("values must be non-negative")
    arr = np.maximum(arr, floor)
    return float(np.exp(np.mean(np.log(arr))))


def hmean(values: Iterable[float]) -> float:
    """Harmonic mean of strictly positive values.

    Bit-identical to ``n / np.sum(1.0 / values)``; EFU (Equation 1) takes
    it once per campaign cell on about ten values, where NumPy's per-call
    dispatch would cost more than the arithmetic.
    """
    floats = [float(v) for v in values]
    if not floats:
        raise ValueError("hmean of empty sequence")
    for v in floats:
        if v <= 0.0:
            raise ValueError("hmean requires strictly positive values")
    return len(floats) / _reduce_sum([1.0 / v for v in floats])


#: Terms up to which :func:`_reduce_sum` adds in Python (NumPy's pairwise
#: block size); longer sums stay a NumPy reduction.
_PAIRWISE_BLOCK = 128


def _reduce_sum(values: Sequence[float]) -> float:
    """``np.add.reduce`` of a float list, bit for bit.

    NumPy adds a pairwise sum of the terms to the identity ``0.0``. Below
    8 terms the pairwise sum is sequential. Up to 128 terms it runs eight
    strided accumulators, combines them as ``((r0 + r1) + (r2 + r3)) +
    ((r4 + r5) + (r6 + r7))`` and adds the remaining ``n % 8`` terms in
    order. Both are reproduced here; above 128 terms NumPy recurses on
    halves, and the sum stays a NumPy call.
    """
    n = len(values)
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    if n > _PAIRWISE_BLOCK:
        return float(np.add.reduce(np.array(values, dtype=float)))
    r0, r1, r2, r3, r4, r5, r6, r7 = values[:8]
    end = n - n % 8
    for i in range(8, end, 8):
        r0 += values[i]
        r1 += values[i + 1]
        r2 += values[i + 2]
        r3 += values[i + 3]
        r4 += values[i + 4]
        r5 += values[i + 5]
        r6 += values[i + 6]
        r7 += values[i + 7]
    total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for i in range(end, n):
        total += values[i]
    # The identity start: maps a -0.0 pairwise sum to 0.0.
    return 0.0 + total


def cdf_points(values: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF of ``values``.

    Returns ``(xs, fractions)`` where ``fractions[i]`` is the fraction of
    samples less than or equal to ``xs[i]``; ``xs`` is sorted ascending.
    """
    arr = np.sort(np.asarray(values, dtype=float))
    if arr.size == 0:
        raise ValueError("cdf of empty sequence")
    fractions = np.arange(1, arr.size + 1, dtype=float) / arr.size
    return arr, fractions


def fraction_below(values: Sequence[float], threshold: float) -> float:
    """Fraction of samples that are <= ``threshold`` (CDF evaluated at x)."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("fraction_below of empty sequence")
    return float(np.mean(arr <= threshold))


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear interpolation."""
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("percentile of empty sequence")
    return float(np.percentile(arr, q))


def clamp(value: float, lo: float, hi: float) -> float:
    """Clamp ``value`` to the closed interval [lo, hi]."""
    if lo > hi:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    return lo if value < lo else hi if value > hi else value
