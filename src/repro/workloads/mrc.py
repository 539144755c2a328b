"""Miss-ratio curves (MRCs).

An MRC maps the *effective* number of LLC ways an application can use to its
LLC miss ratio (misses / LLC accesses). The analytic server model consumes
MRCs directly; the trace-driven cache simulator (:mod:`repro.cachesim`) can
*measure* them, and :class:`TabulatedMRC` carries measured curves back into
the analytic model.

Effective ways are continuous, not integral: under shared (unpartitioned)
cache the pressure-sharing model hands out fractional shares, and CT squeezes
nine best-effort instances into a single way (1/9 effective way each). All
curves are therefore defined on ``w >= 0``, are non-increasing in ``w``, and
are bounded in ``[0, 1]``.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from repro.util.validation import check_fraction, check_positive

__all__ = [
    "MissRatioCurve",
    "ConstantMRC",
    "ExponentialMRC",
    "KneeMRC",
    "BlendedMRC",
    "TabulatedMRC",
]


class MissRatioCurve(ABC):
    """Abstract miss-ratio curve.

    Subclasses must be *non-increasing* in the number of ways and return
    values in ``[0, 1]``; property-based tests enforce both invariants for
    every curve in the catalog.
    """

    @abstractmethod
    def miss_ratio(self, ways: float) -> float:
        """Miss ratio when ``ways`` effective LLC ways are available."""

    @property
    @abstractmethod
    def footprint_ways(self) -> float:
        """Ways beyond which extra cache yields (practically) no benefit.

        Used by the pressure-sharing model: an application never claims more
        shared cache than its footprint.
        """

    def __call__(self, ways: float) -> float:
        # Hot path (called once per core per solver iteration): validation
        # and clamping are inlined rather than delegated.
        if ways < 0:
            raise ValueError(f"ways must be >= 0, got {ways}")
        if ways < 1.0:
            # Sub-way allocations ramp to the physical boundary mr(0) = 1:
            # with no cache at all, every LLC access misses, whatever shape
            # the curve has above one way. This is what makes squeezing
            # nine BEs into a single shared way (1/9 effective way each)
            # genuinely expensive — the Cache-Takeover failure mode.
            at_one = self.miss_ratio(1.0)
            value = 1.0 + (at_one - 1.0) * ways
        else:
            value = self.miss_ratio(ways)
        # Numerical guard: parametric forms can under/overshoot by epsilon.
        return 0.0 if value < 0.0 else 1.0 if value > 1.0 else value

    def eval_many_fast(self, ways: np.ndarray) -> np.ndarray:
        """Vectorised evaluation under the *tolerance* contract.

        The ``precision="fast"`` solver funnels MRC lookups it cannot fuse
        (see :meth:`fused_fast_params`) through this method. Each element
        must agree with ``self(w)`` to within a few ulp (``np.exp`` vs
        ``math.exp`` differences), so transcendental vector kernels are
        allowed. Two properties are still REQUIRED:

        * element ``i`` of the result depends only on ``ways[i]`` — never
          on the other array elements or the array length (fast-mode memo
          entries must not depend on batch composition);
        * the same clamping/sub-way-ramp semantics as ``__call__``.

        The base implementation loops ``__call__``, so it is bitwise
        equal to it; subclasses override it with vectorised paths.
        """
        ways = np.asarray(ways, dtype=float)
        return np.array([self(w) for w in ways], dtype=float)

    def fused_fast_params(self) -> tuple | None:
        """Parameters for the fast solver's fused curve kernel, or ``None``.

        The ``precision="fast"`` batch solver evaluates every curve slot
        of a lane batch in ONE fused elementwise expression::

            value = floor + span * (blend * exp(-w / scale)
                                    + (1 - blend) * knee_part(w))
            knee_part = 1 - sigmoid((w - knee) / sharpness)  # saturated

        followed by the shared sub-way ramp to ``at_one`` and the [0, 1]
        clamp. Returns ``(floor, span, blend, scale, knee, sharpness,
        at_one)`` when this curve is expressible in that form within the
        fast tolerance contract, else ``None`` — the solver then falls
        back to per-curve :meth:`eval_many_fast` calls for those slots
        (e.g. tabulated curves).
        """
        return None

    def min_ways_for_miss_ratio(self, target: float, max_ways: int) -> float:
        """Smallest integral way count whose miss ratio is <= ``target``.

        Returns ``math.inf`` when even ``max_ways`` ways cannot reach the
        target (e.g. a streaming application whose floor is above it).
        """
        check_fraction("target", target)
        for w in range(0, max_ways + 1):
            if self(w) <= target:
                return float(w)
        return math.inf


def _finish_fast(ways: np.ndarray, value: np.ndarray, at_one: float) -> np.ndarray:
    """Shared tail of the fast paths: sub-way ramp plus [0, 1] clamp."""
    if ways.size and float(ways.min()) < 0:
        raise ValueError(f"ways must be >= 0, got {float(ways.min())}")
    value = np.where(ways < 1.0, 1.0 + (at_one - 1.0) * ways, value)
    return np.clip(value, 0.0, 1.0)


class ConstantMRC(MissRatioCurve):
    """Cache-insensitive curve: the miss ratio never changes.

    Models streaming applications (lbm, libquantum, ...) whose reuse
    distances exceed any realistic LLC, and compute-bound applications whose
    (rare) LLC accesses mostly miss or mostly hit regardless of allocation.
    """

    def __init__(self, ratio: float) -> None:
        self._ratio = check_fraction("ratio", ratio)

    @property
    def ratio(self) -> float:
        """The constant miss ratio."""
        return self._ratio

    def miss_ratio(self, ways: float) -> float:
        """See :meth:`MissRatioCurve.miss_ratio`."""
        return self._ratio

    def __call__(self, ways: float) -> float:
        # The base __call__ with miss_ratio inlined: one dispatch per
        # evaluation on the exact solver's hot path, same operations.
        if ways < 0:
            raise ValueError(f"ways must be >= 0, got {ways}")
        if ways < 1.0:
            value = 1.0 + (self._ratio - 1.0) * ways
        else:
            value = self._ratio
        return 0.0 if value < 0.0 else 1.0 if value > 1.0 else value

    @property
    def footprint_ways(self) -> float:
        """See :meth:`MissRatioCurve.footprint_ways`."""
        return 1.0  # Extra ways are useless; claim the minimum.

    def eval_many_fast(self, ways: np.ndarray) -> np.ndarray:
        """Vectorised path; bit-identical to ``__call__`` per element.

        The sub-way ramp is a single multiply-add and the plateau is a
        constant, both IEEE-identical elementwise.
        """
        ways = np.asarray(ways, dtype=float)
        if ways.size and float(ways.min()) < 0:
            raise ValueError(f"ways must be >= 0, got {float(ways.min())}")
        value = np.where(
            ways < 1.0, 1.0 + (self._ratio - 1.0) * ways, self._ratio
        )
        return np.clip(value, 0.0, 1.0)

    def fused_fast_params(self) -> tuple:
        """See :meth:`MissRatioCurve.fused_fast_params` (span = 0)."""
        return (self._ratio, 0.0, 1.0, 1.0, 1.0, 1.0, self._ratio)

    def __repr__(self) -> str:
        return f"ConstantMRC(ratio={self._ratio:g})"


class ExponentialMRC(MissRatioCurve):
    """Smoothly decaying curve ``floor + (peak - floor) * exp(-ways/scale)``.

    A good fit for applications with a broad mix of reuse distances (gcc,
    soplex): each extra way captures a geometrically shrinking slice of the
    working set.
    """

    def __init__(self, peak: float, floor: float, scale: float) -> None:
        self._peak = check_fraction("peak", peak)
        self._floor = check_fraction("floor", floor)
        if floor > peak:
            raise ValueError(f"floor ({floor}) must be <= peak ({peak})")
        self._scale = check_positive("scale", scale)

    @property
    def peak(self) -> float:
        """Miss ratio as ways approach zero (before the sub-way ramp)."""
        return self._peak

    @property
    def floor(self) -> float:
        """Asymptotic miss ratio with ample cache."""
        return self._floor

    @property
    def scale(self) -> float:
        """Decay constant in ways."""
        return self._scale

    def miss_ratio(self, ways: float) -> float:
        """See :meth:`MissRatioCurve.miss_ratio`."""
        return self._floor + (self._peak - self._floor) * math.exp(
            -ways / self._scale
        )

    def __call__(self, ways: float) -> float:
        # The base __call__ with miss_ratio inlined (see ConstantMRC).
        if ways < 0:
            raise ValueError(f"ways must be >= 0, got {ways}")
        if ways < 1.0:
            at_one = self._floor + (self._peak - self._floor) * math.exp(
                -1.0 / self._scale
            )
            value = 1.0 + (at_one - 1.0) * ways
        else:
            value = self._floor + (self._peak - self._floor) * math.exp(
                -ways / self._scale
            )
        return 0.0 if value < 0.0 else 1.0 if value > 1.0 else value

    @property
    def footprint_ways(self) -> float:
        # Within 2% of the floor counts as "fitted".
        """See :meth:`MissRatioCurve.footprint_ways`."""
        return 4.0 * self._scale

    def eval_many_fast(self, ways: np.ndarray) -> np.ndarray:
        """Vectorised ``np.exp`` path (tolerance contract, see base)."""
        ways = np.asarray(ways, dtype=float)
        value = self._floor + (self._peak - self._floor) * np.exp(
            -ways / self._scale
        )
        return _finish_fast(ways, value, self.miss_ratio(1.0))

    def fused_fast_params(self) -> tuple:
        """See :meth:`MissRatioCurve.fused_fast_params` (blend = 1)."""
        return (
            self._floor,
            self._peak - self._floor,
            1.0,
            self._scale,
            1.0,
            1.0,
            self.miss_ratio(1.0),
        )

    def __repr__(self) -> str:
        return (
            f"ExponentialMRC(peak={self._peak:g}, floor={self._floor:g}, "
            f"scale={self._scale:g})"
        )


class KneeMRC(MissRatioCurve):
    """Working-set curve: high plateau, sharp knee once the set fits.

    Classic for applications with one dominant working set (omnetpp, mcf
    phases, xalancbmk): the miss ratio barely improves until ``knee_ways``
    fit the hot set, then drops to ``floor``. The transition is smoothed
    with a logistic of width ``sharpness`` ways so that the analytic solver
    sees a differentiable curve.
    """

    def __init__(
        self,
        peak: float,
        floor: float,
        knee_ways: float,
        sharpness: float = 1.0,
    ) -> None:
        self._peak = check_fraction("peak", peak)
        self._floor = check_fraction("floor", floor)
        if floor > peak:
            raise ValueError(f"floor ({floor}) must be <= peak ({peak})")
        self._knee = check_positive("knee_ways", knee_ways)
        self._sharpness = check_positive("sharpness", sharpness)
        # The sub-way ramp's end, evaluated once per curve.
        self._at_one = self.miss_ratio(1.0)

    @property
    def knee_ways(self) -> float:
        """Centre of the working-set knee."""
        return self._knee

    def miss_ratio(self, ways: float) -> float:
        """See :meth:`MissRatioCurve.miss_ratio`."""
        z = (ways - self._knee) / self._sharpness
        # Logistic interpolation from peak (z << 0) to floor (z >> 0).
        if z > 40.0:
            frac_hit = 1.0
        elif z < -40.0:
            frac_hit = 0.0
        else:
            frac_hit = 1.0 / (1.0 + math.exp(-z))
        return self._peak + (self._floor - self._peak) * frac_hit

    def __call__(self, ways: float) -> float:
        # The base __call__ with miss_ratio inlined (see ConstantMRC).
        if ways < 0:
            raise ValueError(f"ways must be >= 0, got {ways}")
        if ways < 1.0:
            value = 1.0 + (self._at_one - 1.0) * ways
        else:
            z = (ways - self._knee) / self._sharpness
            if z > 40.0:
                frac_hit = 1.0
            elif z < -40.0:
                frac_hit = 0.0
            else:
                frac_hit = 1.0 / (1.0 + math.exp(-z))
            value = self._peak + (self._floor - self._peak) * frac_hit
        return 0.0 if value < 0.0 else 1.0 if value > 1.0 else value

    @property
    def footprint_ways(self) -> float:
        """See :meth:`MissRatioCurve.footprint_ways`."""
        return self._knee + 2.0 * self._sharpness

    def eval_many_fast(self, ways: np.ndarray) -> np.ndarray:
        """Vectorised logistic path (tolerance contract, see base)."""
        ways = np.asarray(ways, dtype=float)
        z = (ways - self._knee) / self._sharpness
        # Same saturation branches as miss_ratio (clip guards np.exp from
        # overflow before np.where discards the saturated elements).
        frac_hit = 1.0 / (1.0 + np.exp(-np.clip(z, -40.0, 40.0)))
        frac_hit = np.where(z > 40.0, 1.0, np.where(z < -40.0, 0.0, frac_hit))
        value = self._peak + (self._floor - self._peak) * frac_hit
        return _finish_fast(ways, value, self._at_one)

    def fused_fast_params(self) -> tuple:
        """See :meth:`MissRatioCurve.fused_fast_params` (blend = 0)."""
        return (
            self._floor,
            self._peak - self._floor,
            0.0,
            1.0,
            self._knee,
            self._sharpness,
            self._at_one,
        )

    def __repr__(self) -> str:
        return (
            f"KneeMRC(peak={self._peak:g}, floor={self._floor:g}, "
            f"knee_ways={self._knee:g}, sharpness={self._sharpness:g})"
        )


class BlendedMRC(MissRatioCurve):
    """Weighted blend of a short-range exponential decay and a working-set
    knee.

    Real miss-ratio curves almost always have *some* gradient near zero
    ways (a sliver of cache captures the tightest reuse loops) even when the
    dominant working set only fits at a large knee (mcf, omnetpp). The
    blend exposes both: ``blend`` of the peak-to-floor drop follows
    ``exp(-w/scale)``, the rest follows the logistic knee.
    """

    def __init__(
        self,
        peak: float,
        floor: float,
        knee_ways: float,
        *,
        scale: float = 1.5,
        sharpness: float = 2.0,
        blend: float = 0.3,
    ) -> None:
        self._peak = check_fraction("peak", peak)
        self._floor = check_fraction("floor", floor)
        if floor > peak:
            raise ValueError(f"floor ({floor}) must be <= peak ({peak})")
        self._knee = check_positive("knee_ways", knee_ways)
        self._scale = check_positive("scale", scale)
        self._sharpness = check_positive("sharpness", sharpness)
        self._blend = check_fraction("blend", blend)
        # The sub-way ramp's end, evaluated once per curve.
        self._at_one = self.miss_ratio(1.0)

    @property
    def knee_ways(self) -> float:
        """Centre of the working-set knee."""
        return self._knee

    def miss_ratio(self, ways: float) -> float:
        """See :meth:`MissRatioCurve.miss_ratio`."""
        span = self._peak - self._floor
        exp_part = math.exp(-ways / self._scale)
        z = (ways - self._knee) / self._sharpness
        if z > 40.0:
            knee_part = 0.0
        elif z < -40.0:
            knee_part = 1.0
        else:
            knee_part = 1.0 - 1.0 / (1.0 + math.exp(-z))
        captured = self._blend * exp_part + (1.0 - self._blend) * knee_part
        return self._floor + span * captured

    def __call__(self, ways: float) -> float:
        # The base __call__ with miss_ratio inlined (see ConstantMRC).
        if ways < 0:
            raise ValueError(f"ways must be >= 0, got {ways}")
        if ways < 1.0:
            value = 1.0 + (self._at_one - 1.0) * ways
        else:
            span = self._peak - self._floor
            exp_part = math.exp(-ways / self._scale)
            z = (ways - self._knee) / self._sharpness
            if z > 40.0:
                knee_part = 0.0
            elif z < -40.0:
                knee_part = 1.0
            else:
                knee_part = 1.0 - 1.0 / (1.0 + math.exp(-z))
            captured = (
                self._blend * exp_part + (1.0 - self._blend) * knee_part
            )
            value = self._floor + span * captured
        return 0.0 if value < 0.0 else 1.0 if value > 1.0 else value

    @property
    def footprint_ways(self) -> float:
        """See :meth:`MissRatioCurve.footprint_ways`."""
        return self._knee + 2.0 * self._sharpness

    def eval_many_fast(self, ways: np.ndarray) -> np.ndarray:
        """Vectorised blend path (tolerance contract, see base)."""
        ways = np.asarray(ways, dtype=float)
        span = self._peak - self._floor
        exp_part = np.exp(-ways / self._scale)
        z = (ways - self._knee) / self._sharpness
        knee_part = 1.0 - 1.0 / (1.0 + np.exp(-np.clip(z, -40.0, 40.0)))
        knee_part = np.where(
            z > 40.0, 0.0, np.where(z < -40.0, 1.0, knee_part)
        )
        captured = self._blend * exp_part + (1.0 - self._blend) * knee_part
        value = self._floor + span * captured
        return _finish_fast(ways, value, self._at_one)

    def fused_fast_params(self) -> tuple:
        """See :meth:`MissRatioCurve.fused_fast_params` (exact match)."""
        return (
            self._floor,
            self._peak - self._floor,
            self._blend,
            self._scale,
            self._knee,
            self._sharpness,
            self._at_one,
        )

    def __repr__(self) -> str:
        return (
            f"BlendedMRC(peak={self._peak:g}, floor={self._floor:g}, "
            f"knee_ways={self._knee:g}, scale={self._scale:g}, "
            f"blend={self._blend:g})"
        )


class TabulatedMRC(MissRatioCurve):
    """Piecewise-linear curve through measured (ways, miss-ratio) points.

    Produced by :func:`repro.cachesim.mrc.measure_mrc` from trace-driven
    simulation; enforces monotonicity at construction (measured curves can
    wiggle by sampling noise, which would otherwise break solver reasoning).
    """

    def __init__(self, ways: Sequence[float], ratios: Sequence[float]) -> None:
        w = np.asarray(ways, dtype=float)
        r = np.asarray(ratios, dtype=float)
        if w.size != r.size or w.size < 2:
            raise ValueError("need >= 2 matching (ways, ratio) points")
        # NaN slips through both range checks below (every comparison
        # with it is False), so reject non-finite points explicitly.
        if not (np.isfinite(w).all() and np.isfinite(r).all()):
            raise ValueError("ways and ratios must be finite")
        if np.any(np.diff(w) <= 0):
            raise ValueError("ways must be strictly increasing")
        if np.any((r < 0) | (r > 1)):
            raise ValueError("ratios must be in [0, 1]")
        # Enforce non-increasing ratios (isotonic pass, right to left).
        r = np.minimum.accumulate(r)
        self._ways = w
        self._ratios = r

    @property
    def points(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the tabulated (ways, ratios) arrays."""
        return self._ways.copy(), self._ratios.copy()

    def miss_ratio(self, ways: float) -> float:
        """See :meth:`MissRatioCurve.miss_ratio`."""
        return float(np.interp(ways, self._ways, self._ratios))

    @property
    def footprint_ways(self) -> float:
        """See :meth:`MissRatioCurve.footprint_ways`."""
        final = self._ratios[-1]
        # First tabulated point within 2% (absolute) of the final ratio.
        close = np.nonzero(self._ratios <= final + 0.02)[0]
        return float(self._ways[close[0]])

    def eval_many_fast(self, ways: np.ndarray) -> np.ndarray:
        """Vectorised path; bit-identical to ``__call__`` per element.

        ``np.interp`` runs the same compiled interpolation per element
        whether called with a scalar or an array, and the sub-way ramp is
        a multiply-add.
        """
        ways = np.asarray(ways, dtype=float)
        if ways.size and float(ways.min()) < 0:
            raise ValueError(f"ways must be >= 0, got {float(ways.min())}")
        value = np.interp(ways, self._ways, self._ratios)
        sub = ways < 1.0
        if sub.any():
            at_one = self.miss_ratio(1.0)
            value = np.where(sub, 1.0 + (at_one - 1.0) * ways, value)
        return np.clip(value, 0.0, 1.0)

    def __repr__(self) -> str:
        return f"TabulatedMRC({self._ways.size} points)"
