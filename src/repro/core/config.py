"""DICER controller configuration (paper Table 1, bottom half).

All thresholds the paper reports — monitoring period T = 1 s, bandwidth
saturation threshold 50 Gbps, phase-detection threshold 30 %, IPC stability
percentage alpha = 5 % — plus the implementation knobs the paper mentions but
does not enumerate (the sampling grid and per-sample dwell time, and a
resampling cooldown guard).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.platform import gbps_to_bytes
from repro.util.validation import (
    check_fraction,
    check_positive,
    check_positive_int,
)

__all__ = ["DicerConfig", "TABLE1_DICER_CONFIG"]


@dataclass(frozen=True)
class DicerConfig:
    """Tunables of the DICER control loop.

    Attributes
    ----------
    period_s:
        Monitoring period T. Every controller decision happens on this
        cadence (Table 1: 1 s).
    bw_threshold_bytes:
        Total memory traffic above which the link counts as saturated
        (Table 1: 50 Gbps).
    phase_threshold:
        Phase change declared when HP's bandwidth exceeds ``(1 + this)``
        times the geometric mean of its previous three periods (Equation 2;
        Table 1: 30 %).
    alpha:
        IPC stability band: performance is "stable" while the period's IPC
        stays within ``±alpha`` of the previous one (Equation 3; Table 1:
        5 %).
    sample_hp_ways:
        Descending HP way counts probed by allocation sampling (paper: a
        decreasing sequence "similar to KPart"; exact grid unspecified).
    sample_periods:
        Monitoring periods each sample dwells ("a fixed interval, long
        enough to make the effects of the partitioning visible").
    resample_cooldown_periods:
        Implementation guard absent from the paper's listings: after a
        sampling pass, persistent saturation does not retrigger sampling for
        this many periods. Without it, a workload whose *optimum* is still
        saturated (e.g. ten streaming applications) would resample every
        period and never run in steady state. Set to 0 for the literal
        listing behaviour (exercised by an ablation benchmark).
    phase_detector:
        Equation 2's reference statistic. ``"geomean3"`` (paper): compare
        HP bandwidth against the geometric mean of the previous three
        periods. ``"ewma"``: compare against an exponentially weighted
        moving average (weight :attr:`ewma_weight`) — smoother, slower to
        re-arm after a transition; the phase-detector ablation contrasts
        the two.
    ewma_weight:
        Weight of the newest sample in the EWMA detector.
    saturation_detection:
        ``False`` disables the bandwidth-saturation path entirely,
        degenerating DICER into the DCP-QoS-style controller of the related
        work (Cook et al., Papadakis et al.): IPC-driven partitioning with
        no awareness of memory-link saturation. The paper's novelty claim
        is precisely this flag's effect on CT-Thwarted workloads; the
        related-work benchmark compares both settings.
    """

    period_s: float = 1.0
    bw_threshold_bytes: float = gbps_to_bytes(50.0)
    phase_threshold: float = 0.30
    alpha: float = 0.05
    sample_hp_ways: tuple[int, ...] = (19, 15, 11, 8, 6, 4, 3, 2, 1)
    sample_periods: int = 1
    resample_cooldown_periods: int = 5
    saturation_detection: bool = True
    phase_detector: str = "geomean3"
    ewma_weight: float = 0.3

    def __post_init__(self) -> None:
        check_positive("period_s", self.period_s)
        check_positive("bw_threshold_bytes", self.bw_threshold_bytes)
        check_positive("phase_threshold", self.phase_threshold)
        check_fraction("alpha", self.alpha)
        check_positive_int("sample_periods", self.sample_periods)
        if self.resample_cooldown_periods < 0:
            raise ValueError("resample_cooldown_periods must be >= 0")
        if not self.sample_hp_ways:
            raise ValueError("sample_hp_ways must not be empty")
        if list(self.sample_hp_ways) != sorted(
            set(self.sample_hp_ways), reverse=True
        ):
            raise ValueError(
                "sample_hp_ways must be strictly decreasing (the paper "
                "samples decreasing partition sizes)"
            )
        if min(self.sample_hp_ways) < 1:
            raise ValueError("sampled HP way counts must be >= 1")
        if self.phase_detector not in ("geomean3", "ewma"):
            raise ValueError(
                f"unknown phase_detector {self.phase_detector!r}"
            )
        check_fraction("ewma_weight", self.ewma_weight)
        if self.ewma_weight == 0.0:
            raise ValueError("ewma_weight must be > 0")


    @classmethod
    def for_ways(cls, total_ways: int, **overrides) -> "DicerConfig":
        """A configuration whose sampling grid fits an LLC of ``total_ways``.

        The default grid targets the paper's 20-way cache; other CAT
        machines have 11/15/16-way CBMs. The derived grid starts at
        ``total_ways - 1`` (CT), descends roughly geometrically, and always
        ends at 1 — the same shape as the paper's.
        """
        if total_ways < 2:
            raise ValueError(f"total_ways must be >= 2, got {total_ways}")
        grid: list[int] = []
        w = total_ways - 1
        while w > 1:
            grid.append(w)
            w = max(1, int(w * 0.72))
        grid.append(1)
        return cls(sample_hp_ways=tuple(dict.fromkeys(grid)), **overrides)


#: The configuration the paper evaluates (Table 1).
TABLE1_DICER_CONFIG = DicerConfig()
