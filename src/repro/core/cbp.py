"""CBP-style coordinated cache + bandwidth + prefetch control (policy zoo).

CBP (Holtryd et al., "CBP: Coordinated management of cache partitioning,
bandwidth partitioning and prefetch throttling") argues the three knobs
must move together: throttling prefetch frees link bandwidth at almost no
IPC cost for waste-heavy apps, MBA caps the remaining aggressors, and cache
ways protect the priority class — and pulling any one lever in isolation
either overshoots or leaves headroom unused.

This controller coordinates the knobs around one saturation signal (total
link traffic vs ``bw_threshold_bytes``, the same signal DICER keys on):

* **saturated** — escalate the cheapest knob first: step the BE prefetch
  throttle up one level; once the ladder is exhausted, step MBA down one
  level; with both maxed, hold (``saturated_hold``).
* **calm** — adapt ways and relax throttles under hysteresis: if HP IPC
  fell more than ``alpha`` below its best, grow the HP partition; if it
  has been stable for ``relax_periods`` consecutive calm periods, first
  donate one HP way to the BEs (down to ``min_hp_ways``), then relax MBA,
  then relax prefetch — the reverse of the escalation order.

Exactly one event fires per period, which keeps the differential facets
unambiguous (:func:`repro.valid.differential.run_differential` picks this
controller for a :class:`CbpConfig` from the ``CONFORMANCE`` table). The
paper-literal reference oracle is ``ReferenceCbp`` in
:mod:`repro.valid.reference`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.allocation import Allocation
from repro.core.policies import ControllerPolicy
from repro.rdt.sample import PeriodSample
from repro.sim.platform import gbps_to_bytes
from repro.util.validation import (
    check_fraction,
    check_positive,
    check_positive_int,
)

__all__ = [
    "CbpConfig",
    "CbpDecision",
    "CbpController",
    "CbpPolicy",
    "DEFAULT_CBP_CONFIG",
]


@dataclass(frozen=True)
class CbpConfig:
    """Tunables of the coordinated controller."""

    #: Monitoring period (seconds).
    period_s: float = 1.0
    #: Link-saturation threshold (DICER's Table 2 value by default).
    bw_threshold_bytes: float = gbps_to_bytes(50.0)
    #: Relative HP-IPC stability band (Equation-3-like).
    alpha: float = 0.05
    #: Observation periods before the controller starts steering.
    warmup_periods: int = 2
    #: Consecutive calm periods required before relaxing/donating.
    relax_periods: int = 3
    #: MBA ladder, unthrottled first (applied to every BE core).
    mba_levels: tuple[float, ...] = (1.0, 0.7, 0.5, 0.35, 0.25)
    #: Prefetch-throttle ladder, fully-on first (every BE core).
    prefetch_ladder: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)
    #: HP partition floor when donating ways.
    min_hp_ways: int = 2

    def __post_init__(self) -> None:
        check_positive("period_s", self.period_s)
        check_positive("bw_threshold_bytes", self.bw_threshold_bytes)
        check_fraction("alpha", self.alpha)
        check_positive_int("warmup_periods", self.warmup_periods)
        check_positive_int("relax_periods", self.relax_periods)
        check_positive_int("min_hp_ways", self.min_hp_ways)
        if not self.mba_levels or self.mba_levels[0] != 1.0:
            raise ValueError("mba_levels must start at 1.0 (unthrottled)")
        if any(
            not 0.0 < lv <= 1.0 for lv in self.mba_levels
        ) or list(self.mba_levels) != sorted(self.mba_levels, reverse=True):
            raise ValueError("mba_levels must decrease within (0, 1]")
        if not self.prefetch_ladder or self.prefetch_ladder[0] != 0.0:
            raise ValueError("prefetch_ladder must start at 0.0 (fully on)")
        if any(
            not 0.0 <= lv <= 1.0 for lv in self.prefetch_ladder
        ) or list(self.prefetch_ladder) != sorted(self.prefetch_ladder):
            raise ValueError("prefetch_ladder must increase within [0, 1]")


DEFAULT_CBP_CONFIG = CbpConfig()


@dataclass(frozen=True)
class CbpDecision:
    """Telemetry: one coordinated decision.

    ``event`` is one of ``warmup``, ``fault``, ``throttle_prefetch``,
    ``throttle_mba``, ``saturated_hold``, ``grow_ways``, ``shrink_ways``,
    ``relax_mba``, ``relax_prefetch`` or ``hold``.
    """

    period: int
    event: str
    hp_ways: int
    mba_idx: int
    prefetch_idx: int
    saturated: bool


class CbpController:
    """The coordination loop over (ways, MBA level, prefetch level)."""

    def __init__(self, config: CbpConfig, total_ways: int) -> None:
        self.config = config
        self.total_ways = check_positive_int("total_ways", total_ways)
        if total_ways <= config.min_hp_ways:
            raise ValueError(
                f"total_ways={total_ways} leaves no room above "
                f"min_hp_ways={config.min_hp_ways}"
            )
        self.period = 0
        self.hp_ways = total_ways // 2
        self.mba_idx = 0
        self.prefetch_idx = 0
        self.best_ipc = 0.0
        self.calm_count = 0
        self.trace: list[CbpDecision] = []

    # -- helpers ---------------------------------------------------------

    def initial_allocation(self) -> Allocation:
        """Start from an even HP/BE split and steer from there."""
        return Allocation(hp_ways=self.hp_ways, total_ways=self.total_ways)

    @property
    def be_throttle(self) -> float:
        """Current MBA scale for the BE cores (1.0 = unthrottled)."""
        return self.config.mba_levels[self.mba_idx]

    @property
    def be_prefetch(self) -> float:
        """Current prefetch-throttle level for the BE cores (0 = on)."""
        return self.config.prefetch_ladder[self.prefetch_idx]

    def _fault(self, sample: PeriodSample) -> bool:
        return not (
            math.isfinite(sample.duration_s)
            and math.isfinite(sample.hp_ipc)
            and math.isfinite(sample.total_mem_bytes_s)
            and sample.hp_ipc >= 0.0
        )

    def _record(self, event: str, saturated: bool) -> None:
        self.trace.append(
            CbpDecision(
                period=self.period,
                event=event,
                hp_ways=self.hp_ways,
                mba_idx=self.mba_idx,
                prefetch_idx=self.prefetch_idx,
                saturated=saturated,
            )
        )

    def _allocation(self) -> Allocation:
        return Allocation(hp_ways=self.hp_ways, total_ways=self.total_ways)

    # -- the per-period decision ----------------------------------------

    def update(self, sample: PeriodSample) -> Allocation | None:
        """One monitoring period of the coordination loop."""
        self.period += 1
        if self._fault(sample):
            self._record("fault", saturated=False)
            return None
        saturated = sample.total_mem_bytes_s >= self.config.bw_threshold_bytes

        if self.period <= self.config.warmup_periods:
            self.best_ipc = max(self.best_ipc, sample.hp_ipc)
            self._record("warmup", saturated)
            return None

        self.best_ipc = max(self.best_ipc, sample.hp_ipc)
        if saturated:
            self.calm_count = 0
            if self.prefetch_idx < len(self.config.prefetch_ladder) - 1:
                self.prefetch_idx += 1
                self._record("throttle_prefetch", saturated)
            elif self.mba_idx < len(self.config.mba_levels) - 1:
                self.mba_idx += 1
                self._record("throttle_mba", saturated)
            else:
                self._record("saturated_hold", saturated)
            return None

        self.calm_count += 1
        stable = sample.hp_ipc >= (1.0 - self.config.alpha) * self.best_ipc
        if not stable and self.hp_ways < self.total_ways - 1:
            self.hp_ways += 1
            self.calm_count = 0
            self._record("grow_ways", saturated)
            return self._allocation()
        if self.calm_count >= self.config.relax_periods:
            self.calm_count = 0
            if stable and self.hp_ways > self.config.min_hp_ways:
                self.hp_ways -= 1
                self._record("shrink_ways", saturated)
                return self._allocation()
            if self.mba_idx > 0:
                self.mba_idx -= 1
                self._record("relax_mba", saturated)
                return None
            if self.prefetch_idx > 0:
                self.prefetch_idx -= 1
                self._record("relax_prefetch", saturated)
                return None
        self._record("hold", saturated)
        return None


class CbpPolicy(ControllerPolicy):
    """Coordinated ways + MBA + prefetch controller."""

    name = "CBP"

    def __init__(self, config: CbpConfig = DEFAULT_CBP_CONFIG) -> None:
        super().__init__(config, CbpController)

    # Own namespace entry: bench/tracing.py wraps CbpPolicy.__dict__["update"].
    update = ControllerPolicy.update
