"""DICER-MBA — the paper's first future-work extension (Section 6).

    "We are extending DICER to explicitly, dynamically control the memory
    bandwidth, using Intel's MBA […]"

Cache partitioning alone cannot help when the *optimal* allocation is still
bandwidth-saturated (ten streaming applications, say): baseline DICER just
stops resampling (the cooldown guard) and lets the link queue. DICER-MBA
adds a second actuator: while saturation persists after a sampling pass it
steps the BEs' Memory Bandwidth Allocation throttle down one level per
period; once the link stays under the threshold it relaxes one level per
quiet period. The cache-partitioning state machine is inherited unchanged.
"""

from __future__ import annotations

from repro.core.allocation import Allocation
from repro.core.config import DicerConfig, TABLE1_DICER_CONFIG
from repro.core.dicer import ControllerMode, DicerController, sample_fault
from repro.core.policies import DicerPolicy
from repro.rdt.sample import PeriodSample

__all__ = ["MbaDicerController", "MbaDicerPolicy", "MBA_LEVELS"]

#: MBA throttle levels (fraction of unthrottled bandwidth), mirroring the
#: coarse delay levels real MBA exposes (100/90/80/... percent classes).
MBA_LEVELS: tuple[float, ...] = (1.0, 0.8, 0.6, 0.4, 0.2)


class MbaDicerController(DicerController):
    """DICER plus progressive BE bandwidth throttling."""

    def __init__(
        self,
        config: DicerConfig,
        total_ways: int,
        levels: tuple[float, ...] = MBA_LEVELS,
    ) -> None:
        super().__init__(config, total_ways)
        if not levels or levels[0] != 1.0:
            raise ValueError("levels must start at 1.0 (unthrottled)")
        if list(levels) != sorted(set(levels), reverse=True):
            raise ValueError("levels must be strictly decreasing")
        self.levels = levels
        self._level_idx = 0
        self._quiet_periods = 0

    @property
    def be_throttle(self) -> float:
        """Current BE MBA level in (0, 1]; 1.0 = unthrottled."""
        return self.levels[self._level_idx]

    def update(self, sample: PeriodSample) -> Allocation:
        """Listing 1-3 update plus the MBA throttle step."""
        allocation = super().update(sample)
        if sample_fault(sample, self.config) is not None:
            # The base controller held this period (implausible sample);
            # the throttle must not act on the same garbage reading.
            return allocation
        saturated = sample.total_mem_bytes_s > self.config.bw_threshold_bytes
        if saturated and self.mode is not ControllerMode.SAMPLING:
            # Sampling already searches the cache axis; throttle only when
            # partitioning has had its chance and the link is still full.
            if self._level_idx < len(self.levels) - 1:
                self._level_idx += 1
            self._quiet_periods = 0
        elif not saturated:
            self._quiet_periods += 1
            if self._quiet_periods >= 2 and self._level_idx > 0:
                self._level_idx -= 1
                self._quiet_periods = 0
        return allocation


class MbaDicerPolicy(DicerPolicy):
    """Policy wrapper: DICER-MBA for the experiment runner.

    The runner reads :attr:`be_throttle` after every update and forwards it
    to backends that support MBA.
    """

    name = "DICER-MBA"

    def __init__(
        self,
        config: DicerConfig = TABLE1_DICER_CONFIG,
        controller_factory=MbaDicerController,
    ) -> None:
        super().__init__(config, controller_factory)
