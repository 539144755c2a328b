"""RDT backend bound to the server simulator.

``sample(T)`` advances simulated time by one monitoring period (the
simulator internally splits the interval at phase boundaries) and returns
the same aggregate signals a hardware backend would read from perf + MBM
counters. ``apply`` maps an :class:`~repro.core.allocation.Allocation` onto
the simulator's partition spec — or, when ``allocation`` is ``None`` at
construction, leaves the cache unmanaged (the UM policy).
"""

from __future__ import annotations

import numpy as np

from repro.core.allocation import Allocation
from repro.obs import get_registry
from repro.rdt.interface import PeriodSample, RdtBackend
from repro.sim.server import Server

__all__ = ["SimulatedRdt"]


class SimulatedRdt(RdtBackend):
    """Drive a :class:`~repro.sim.server.Server` through the RDT surface."""

    def __init__(self, server: Server) -> None:
        self._server = server
        self._last = self._snapshot()

    def _snapshot(self) -> dict:
        counters = self._server.counters()
        return {
            "time_s": counters["time_s"],
            "instructions": np.array(counters["instructions"], copy=True),
            "mem_bytes": np.array(counters["mem_bytes"], copy=True),
        }

    # -- RdtBackend --------------------------------------------------------

    @property
    def total_ways(self) -> int:
        """Way count of the simulated platform's LLC."""
        return self._server.platform.llc_ways

    @property
    def finished(self) -> bool:
        """True once every simulated app completed at least once."""
        return self._server.all_completed

    def apply(self, allocation: Allocation) -> None:
        """Map the allocation onto the simulator's partition spec.

        Accepts anything with ``to_partition(n_cores)`` — the classic
        HP/BE :class:`~repro.core.allocation.Allocation` and the M-group
        :class:`~repro.core.allocation.GroupAllocation` alike.
        """
        self._server.set_partition(
            allocation.to_partition(self._server.n_active)
        )

    def prefetch_allocations(self, allocations: list[Allocation]) -> int:
        """Pre-solve the current phases under many candidate allocations.

        The DICER controller hands its whole sampling grid (and, when a
        descent starts, the rest of its HP-ways ladder) here before
        stepping through it, so a fast-precision server batch-solves every
        candidate partition in one vectorised call; fast lanes are pure
        per lane, so the memo holds exactly what on-demand fast solves
        would have computed. Exact-precision servers solve nothing here
        (see :meth:`Server.prefetch_partitions`). Returns the number of
        operating points actually solved.
        """
        n = self._server.n_active
        return self._server.prefetch_partitions(
            [allocation.to_partition(n) for allocation in allocations]
        )

    def apply_be_throttle(self, scale: float) -> None:
        """MBA support: throttle every BE core to ``scale`` of full speed."""
        if not 0.0 < scale <= 1.0:
            raise ValueError(f"scale must be in (0, 1], got {scale}")
        n = self._server.n_active
        self._server.set_mba_scale(
            None if scale >= 1.0 else [1.0] + [scale] * (n - 1)
        )

    def apply_be_prefetch(self, level: float) -> None:
        """Throttle every BE core's prefetcher to ``level`` (0 = fully on).

        The scalar mirror of :meth:`apply_be_throttle` for the third knob:
        core 0 always stays unthrottled (the HP keeps its prefetcher), the
        rest get ``level``. Levels quantise onto the platform's actuator
        grid inside the server; ``level=0.0`` restores the unthrottled
        operating point bit-for-bit.
        """
        if not 0.0 <= level <= 1.0:
            raise ValueError(f"level must be in [0, 1], got {level}")
        n = self._server.n_active
        self._server.set_prefetch_levels(
            None if level <= 0.0 else [0.0] + [level] * (n - 1)
        )

    def apply_prefetch_levels(self, levels) -> None:
        """Set the full per-core prefetch-throttle vector (None = all on)."""
        self._server.set_prefetch_levels(levels)

    def sample(self, period_s: float) -> PeriodSample:
        """Advance simulated time one period and diff the counters."""
        if period_s <= 0:
            raise ValueError(f"period_s must be > 0, got {period_s}")
        target = self._server.time + period_s
        while self._server.time < target and not self._server.all_completed:
            self._server.advance(target - self._server.time)

        now = self._snapshot()
        registry = get_registry()
        dt = now["time_s"] - self._last["time_s"]
        if dt <= 0:
            # The workload completed exactly on the previous boundary; emit
            # a degenerate (but valid) sample over a tiny interval.
            dt = 1e-9
            registry.counter("rdt.simulated.degenerate_samples").inc()
        if registry.enabled:
            registry.counter("rdt.simulated.samples").inc()
            registry.histogram("rdt.sample_duration_s").observe(dt)
        d_instr = now["instructions"] - self._last["instructions"]
        d_bytes = now["mem_bytes"] - self._last["mem_bytes"]
        self._last = now

        cycles = dt * self._server.platform.freq_hz
        hp_ipc = float(d_instr[0]) / cycles
        hp_bw = float(d_bytes[0]) / dt
        total_bw = float(d_bytes.sum()) / dt

        # CMT-equivalent occupancy snapshot for the HP core.
        state = self._server.steady_state()
        occupancy = float(state.ways[0]) * self._server.platform.way_bytes

        return PeriodSample(
            duration_s=dt,
            hp_ipc=hp_ipc,
            hp_mem_bytes_s=hp_bw,
            total_mem_bytes_s=total_bw,
            hp_llc_occupancy_bytes=occupancy,
            # Per-core views for M-class controllers (LFOC/CBP). Derived
            # from the same counter diffs and occupancy snapshot as the
            # aggregates, so core 0's entries always agree with hp_*.
            core_ipcs=tuple(float(x) / cycles for x in d_instr),
            core_mem_bytes_s=tuple(float(x) / dt for x in d_bytes),
            core_occupancy_ways=tuple(float(w) for w in state.ways),
        )
