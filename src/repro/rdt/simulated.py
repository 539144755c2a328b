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
from repro.sim.partition import PartitionSpec
from repro.sim.server import Server

__all__ = ["SimulatedRdt"]


class SimulatedRdt(RdtBackend):
    """Drive a :class:`~repro.sim.server.Server` through the RDT surface."""

    def __init__(self, server: Server) -> None:
        self._server = server
        self._last = self._snapshot()
        # Partition spec per allocation: controllers revisit a handful of
        # allocations, and building a validated spec costs more than the
        # rest of a monitoring period.
        self._partitions: dict[Allocation, PartitionSpec] = {}

    def _snapshot(self) -> tuple[float, list[float], list[float]]:
        """``(time, per-core instructions, per-core memory bytes)``."""
        apps = self._server.apps
        return (
            self._server.time,
            [app.total_instructions for app in apps],
            [app.total_mem_bytes for app in apps],
        )

    def _partition(self, allocation: Allocation) -> PartitionSpec:
        partition = self._partitions.get(allocation)
        if partition is None:
            partition = allocation.to_partition(self._server.n_active)
            self._partitions[allocation] = partition
        return partition

    # -- RdtBackend --------------------------------------------------------

    @property
    def total_ways(self) -> int:
        """Way count of the simulated platform's LLC."""
        return self._server.platform.llc_ways

    @property
    def finished(self) -> bool:
        """True once every simulated app completed at least once."""
        return self._server.all_completed

    @property
    def time_s(self) -> float:
        """Simulated seconds elapsed on the server."""
        return self._server.time

    def apply(self, allocation: Allocation) -> None:
        """Map the allocation onto the simulator's partition spec.

        Accepts anything hashable with ``to_partition(n_cores)`` — the
        classic HP/BE :class:`~repro.core.allocation.Allocation` and the
        M-group :class:`~repro.core.allocation.GroupAllocation` alike.
        """
        self._server.set_partition(self._partition(allocation))

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
        return self._server.prefetch_partitions(
            [self._partition(allocation) for allocation in allocations]
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

    def sample(self, period_s: float) -> PeriodSample:
        """Advance simulated time one period and diff the counters."""
        if period_s <= 0:
            raise ValueError(f"period_s must be > 0, got {period_s}")
        target = self._server.time + period_s
        while self._server.time < target and not self._server.all_completed:
            self._server.advance(target - self._server.time)

        now = self._snapshot()
        time_s, instructions, mem_bytes = now
        last_time_s, last_instructions, last_mem_bytes = self._last
        self._last = now
        registry = get_registry()
        dt = time_s - last_time_s
        if dt <= 0:
            # The workload completed exactly on the previous boundary; emit
            # a degenerate (but valid) sample over a tiny interval.
            dt = 1e-9
            registry.counter("rdt.simulated.degenerate_samples").inc()
        if registry.enabled:
            registry.counter("rdt.simulated.samples").inc()
            registry.histogram("rdt.sample_duration_s").observe(dt)
        d_bytes = [x - y for x, y in zip(mem_bytes, last_mem_bytes)]
        cycles = dt * self._server.platform.freq_hz
        # Per-core views for M-class controllers (LFOC/CBP), from the same
        # counter diffs as the aggregates, so core 0's entries always agree
        # with hp_*.
        core_ipcs = tuple([
            (x - y) / cycles for x, y in zip(instructions, last_instructions)
        ])
        core_mem_bytes_s = tuple([x / dt for x in d_bytes])

        # CMT-equivalent occupancy snapshot for the HP core.
        ways = self._server.steady_state().ways.tolist()

        return PeriodSample(
            duration_s=dt,
            hp_ipc=core_ipcs[0],
            hp_mem_bytes_s=core_mem_bytes_s[0],
            # NumPy's pairwise reduction, not ``sum``: the two round
            # differently from eight cores up.
            total_mem_bytes_s=float(np.add.reduce(d_bytes)) / dt,
            hp_llc_occupancy_bytes=ways[0] * self._server.platform.way_bytes,
            core_ipcs=core_ipcs,
            core_mem_bytes_s=core_mem_bytes_s,
            core_occupancy_ways=tuple(ways),
        )
