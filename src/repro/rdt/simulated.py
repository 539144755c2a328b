"""RDT backend bound to the server simulator.

``sample(T)`` advances simulated time by one monitoring period (the
simulator internally splits the interval at phase boundaries) and returns
the same aggregate signals a hardware backend would read from perf + MBM
counters. ``apply`` maps an :class:`~repro.core.allocation.Allocation` onto
the simulator's partition spec — or, when ``allocation`` is ``None`` at
construction, leaves the cache unmanaged (the UM policy).
"""

from __future__ import annotations

from repro.core.allocation import Allocation
from repro.obs import get_registry
from repro.rdt.interface import PeriodSample, RdtBackend
from repro.sim.partition import PartitionSpec
from repro.sim.server import Server
from repro.util.stats import _reduce_sum

__all__ = ["SimulatedRdt"]


class SimulatedRdt(RdtBackend):
    """Drive a :class:`~repro.sim.server.Server` through the RDT surface."""

    def __init__(self, server: Server) -> None:
        self._server = server
        # The counters the next sample diffs against: (time, per-core
        # instructions, per-core memory bytes).
        self._last = (
            server.time,
            [app.total_instructions for app in server.apps],
            [app.total_mem_bytes for app in server.apps],
        )
        # Partition spec per allocation: controllers revisit a handful of
        # allocations, and building a validated spec costs more than the
        # rest of a monitoring period.
        self._partitions: dict[Allocation, PartitionSpec] = {}
        # What each knob was last set to and the partition, MBA scale or
        # prefetch vector that produced on the server: a controller hands
        # back the same allocation object and the same BE levels period
        # after period, and re-hashing or re-quantising them every time
        # would rebuild what the server already holds.
        self._applied: tuple = (None, None)
        self._throttle: tuple = (None, None)
        self._prefetch: tuple = (None, None)

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
        applied, partition = self._applied
        if allocation is not applied:
            partition = self._partition(allocation)
            self._applied = (allocation, partition)
        self._server.set_partition(partition)

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
        server = self._server
        level, held = self._throttle
        if scale == level and server.mba_scale is held:
            return
        n = server.n_active
        server.set_mba_scale(
            None if scale >= 1.0 else [1.0] + [scale] * (n - 1)
        )
        self._throttle = (scale, server.mba_scale)

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
        server = self._server
        last, held = self._prefetch
        if level == last and server.prefetch is held:
            return
        n = server.n_active
        server.set_prefetch_levels(
            None if level <= 0.0 else [0.0] + [level] * (n - 1)
        )
        self._prefetch = (level, server.prefetch)

    def sample(self, period_s: float) -> PeriodSample:
        """Advance simulated time one period and diff the counters."""
        if period_s <= 0:
            raise ValueError(f"period_s must be > 0, got {period_s}")
        server = self._server
        target = server.time + period_s
        while server.time < target and not server.all_completed:
            server.advance(target - server.time)

        time_s = server.time
        last_time_s, last_instructions, last_mem_bytes = self._last
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
        cycles = dt * server.platform.freq_hz
        # One pass over the cores: read the counters and diff them. The
        # per-core views for M-class controllers (LFOC/CBP) come from the
        # same diffs as the aggregates, so core 0's entries always agree
        # with hp_*.
        instructions: list[float] = []
        mem_bytes: list[float] = []
        core_ipcs: list[float] = []
        d_bytes: list[float] = []
        for app, last_i, last_m in zip(
            server.apps, last_instructions, last_mem_bytes
        ):
            retired = app.total_instructions
            transferred = app.total_mem_bytes
            instructions.append(retired)
            mem_bytes.append(transferred)
            core_ipcs.append((retired - last_i) / cycles)
            d_bytes.append(transferred - last_m)
        self._last = (time_s, instructions, mem_bytes)
        core_mem_bytes_s = tuple([x / dt for x in d_bytes])

        # CMT-equivalent occupancy snapshot for the HP core.
        ways = server.steady_ways()

        return PeriodSample.checked(
            dt,
            core_ipcs[0],
            core_mem_bytes_s[0],
            # NumPy's pairwise order, not ``sum``: the two round
            # differently from eight cores up.
            _reduce_sum(d_bytes) / dt,
            ways[0] * server.platform.way_bytes,
            tuple(core_ipcs),
            core_mem_bytes_s,
            tuple(ways),
        )
