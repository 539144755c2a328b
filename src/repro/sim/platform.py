"""Platform description (paper Table 1).

The reproduction's stand-in for the Intel Xeon E5-2630 v4 testbed: 10 cores
at 2.2 GHz (SMT disabled), a 25 MB 20-way set-associative LLC, and a memory
link rated at 68.3 Gbps. :class:`PlatformConfig` also owns the contention
model's calibration constants; it is frozen and hashable so solver results
can be memoised per platform.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.util.validation import (
    check_in_range,
    check_positive,
    check_positive_int,
)

__all__ = ["PlatformConfig", "TABLE1_PLATFORM", "gbps_to_bytes", "bytes_to_gbps"]


def gbps_to_bytes(gbps: float) -> float:
    """Convert gigabits/second to bytes/second (SI giga)."""
    return gbps * 1e9 / 8.0


def bytes_to_gbps(bytes_per_s: float) -> float:
    """Convert bytes/second to gigabits/second (SI giga)."""
    return bytes_per_s * 8.0 / 1e9


@dataclass(frozen=True)
class PlatformConfig:
    """Hardware model parameters.

    The first block mirrors the paper's Table 1; the second block calibrates
    the analytic contention model (these have no hardware counterpart — they
    shape the latency/bandwidth feedback loop).
    """

    # --- Table 1 -------------------------------------------------------
    n_cores: int = 10
    freq_hz: float = 2.2e9
    llc_ways: int = 20
    llc_bytes: int = 25 * 1024 * 1024
    line_bytes: int = 64
    mem_bw_bytes: float = gbps_to_bytes(68.3)

    # --- contention-model calibration ---------------------------------
    #: Unloaded round-trip memory latency in core cycles (~82 ns @ 2.2 GHz).
    mem_lat_cycles: float = 180.0
    #: Queueing gain: how aggressively latency grows with link utilisation.
    #: Calibrated (with queue_exponent) so moderate mixes barely suffer
    #: while a bandwidth-bound HP slows ~1.4-1.5x when co-located with nine
    #: cache-starved BEs (the paper's milc/gcc case, Figure 3).
    queue_gain: float = 0.10
    #: Exponent on the M/M/1 term: >1 keeps latency flat at mid utilisation
    #: and hockey-sticks it near saturation, matching measured load-latency
    #: curves on Xeon memory subsystems.
    queue_exponent: float = 1.5
    #: Utilisation cap, keeps the M/M/1-style term finite.
    utilisation_cap: float = 0.88
    #: Exponent on access pressure in the LRU way-sharing model (1.0 means
    #: ways split proportionally to LLC access rate, the classic result for
    #: LRU under competing streams).
    pressure_theta: float = 1.0
    #: Number of discrete prefetch-throttle steps above "fully on" the
    #: platform's actuator exposes (real MSR 0x1A4 prefetcher controls are
    #: a handful of on/off bits; CBP-style controllers step through a small
    #: ladder). Continuous levels from a controller are quantised onto
    #: ``k / prefetch_levels`` for ``k = 0..prefetch_levels``.
    prefetch_levels: int = 4

    def __post_init__(self) -> None:
        check_positive_int("n_cores", self.n_cores)
        check_positive("freq_hz", self.freq_hz)
        check_positive_int("llc_ways", self.llc_ways)
        check_positive_int("llc_bytes", self.llc_bytes)
        check_positive_int("line_bytes", self.line_bytes)
        check_positive("mem_bw_bytes", self.mem_bw_bytes)
        check_positive("mem_lat_cycles", self.mem_lat_cycles)
        check_positive("queue_gain", self.queue_gain)
        check_in_range("utilisation_cap", self.utilisation_cap, 0.5, 0.999)
        check_positive("pressure_theta", self.pressure_theta)
        check_positive_int("prefetch_levels", self.prefetch_levels)
        # Cache the (frozen) hash, as Phase does: every steady-state memo
        # key holds the platform, and the generated __hash__ re-hashes all
        # thirteen fields per lookup. The fields are numbers, whose hashes
        # do not depend on the process, so a pickled copy keeps a valid one.
        object.__setattr__(
            self,
            "_hash",
            hash(tuple(getattr(self, f.name) for f in fields(self))),
        )

    def __hash__(self) -> int:
        return self._hash

    @property
    def way_bytes(self) -> float:
        """Capacity of a single LLC way."""
        return self.llc_bytes / self.llc_ways

    def quantise_prefetch(self, level: float) -> float:
        """Snap a continuous prefetch-throttle level onto the actuator grid.

        Rounds to the nearest of the ``prefetch_levels + 1`` steps in
        [0, 1] (0.0 = prefetcher fully on). Out-of-range requests clamp —
        a controller asking for "more than fully throttled" gets 1.0, the
        hardware's hardest setting.
        """
        clamped = min(max(level, 0.0), 1.0)
        return round(clamped * self.prefetch_levels) / self.prefetch_levels


#: The paper's evaluation platform.
TABLE1_PLATFORM = PlatformConfig()
