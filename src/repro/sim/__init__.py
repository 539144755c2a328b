"""Multicore server simulator — the reproduction's hardware substrate.

Replaces the paper's Xeon E5-2630 v4 testbed with an analytic model that
captures the phenomena DICER manages:

* way-granular LLC partitioning with pressure-proportional sharing inside
  each partition group (:mod:`repro.sim.llc`);
* a shared memory link whose latency explodes near saturation
  (:mod:`repro.sim.membus`);
* a per-core CPI model tying the two together, resolved by a damped
  fixed-point solver (:mod:`repro.sim.contention`);
* an event-driven executor with restart-until-all-complete semantics
  matching the paper's methodology (:mod:`repro.sim.server`).
"""

from repro.sim.contention import ConvergenceError, SteadyState, solve_steady_state
from repro.sim.llc import effective_ways, waterfill
from repro.sim.membus import MemoryLink
from repro.sim.partition import CacheGroup, PartitionSpec
from repro.sim.platform import (
    TABLE1_PLATFORM,
    PlatformConfig,
    bytes_to_gbps,
    gbps_to_bytes,
)
from repro.sim.server import RunningApp, Server, SimulationTimeout
from repro.sim.solo import SoloProfile, solo_profile

__all__ = [
    "ConvergenceError",
    "SteadyState",
    "solve_steady_state",
    "effective_ways",
    "waterfill",
    "MemoryLink",
    "CacheGroup",
    "PartitionSpec",
    "TABLE1_PLATFORM",
    "PlatformConfig",
    "bytes_to_gbps",
    "gbps_to_bytes",
    "RunningApp",
    "Server",
    "SimulationTimeout",
    "SoloProfile",
    "solo_profile",
]
