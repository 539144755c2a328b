"""Solo (isolated) execution profiles.

Every paper metric is normalised to each application's performance when it
runs *alone* on the server with the whole LLC: HP slowdown (Figures 1, 3),
normalised IPCs (Figure 5, Equation 1), SLO conformance (Figure 7). Solo
profiles are deterministic per (application, platform) and are memoised.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.sim.contention import (
    SteadyState,
    SteadyStateCache,
    _check_precision,
)
from repro.sim.partition import PartitionSpec
from repro.sim.platform import PlatformConfig
from repro.workloads.app import AppModel

__all__ = [
    "SoloProfile",
    "solo_profile",
    "solo_ipc_at_ways",
    "prewarm_profiles",
    "clear_caches",
]

#: Bounds on the module caches below. Generous (the full catalog needs ~60
#: profile entries and ~60 x llc_ways way entries) but finite, so campaigns
#: over synthesised or generated catalogs cannot grow them without limit.
_MAX_PROFILE_ENTRIES = 4096
_MAX_WAYS_ENTRIES = 16384


@dataclass(frozen=True)
class SoloProfile:
    """Isolated-execution reference numbers for one application."""

    app_name: str
    time_s: float
    avg_ipc: float
    phase_ipcs: tuple[float, ...]
    peak_bw_bytes: float


# LRU cache keyed by (phases tuple, platform, precision). BE clones share
# phase tuples with their catalog original, so "gcc_base3#7" hits the same
# entry as gcc_base3. Bounded by _MAX_PROFILE_ENTRIES.
_CACHE: OrderedDict[tuple, SoloProfile] = OrderedDict()


def solo_profile(
    app: AppModel,
    platform: PlatformConfig,
    *,
    precision: str = "exact",
) -> SoloProfile:
    """Compute (or fetch) the solo execution profile of ``app``.

    The app runs alone with all LLC ways; the memory link still applies its
    load-latency curve to the app's *own* traffic, so a streaming code does
    not get an unrealistically rosy solo baseline. Profiles are cached per
    ``precision`` (DESIGN.md §10): "exact" baselines stay bitwise
    reproducible, "fast" ones inherit the fast kernel's tolerance contract.
    """
    precision = _check_precision(precision)
    key = (app.phases, platform, precision)
    cached = _CACHE.get(key)
    if cached is not None:
        _CACHE.move_to_end(key)
        return cached
    # One request across the app's phases: a fast batch under "fast",
    # scalar cold solves under "exact" (so exact profiles carry the same
    # bits they always did).
    states = SteadyStateCache().solve_many(
        platform, _solo_points([app], platform.llc_ways), precision=precision
    )
    return _remember(key, _build_profile(app, platform, states))


def _solo_points(apps: Sequence[AppModel], ways: int) -> list[tuple]:
    """One ``(phases, partition)`` point per phase of each app, alone
    with ``ways`` LLC ways."""
    partition = PartitionSpec.unmanaged(1, ways)
    return [((phase,), partition) for app in apps for phase in app.phases]


def _build_profile(
    app: AppModel, platform: PlatformConfig, states: Sequence[SteadyState]
) -> SoloProfile:
    """The profile of ``app`` from its per-phase solo states, in order."""
    total_time = 0.0
    total_instr = 0.0
    phase_ipcs: list[float] = []
    peak_bw = 0.0
    for phase, state in zip(app.phases, states):
        ipc = float(state.ipc[0])
        phase_ipcs.append(ipc)
        total_time += phase.instructions / (platform.freq_hz * ipc)
        total_instr += phase.instructions
        peak_bw = max(peak_bw, state.total_bw_bytes)
    return SoloProfile(
        app_name=app.name,
        time_s=total_time,
        avg_ipc=total_instr / (platform.freq_hz * total_time),
        phase_ipcs=tuple(phase_ipcs),
        peak_bw_bytes=peak_bw,
    )


def _remember(key: tuple, profile: SoloProfile) -> SoloProfile:
    """Cache ``profile`` under ``key`` in the bounded profile LRU."""
    _CACHE[key] = profile
    if len(_CACHE) > _MAX_PROFILE_ENTRIES:
        _CACHE.popitem(last=False)
    return profile


# LRU cache keyed by (phases tuple, platform, ways, precision); bounded by
# _MAX_WAYS_ENTRIES.
_WAYS_CACHE: OrderedDict[tuple, float] = OrderedDict()


def solo_ipc_at_ways(
    app: AppModel,
    platform: PlatformConfig,
    ways: int,
    *,
    precision: str = "exact",
) -> float:
    """Average solo IPC when the application may use only ``ways`` LLC ways.

    This is the measurement behind the paper's Figure 2: the minimum
    allocation at which an isolated application reaches a given fraction of
    its full-cache performance. Implemented by running the app alone inside
    a cache restricted to ``ways`` ways (partitioning semantics: the
    remaining ways are simply unreachable).
    """
    if not 1 <= ways <= platform.llc_ways:
        raise ValueError(
            f"ways must be in [1, {platform.llc_ways}], got {ways}"
        )
    precision = _check_precision(precision)
    key = (app.phases, platform, ways, precision)
    cached = _WAYS_CACHE.get(key)
    if cached is not None:
        _WAYS_CACHE.move_to_end(key)
        return cached

    states = SteadyStateCache().solve_many(
        platform, _solo_points([app], ways), precision=precision
    )
    result = _build_profile(app, platform, states).avg_ipc
    _WAYS_CACHE[key] = result
    if len(_WAYS_CACHE) > _MAX_WAYS_ENTRIES:
        _WAYS_CACHE.popitem(last=False)
    return result


def prewarm_profiles(
    apps: Iterable[AppModel],
    platform: PlatformConfig,
    *,
    precision: str = "exact",
) -> int:
    """Batch-solve the solo baselines of many applications in one sweep.

    Campaign runners call this before a serial cell loop: all cold
    (phase, full-LLC) operating points across ``apps`` go through ONE
    :meth:`SteadyStateCache.solve_many` call, so the per-phase solves that
    :func:`solo_profile` would otherwise do one at a time land as a single
    wide batch, and each profile is built from its slice of the states
    that call returned. Returns the number of profiles actually built
    (apps whose profile was already cached are skipped; clones sharing
    phase tuples count once).
    """
    precision = _check_precision(precision)
    pending: list[AppModel] = []
    seen: set[tuple] = set()
    for app in apps:
        key = (app.phases, platform, precision)
        if key in _CACHE or key in seen:
            continue
        seen.add(key)
        pending.append(app)
    if not pending:
        return 0
    states = SteadyStateCache().solve_many(
        platform, _solo_points(pending, platform.llc_ways), precision=precision
    )
    start = 0
    for app in pending:
        stop = start + len(app.phases)
        _remember(
            (app.phases, platform, precision),
            _build_profile(app, platform, states[start:stop]),
        )
        start = stop
    return len(pending)


def clear_caches() -> None:
    """Empty both solo-profile caches (test fixtures; long campaigns)."""
    _CACHE.clear()
    _WAYS_CACHE.clear()
