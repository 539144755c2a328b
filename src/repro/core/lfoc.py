"""LFOC-style fairness-oriented cache clustering (policy zoo).

LFOC (Garcia-Garcia et al., "LFOC: A Lightweight Fairness-Oriented Cache
Clustering Policy for Commodity Multicores") targets the scenario DICER
never touches: *many co-equal* applications sharing one LLC. Instead of an
HP/BE split it (1) classifies each application online from lightweight
monitoring data into *streaming* / *light* / *cache-sensitive* behaviour
classes, (2) groups applications into a small number of CAT clusters —
aggressors confined together, sensitive apps protected — and (3) divides
the ways among the sensitive clusters in proportion to how much cache they
can actually use.

This module is the production implementation; the paper-literal reference
oracle lives in :mod:`repro.valid.reference` (``ReferenceLfoc``) and the
two are differentially fuzzed against each other through the one
conformance harness (:func:`repro.valid.differential.run_differential`,
which picks this controller for an :class:`LfocConfig`) — every
clustering decision here is checkable against an executable spec.

Classification uses the per-core arrays of
:class:`~repro.rdt.sample.PeriodSample` (bandwidth, IPC, occupancy-ways),
averaged over a warmup window:

* **streaming** — bandwidth at/above ``streaming_bw_bytes``: high-traffic,
  low-reuse; confined so it cannot thrash the sensitive clusters.
* **light** — bandwidth below ``light_bw_bytes`` *and* occupancy below
  ``light_occupancy_ways``: barely touches the LLC; parked on a small
  partition at no cost.
* **sensitive** — everything else: keeps state in the LLC and pays for
  losing it.

Clustering (the executable spec both implementations follow):

1. All streaming cores form one cluster with ``streaming_ways`` ways; all
   light cores one cluster with ``light_ways`` ways (each only if
   non-empty).
2. Sensitive cores, ordered by decreasing average occupancy (ties by core
   index), are split into ``k`` contiguous chunks of near-equal size,
   where ``k = min(max_clusters - special_clusters, n_sensitive)``.
3. The remaining ways are apportioned across the sensitive clusters by
   the largest-remainder method over summed occupancy (each cluster gets
   at least one way); with no sensitive cores the leftover ways join the
   light cluster (or the streaming cluster when there are no light cores).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from repro.core.allocation import GroupAllocation
from repro.core.policies import ControllerPolicy
from repro.rdt.sample import PeriodSample
from repro.sim.platform import gbps_to_bytes
from repro.util.validation import check_positive, check_positive_int

__all__ = [
    "LfocConfig",
    "LfocDecision",
    "LfocController",
    "LfocPolicy",
    "DEFAULT_LFOC_CONFIG",
    "classify_cores",
    "cluster_cores",
    "apportion_ways",
]


@dataclass(frozen=True)
class LfocConfig:
    """Tunables of the LFOC clustering controller."""

    #: Monitoring period (seconds).
    period_s: float = 1.0
    #: Periods of unmanaged observation before the first clustering.
    warmup_periods: int = 3
    #: Re-evaluate the clustering every this many post-warmup periods.
    recluster_periods: int = 10
    #: Per-core bandwidth at/above which a core is *streaming*.
    streaming_bw_bytes: float = gbps_to_bytes(12.0)
    #: Per-core bandwidth below which a core may be *light* ...
    light_bw_bytes: float = gbps_to_bytes(1.0)
    #: ... provided its occupancy also sits below this many ways.
    light_occupancy_ways: float = 2.0
    #: Upper bound on CAT clusters (real CAT exposes 4-16 CLOS).
    max_clusters: int = 4
    #: Ways confining the streaming cluster.
    streaming_ways: int = 2
    #: Ways parked on the light cluster.
    light_ways: int = 1

    def __post_init__(self) -> None:
        check_positive("period_s", self.period_s)
        check_positive_int("warmup_periods", self.warmup_periods)
        check_positive_int("recluster_periods", self.recluster_periods)
        check_positive("streaming_bw_bytes", self.streaming_bw_bytes)
        check_positive("light_bw_bytes", self.light_bw_bytes)
        check_positive("light_occupancy_ways", self.light_occupancy_ways)
        check_positive_int("max_clusters", self.max_clusters)
        check_positive_int("streaming_ways", self.streaming_ways)
        check_positive_int("light_ways", self.light_ways)
        if self.light_bw_bytes >= self.streaming_bw_bytes:
            raise ValueError(
                "light_bw_bytes must be below streaming_bw_bytes"
            )


DEFAULT_LFOC_CONFIG = LfocConfig()


@dataclass(frozen=True)
class LfocDecision:
    """Telemetry: one LFOC decision.

    ``event`` is one of ``warmup``, ``cluster`` (first grouping),
    ``recluster`` (a periodic re-evaluation that changed the grouping),
    ``hold`` (re-evaluation confirmed the grouping, or an off-cadence
    period), or ``fault`` (unusable sample — period is inert).
    """

    period: int
    event: str
    #: Per-core behaviour class ("stream" / "light" / "sensitive"), empty
    #: until the first clustering.
    classes: tuple[str, ...] = ()
    #: Cluster membership: tuple of core tuples (empty until clustered).
    groups: tuple[tuple[int, ...], ...] = ()
    #: Ways per cluster, aligned with ``groups``.
    ways: tuple[int, ...] = ()


def classify_cores(
    bw: list[float], occ: list[float], config: LfocConfig
) -> list[str]:
    """Per-core behaviour classes from window-averaged signals."""
    classes = []
    for b, o in zip(bw, occ):
        if b >= config.streaming_bw_bytes:
            classes.append("stream")
        elif b < config.light_bw_bytes and o < config.light_occupancy_ways:
            classes.append("light")
        else:
            classes.append("sensitive")
    return classes


def apportion_ways(
    weights: list[float], total: int
) -> list[int]:
    """Largest-remainder apportionment of ``total`` ways, each share >= 1.

    Every cluster gets one way up front; the rest split proportionally to
    ``weights`` with remainders broken by (remainder desc, index asc) —
    fully deterministic, no float-order ambiguity beyond the quotas
    themselves (both implementations compute them identically).
    """
    k = len(weights)
    if total < k:
        raise ValueError(f"{k} clusters cannot share {total} ways")
    shares = [1] * k
    spare = total - k
    if spare == 0:
        return shares
    wsum = sum(weights)
    if wsum <= 0.0:
        quotas = [spare / k] * k
    else:
        quotas = [spare * w / wsum for w in weights]
    floors = [math.floor(q) for q in quotas]
    for i, f in enumerate(floors):
        shares[i] += f
    left = spare - sum(floors)
    order = sorted(
        range(k), key=lambda i: (-(quotas[i] - floors[i]), i)
    )
    for i in order[:left]:
        shares[i] += 1
    return shares


def cluster_cores(
    classes: list[str],
    occ: list[float],
    total_ways: int,
    config: LfocConfig,
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The clustering spec (module docstring, steps 1-3).

    Returns ``(groups, ways)``: cluster membership (streaming first, then
    light, then sensitive clusters by decreasing occupancy) and the way
    count per cluster.
    """
    streams = [i for i, c in enumerate(classes) if c == "stream"]
    lights = [i for i, c in enumerate(classes) if c == "light"]
    sensitive = [i for i, c in enumerate(classes) if c == "sensitive"]

    groups: list[tuple[int, ...]] = []
    ways: list[int] = []
    if streams:
        groups.append(tuple(streams))
        ways.append(config.streaming_ways)
    if lights:
        groups.append(tuple(lights))
        ways.append(config.light_ways)
    remaining = total_ways - sum(ways)

    if not sensitive:
        # Leftover ways join the light cluster (streaming if no lights):
        # confinement budgets only make sense when someone needs protecting.
        if remaining > 0 and groups:
            ways[-1] += remaining
        return tuple(groups), tuple(ways)

    k = min(config.max_clusters - len(groups), len(sensitive), remaining)
    k = max(k, 1)
    # Order by decreasing average occupancy, ties by core index.
    ordered = sorted(sensitive, key=lambda i: (-occ[i], i))
    # Near-equal contiguous chunks, first chunks one larger on remainder.
    base, extra = divmod(len(ordered), k)
    chunks: list[list[int]] = []
    pos = 0
    for j in range(k):
        size = base + (1 if j < extra else 0)
        chunks.append(ordered[pos:pos + size])
        pos += size
    weights = [sum(occ[i] for i in chunk) for chunk in chunks]
    shares = apportion_ways(weights, remaining)
    for chunk, share in zip(chunks, shares):
        groups.append(tuple(sorted(chunk)))
        ways.append(share)
    return tuple(groups), tuple(ways)


class LfocController:
    """Online classification + clustering over per-core samples."""

    def __init__(self, config: LfocConfig, total_ways: int) -> None:
        self.config = config
        self.total_ways = check_positive_int("total_ways", total_ways)
        self.period = 0
        self.trace: list[LfocDecision] = []
        self._window_bw: list[float] | None = None
        self._window_occ: list[float] | None = None
        self._window_n = 0
        self._since_cluster = 0
        self._groups: tuple[tuple[int, ...], ...] = ()
        self._ways: tuple[int, ...] = ()
        self._classes: tuple[str, ...] = ()

    # -- helpers ---------------------------------------------------------

    def initial_allocation(self) -> None:
        """LFOC observes unmanaged sharing first; no initial partition."""
        return None

    def _sample_fault(self, sample: PeriodSample) -> bool:
        n = sample.n_cores
        if n == 0:
            return True
        if len(sample.core_mem_bytes_s) != n or len(
            sample.core_occupancy_ways
        ) != n:
            return True
        isfinite = math.isfinite
        return not (
            all(map(isfinite, sample.core_ipcs))
            and all(map(isfinite, sample.core_mem_bytes_s))
            and all(map(isfinite, sample.core_occupancy_ways))
        )

    def _accumulate(self, sample: PeriodSample) -> None:
        n = sample.n_cores
        if self._window_bw is None or len(self._window_bw) != n:
            self._window_bw = [0.0] * n
            self._window_occ = [0.0] * n
            self._window_n = 0
        # Element-wise window + sample: the same additions as an in-place
        # loop, in C.
        self._window_bw = list(
            map(operator.add, self._window_bw, sample.core_mem_bytes_s)
        )
        self._window_occ = list(
            map(operator.add, self._window_occ, sample.core_occupancy_ways)
        )
        self._window_n += 1

    def _window_averages(self) -> tuple[list[float], list[float]]:
        n = self._window_n
        bw = [x / n for x in self._window_bw]
        occ = [x / n for x in self._window_occ]
        return bw, occ

    def _allocation(self) -> GroupAllocation:
        return GroupAllocation(
            total_ways=self.total_ways,
            cores=self._groups,
            ways=tuple(float(w) for w in self._ways),
        )

    def _record(self, event: str) -> None:
        self.trace.append(
            LfocDecision(
                period=self.period,
                event=event,
                classes=self._classes,
                groups=self._groups,
                ways=self._ways,
            )
        )

    # -- the per-period decision ----------------------------------------

    def update(self, sample: PeriodSample) -> GroupAllocation | None:
        """One monitoring period: classify / cluster / hold."""
        self.period += 1
        if self._sample_fault(sample):
            # Inert: no window pollution, no decision, cadence unchanged.
            self._record("fault")
            return None
        self._accumulate(sample)

        if self.period < self.config.warmup_periods:
            self._record("warmup")
            return None

        if not self._groups:
            bw, occ = self._window_averages()
            self._classes = tuple(classify_cores(bw, occ, self.config))
            self._groups, self._ways = cluster_cores(
                list(self._classes), occ, self.total_ways, self.config
            )
            self._reset_window()
            self._record("cluster")
            return self._allocation()

        self._since_cluster += 1
        if self._since_cluster < self.config.recluster_periods:
            self._record("hold")
            return None

        bw, occ = self._window_averages()
        classes = tuple(classify_cores(bw, occ, self.config))
        groups, ways = cluster_cores(
            list(classes), occ, self.total_ways, self.config
        )
        self._reset_window()
        self._since_cluster = 0
        if groups == self._groups and ways == self._ways:
            self._classes = classes
            self._record("hold")
            return None
        self._classes = classes
        self._groups, self._ways = groups, ways
        self._record("recluster")
        return self._allocation()

    def _reset_window(self) -> None:
        self._window_bw = None
        self._window_occ = None
        self._window_n = 0


class LfocPolicy(ControllerPolicy):
    """Fairness clustering of co-equal apps into CAT groups."""

    name = "LFOC"

    def __init__(self, config: LfocConfig = DEFAULT_LFOC_CONFIG) -> None:
        super().__init__(config, LfocController)

    # Own namespace entry: bench/tracing.py wraps LfocPolicy.__dict__["update"].
    update = ControllerPolicy.update
