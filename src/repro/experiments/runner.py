"""Experiment runner: one (workload mix, policy) execution with metrics.

Implements the paper's methodology (Section 4.1): HP and BEs start
together, pinned one per core; finished applications restart until every
application has completed at least once; HP QoS is judged on IPC normalised
to isolated execution.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.dicer import DecisionRecord
from repro.core.policies import Policy
from repro.metrics.efu import efu
from repro.rdt.simulated import SimulatedRdt
from repro.sim.partition import PartitionSpec
from repro.sim.platform import PlatformConfig, TABLE1_PLATFORM
from repro.sim.server import Server
from repro.sim.solo import solo_profile
from repro.workloads.mix import MultiHpMix, WorkloadMix

__all__ = [
    "PairResult",
    "run_pair",
    "CustomResult",
    "run_custom",
    "MultiResult",
    "run_multi",
]


def _wire_prefetch(policy: Policy, rdt: SimulatedRdt) -> None:
    """Point a DICER-style controller's prefetch hook at the simulator.

    Controllers that expose ``prefetch_hook`` (see
    :class:`~repro.core.dicer.DicerController`) get their sampling grids
    batch-solved by :meth:`SimulatedRdt.prefetch_allocations`. The hook is
    a pure execution-speed hint; policies without one are untouched.
    """
    controller = getattr(policy, "controller", None)
    if controller is not None and hasattr(controller, "prefetch_hook"):
        controller.prefetch_hook = rdt.prefetch_allocations


@dataclass(frozen=True)
class PairResult:
    """Metrics of one consolidated execution."""

    hp_name: str
    be_name: str
    n_be: int
    policy: str
    hp_norm_ipc: float
    be_norm_ipc: float
    hp_slowdown: float
    efu: float
    duration_s: float
    hp_completions: int
    #: DICER decision trace (empty for static policies).
    trace: tuple[DecisionRecord, ...] = ()

    @property
    def label(self) -> str:
        """The paper's "hp be" row label."""
        return f"{self.hp_name} {self.be_name}"


def run_pair(
    mix: WorkloadMix,
    policy: Policy,
    platform: PlatformConfig = TABLE1_PLATFORM,
    *,
    max_time_s: float = 4000.0,
    record_timeline: bool = False,
    precision: str = "exact",
) -> PairResult:
    """Execute ``mix`` under ``policy`` and compute the paper's metrics.

    ``precision`` selects the steady-state solver mode for every solve in
    the run — event loop, prefetches, and solo baselines alike ("exact" =
    bitwise-reproducible scalar parity, "fast" = tolerance-contracted
    vectorised kernel; DESIGN.md §10).
    """
    apps = mix.apps()
    n_cores = len(apps)
    policy = policy.fresh()

    allocation = policy.setup(platform.llc_ways)
    partition = (
        allocation.to_partition(n_cores)
        if allocation is not None
        else PartitionSpec.unmanaged(n_cores, platform.llc_ways)
    )
    server = Server(
        platform,
        apps,
        partition,
        record_timeline=record_timeline,
        precision=precision,
    )

    trace: tuple[DecisionRecord, ...] = ()
    if policy.dynamic:
        rdt = SimulatedRdt(server)
        _wire_prefetch(policy, rdt)
        # Batch-solve the phase product of the policy's *initial* partition
        # (a dynamic controller dwells there between decisions); later
        # partitions are prefetched through the controller hook.
        server.prefetch_phase_product()
        while not rdt.finished and server.time < max_time_s:
            sample = rdt.sample(policy.period_s)
            new_allocation = policy.update(sample)
            if new_allocation is not None:
                rdt.apply(new_allocation)
            throttle = getattr(policy, "be_throttle", None)
            if throttle is not None:
                rdt.apply_be_throttle(throttle)
            prefetch = getattr(policy, "be_prefetch", None)
            if prefetch is not None:
                rdt.apply_be_prefetch(prefetch)
        controller = getattr(policy, "controller", None)
        if controller is not None:
            trace = tuple(controller.trace)
    else:
        # Static partition: batch-solve the phase cross product up front
        # (identical results — the solves the event loop would do one at a
        # time all become memo hits).
        server.prefetch_phase_product()
        server.run_until_all_complete(max_time_s=max_time_s)

    solo_hp = solo_profile(mix.hp, platform, precision=precision)
    solo_be = solo_profile(mix.be, platform, precision=precision)
    duration = server.time
    freq = platform.freq_hz

    hp = server.apps[0]
    hp_norm = hp.total_instructions / (freq * duration) / solo_hp.avg_ipc
    be_norms = [
        a.total_instructions / (freq * duration) / solo_be.avg_ipc
        for a in server.apps[1:]
    ]
    hp_slowdown = (
        sum(hp.run_times) / len(hp.run_times) / solo_hp.time_s
        if hp.run_times
        else float("inf")
    )

    return PairResult(
        hp_name=mix.hp.name,
        be_name=mix.be.name,
        n_be=mix.n_be,
        policy=policy.name,
        hp_norm_ipc=hp_norm,
        be_norm_ipc=sum(be_norms) / len(be_norms),
        hp_slowdown=hp_slowdown,
        efu=efu([hp_norm] + be_norms),
        duration_s=duration,
        hp_completions=hp.completions,
        trace=trace,
    )


@dataclass(frozen=True)
class CustomResult:
    """Metrics of a heterogeneous consolidation (one HP + mixed BEs)."""

    label: str
    policy: str
    hp_norm_ipc: float
    #: Per-BE-instance normalised IPCs, in core order.
    be_norm_ipcs: tuple[float, ...]
    efu: float
    duration_s: float
    trace: tuple[DecisionRecord, ...] = ()


def run_custom(
    mix,
    policy: Policy,
    platform: PlatformConfig = TABLE1_PLATFORM,
    *,
    max_time_s: float = 4000.0,
    precision: str = "exact",
) -> CustomResult:
    """Execute a :class:`~repro.workloads.mix.HeterogeneousMix`.

    Identical methodology to :func:`run_pair` but with per-core BE models;
    each BE is normalised against its *own* solo profile.
    """
    apps = mix.apps()
    n_cores = len(apps)
    policy = policy.fresh()

    allocation = policy.setup(platform.llc_ways)
    partition = (
        allocation.to_partition(n_cores)
        if allocation is not None
        else PartitionSpec.unmanaged(n_cores, platform.llc_ways)
    )
    server = Server(platform, apps, partition, precision=precision)

    trace: tuple[DecisionRecord, ...] = ()
    if policy.dynamic:
        rdt = SimulatedRdt(server)
        _wire_prefetch(policy, rdt)
        server.prefetch_phase_product()
        while not rdt.finished and server.time < max_time_s:
            sample = rdt.sample(policy.period_s)
            new_allocation = policy.update(sample)
            if new_allocation is not None:
                rdt.apply(new_allocation)
            throttle = getattr(policy, "be_throttle", None)
            if throttle is not None:
                rdt.apply_be_throttle(throttle)
            prefetch = getattr(policy, "be_prefetch", None)
            if prefetch is not None:
                rdt.apply_be_prefetch(prefetch)
        controller = getattr(policy, "controller", None)
        if controller is not None:
            trace = tuple(controller.trace)
    else:
        server.prefetch_phase_product()
        server.run_until_all_complete(max_time_s=max_time_s)

    duration = server.time
    freq = platform.freq_hz
    norms = []
    for running, model in zip(server.apps, apps):
        solo = solo_profile(model, platform, precision=precision)
        norms.append(
            running.total_instructions / (freq * duration) / solo.avg_ipc
        )

    return CustomResult(
        label=mix.label,
        policy=policy.name,
        hp_norm_ipc=norms[0],
        be_norm_ipcs=tuple(norms[1:]),
        efu=efu(norms),
        duration_s=duration,
        trace=trace,
    )


@dataclass(frozen=True)
class MultiResult:
    """Metrics of a multi-HP consolidation (M co-equal classes)."""

    label: str
    policy: str
    #: Per-app normalised IPCs, in core order (HPs first, then BEs).
    norm_ipcs: tuple[float, ...]
    #: Number of high-priority apps (the first ``n_hp`` entries).
    n_hp: int
    #: Minimum normalised IPC over the HP apps — the fairness headline
    #: (LFOC optimises exactly this: no co-equal app left behind).
    min_hp_norm_ipc: float
    efu: float
    duration_s: float
    trace: tuple = ()

    @property
    def hp_norm_ipcs(self) -> tuple[float, ...]:
        """The HP apps' normalised IPCs."""
        return self.norm_ipcs[: self.n_hp]


def run_multi(
    mix: MultiHpMix,
    policy: Policy,
    platform: PlatformConfig = TABLE1_PLATFORM,
    *,
    max_time_s: float = 4000.0,
    precision: str = "exact",
) -> MultiResult:
    """Execute a :class:`~repro.workloads.mix.MultiHpMix`.

    Same methodology as :func:`run_pair` but every app — HP and BE alike —
    is normalised against its *own* solo profile, and the headline metric
    is the worst HP slowdown (fairness across co-equal classes) rather
    than core 0's QoS. M-class policies (LFOC) read the per-core arrays
    of each sample; HP/BE policies see core 0 as "the" HP and treat the
    rest as best-effort, which is exactly how they would behave if
    deployed on this mix unmodified.
    """
    apps = mix.apps()
    n_cores = len(apps)
    policy = policy.fresh()

    allocation = policy.setup(platform.llc_ways)
    partition = (
        allocation.to_partition(n_cores)
        if allocation is not None
        else PartitionSpec.unmanaged(n_cores, platform.llc_ways)
    )
    server = Server(platform, apps, partition, precision=precision)

    trace: tuple = ()
    if policy.dynamic:
        rdt = SimulatedRdt(server)
        _wire_prefetch(policy, rdt)
        server.prefetch_phase_product()
        while not rdt.finished and server.time < max_time_s:
            sample = rdt.sample(policy.period_s)
            new_allocation = policy.update(sample)
            if new_allocation is not None:
                rdt.apply(new_allocation)
            throttle = getattr(policy, "be_throttle", None)
            if throttle is not None:
                rdt.apply_be_throttle(throttle)
            prefetch = getattr(policy, "be_prefetch", None)
            if prefetch is not None:
                rdt.apply_be_prefetch(prefetch)
        controller = getattr(policy, "controller", None)
        if controller is not None:
            trace = tuple(controller.trace)
    else:
        server.prefetch_phase_product()
        server.run_until_all_complete(max_time_s=max_time_s)

    duration = server.time
    freq = platform.freq_hz
    norms = []
    for running, model in zip(server.apps, apps):
        solo = solo_profile(model, platform, precision=precision)
        norms.append(
            float(
                running.total_instructions / (freq * duration) / solo.avg_ipc
            )
        )

    return MultiResult(
        label=mix.label,
        policy=policy.name,
        norm_ipcs=tuple(norms),
        n_hp=mix.n_hp,
        min_hp_norm_ipc=min(norms[: mix.n_hp]),
        efu=efu(norms),
        duration_s=duration,
        trace=trace,
    )
