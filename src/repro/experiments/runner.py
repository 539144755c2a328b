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
from repro.rdt.harness import drive
from repro.rdt.simulated import SimulatedRdt
from repro.sim.partition import PartitionSpec
from repro.sim.platform import PlatformConfig, TABLE1_PLATFORM
from repro.sim.server import Server, StaticOutcome, claim_static_outcome
from repro.sim.solo import SoloProfile, solo_profile
from repro.workloads.app import AppModel
from repro.workloads.mix import MultiHpMix, WorkloadMix

__all__ = [
    "MAX_TIME_S",
    "PairResult",
    "run_pair",
    "CustomResult",
    "run_custom",
    "MultiResult",
    "run_multi",
]


#: Simulated-time budget of one run unless the caller passes its own.
MAX_TIME_S = 4000.0


def _wire_prefetch(policy: Policy, rdt: SimulatedRdt, precision: str) -> None:
    """Point a DICER-style controller's prefetch hook at the simulator.

    Controllers that expose ``prefetch_hook`` (see
    :class:`~repro.core.dicer.DicerController`) get their sampling grids
    and descent ladders batch-solved by
    :meth:`SimulatedRdt.prefetch_allocations`. The hook is a pure
    execution-speed hint; policies without one are untouched. Exact runs
    leave it unwired: their prefetches are no-ops (the scalar solver is
    the cheap exact kernel), so building the candidate partitions would
    be wasted work.
    """
    if precision == "exact":
        return
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


def initial_partition(
    policy: Policy, n_cores: int, total_ways: int
) -> PartitionSpec:
    """The partition a run starts from: ``policy.setup``'s allocation.

    Calls ``setup`` (which builds a dynamic policy's controller); a
    ``None`` allocation leaves the LLC unmanaged.
    """
    allocation = policy.setup(total_ways)
    if allocation is None:
        return PartitionSpec.unmanaged(n_cores, total_ways)
    return allocation.to_partition(n_cores)


def _execute(
    apps: list[AppModel],
    policy: Policy,
    platform: PlatformConfig,
    max_time_s: float,
    precision: str,
    record_timeline: bool = False,
) -> tuple[StaticOutcome, tuple]:
    """Run ``apps`` under a fresh copy of ``policy``: outcome and trace.

    A fast static run a campaign prewarm already stepped to completion
    (:func:`~repro.sim.server.claim_static_outcome`) takes that outcome
    instead of running its own Server; the metrics are the same bits.
    Otherwise both kinds batch-solve the phase product of the initial
    partition up front (a no-op under exact precision): a static run
    then steps its Server to completion, a dynamic one dwells there
    between decisions while :func:`~repro.rdt.harness.drive` runs the
    policy's periods.
    """
    policy = policy.fresh()
    partition = initial_partition(policy, len(apps), platform.llc_ways)
    if not policy.dynamic and not record_timeline and precision == "fast":
        outcome = claim_static_outcome(platform, apps, partition, max_time_s)
        if outcome is not None:
            return outcome, ()
    server = Server(
        platform,
        apps,
        partition,
        record_timeline=record_timeline,
        precision=precision,
    )
    server.prefetch_phase_product()
    trace: tuple = ()
    if policy.dynamic:
        rdt = SimulatedRdt(server)
        _wire_prefetch(policy, rdt, precision)
        trace = tuple(drive(policy, rdt, max_time_s=max_time_s))
    else:
        server.run_until_all_complete(max_time_s=max_time_s)
    hp = server.apps[0]
    outcome = StaticOutcome(
        time=server.time,
        total_instructions=tuple(a.total_instructions for a in server.apps),
        hp_completions=hp.completions,
        hp_run_times=tuple(hp.run_times),
    )
    return outcome, trace


def _norm_ipcs(
    outcome: StaticOutcome, solos: list[SoloProfile], platform: PlatformConfig
) -> list[float]:
    """Each core's IPC over the run, normalised to its solo profile."""
    cycles = platform.freq_hz * outcome.time
    return [
        total / cycles / solo.avg_ipc
        for total, solo in zip(outcome.total_instructions, solos)
    ]


def run_pair(
    mix: WorkloadMix,
    policy: Policy,
    platform: PlatformConfig = TABLE1_PLATFORM,
    *,
    max_time_s: float = MAX_TIME_S,
    record_timeline: bool = False,
    precision: str = "exact",
) -> PairResult:
    """Execute ``mix`` under ``policy`` and compute the paper's metrics.

    ``precision`` selects the steady-state solver mode for every solve in
    the run — event loop, prefetches, and solo baselines alike ("exact" =
    bitwise-reproducible scalar parity, "fast" = tolerance-contracted
    vectorised kernel; DESIGN.md §10).
    """
    outcome, trace = _execute(
        mix.apps(), policy, platform, max_time_s, precision, record_timeline
    )
    return _pair_result(mix, policy.name, platform, precision, outcome, trace)


def _pair_result(
    mix: WorkloadMix,
    policy_name: str,
    platform: PlatformConfig,
    precision: str,
    outcome: StaticOutcome,
    trace: tuple[DecisionRecord, ...] = (),
) -> PairResult:
    """The paper's metrics of one finished run (its Server's or staged)."""
    solo_hp = solo_profile(mix.hp, platform, precision=precision)
    solo_be = solo_profile(mix.be, platform, precision=precision)
    hp_norm, *be_norms = _norm_ipcs(
        outcome, [solo_hp] + [solo_be] * mix.n_be, platform
    )
    hp_run_times = outcome.hp_run_times
    hp_slowdown = (
        sum(hp_run_times) / len(hp_run_times) / solo_hp.time_s
        if hp_run_times
        else float("inf")
    )

    return PairResult(
        hp_name=mix.hp.name,
        be_name=mix.be.name,
        n_be=mix.n_be,
        policy=policy_name,
        hp_norm_ipc=hp_norm,
        be_norm_ipc=sum(be_norms) / len(be_norms),
        hp_slowdown=hp_slowdown,
        efu=efu([hp_norm] + be_norms),
        duration_s=outcome.time,
        hp_completions=outcome.hp_completions,
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
    max_time_s: float = MAX_TIME_S,
    precision: str = "exact",
) -> CustomResult:
    """Execute a :class:`~repro.workloads.mix.HeterogeneousMix`.

    Identical methodology to :func:`run_pair` but with per-core BE models;
    each BE is normalised against its *own* solo profile.
    """
    apps = mix.apps()
    outcome, trace = _execute(apps, policy, platform, max_time_s, precision)
    solos = [solo_profile(a, platform, precision=precision) for a in apps]
    norms = _norm_ipcs(outcome, solos, platform)
    return CustomResult(
        label=mix.label,
        policy=policy.name,
        hp_norm_ipc=norms[0],
        be_norm_ipcs=tuple(norms[1:]),
        efu=efu(norms),
        duration_s=outcome.time,
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
    max_time_s: float = MAX_TIME_S,
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
    outcome, trace = _execute(apps, policy, platform, max_time_s, precision)
    solos = [solo_profile(a, platform, precision=precision) for a in apps]
    norms = _norm_ipcs(outcome, solos, platform)
    return MultiResult(
        label=mix.label,
        policy=policy.name,
        norm_ipcs=tuple(norms),
        n_hp=mix.n_hp,
        min_hp_norm_ipc=min(norms[: mix.n_hp]),
        efu=efu(norms),
        duration_s=outcome.time,
        trace=trace,
    )
