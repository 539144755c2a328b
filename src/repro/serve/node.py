"""Per-node runtime and its asyncio heartbeat supervisor.

A :class:`NodeRuntime` is the daemon's handle on one consolidation node:
it holds the node's current assignment (the HP and BE apps the control
plane placed there), actuates placements through a persistent
:class:`~repro.rdt.faulty.NodeFaultyRdt` boundary, and — on demand —
*evaluates* the assignment by building a fresh simulated server and
driving it with the configured policy (DICER or any zoo policy via
``policy_from_name``) for a few monitoring periods.

The fault boundary outlives individual evaluations: every simulator the
runtime builds is rebound into the same :class:`NodeFaultyRdt`, so a
crash injected between evaluations still fails the next heartbeat probe,
the next actuation, and the next evaluation alike. That is the "fault
injection at the node boundary" of DESIGN.md §14 — the supervisor sees
node loss exactly where a real fleet would: at the RPC surface.

:class:`NodeSupervisor` is the liveness side: an asyncio loop probing
the boundary on a deterministic per-node jittered interval (the same
:func:`~repro.util.lease.jittered_interval` the campaign queue uses, so
fleet heartbeats decorrelate) with a deadline around each probe — a hung
node misses its deadline, an unreachable one raises, and either way the
daemon's ``on_down`` callback fires after ``miss_budget`` consecutive
misses.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Sequence

from repro.core.allocation import Allocation
from repro.core.policies import AnyAllocation, Policy, UnmanagedPolicy
from repro.obs import get_event_log, get_registry
from repro.rdt.faulty import NodeFaultKind, NodeFaultyRdt, RdtUnavailableError
from repro.rdt.harness import drive
from repro.rdt.interface import PeriodSample, RdtBackend
from repro.rdt.simulated import SimulatedRdt
from repro.serve.placement import PlaneConfig
from repro.sim.platform import PlatformConfig, TABLE1_PLATFORM
from repro.sim.server import Server
from repro.util.lease import jittered_interval
from repro.workloads import get_app

__all__ = ["NodeRuntime", "NodeSupervisor"]


class _IdleRdt(RdtBackend):
    """The boundary's inner backend while no evaluation is running.

    An idle node still answers heartbeats: probes return a degenerate
    all-zero sample. Only the :class:`NodeFaultyRdt` wrapper decides
    whether the node is reachable at all.
    """

    def __init__(self, total_ways: int) -> None:
        self._total_ways = total_ways

    @property
    def total_ways(self) -> int:
        return self._total_ways

    @property
    def finished(self) -> bool:
        return False

    def apply(self, allocation: "Allocation") -> None:
        pass

    def sample(self, period_s: float) -> PeriodSample:
        return PeriodSample(
            duration_s=period_s,
            hp_ipc=0.0,
            hp_mem_bytes_s=0.0,
            total_mem_bytes_s=0.0,
            hp_llc_occupancy_bytes=0.0,
        )


class _Evaluated:
    """The node's policy as an evaluation drives it, keeping the last sample.

    On a node without an HP it drives :class:`UnmanagedPolicy` instead
    (never updates, LLC unmanaged) at the configured policy's period.
    Everything else drive reads — knob levels, trace — is the policy's.
    """

    def __init__(self, policy: Policy, *, managed: bool) -> None:
        self.policy = policy if managed else UnmanagedPolicy()
        self.period_s = policy.period_s
        self.sample: PeriodSample | None = None

    def __getattr__(self, name: str):
        return getattr(self.policy, name)

    def update(self, sample: PeriodSample) -> AnyAllocation | None:
        self.sample = sample
        return self.policy.update(sample)


class NodeRuntime:
    """One node: assignment state + policy evaluation behind a boundary."""

    def __init__(
        self,
        node_id: str,
        config: PlaneConfig,
        *,
        platform: PlatformConfig = TABLE1_PLATFORM,
        hang_s: float = 0.01,
    ) -> None:
        self.node_id = node_id
        self.config = config
        self.platform = platform
        self.hp_app: str | None = None
        self.be_apps: tuple[str, ...] = ()
        #: Transient actuation faults still to fire (armed by chaos).
        self.armed_faults = 0
        self.assigns = 0
        self.evaluations = 0
        self.last_metrics: dict | None = None
        self._dirty = False
        self.boundary = NodeFaultyRdt(
            _IdleRdt(platform.llc_ways), hang_s=hang_s
        )

    # -- fault surface ----------------------------------------------------

    @property
    def available(self) -> bool:
        """Whether the node boundary currently answers."""
        return self.boundary.available

    def inject(
        self, kind: NodeFaultKind | str, *, persistent: bool = False
    ) -> None:
        """Arm a node-level fault (crash/hang/partition) at the boundary.

        ``persistent=True`` holds a hang or partition down until
        :meth:`restore` (the daemon uses it so the boundary stays down
        for exactly the window the plane reports the node down).
        """
        self.boundary.inject(kind, persistent=persistent)

    def restore(self) -> None:
        """Node repaired/restarted: the boundary answers again.

        A crash loses the node's in-memory controller state, so the next
        evaluation starts from a fresh policy — which it always does
        (evaluations build their policy from config), so restore is pure
        boundary repair.
        """
        self.boundary.restore()

    def arm_assign_faults(self, count: int) -> None:
        """Arm ``count`` transient placement-actuation failures."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        self.armed_faults += count

    # -- control-plane surface --------------------------------------------

    def probe(self) -> PeriodSample:
        """Heartbeat: one boundary touch; raises when the node is down."""
        return self.boundary.sample(1e-3)

    def assign(
        self, hp_app: str | None, be_apps: Sequence[str]
    ) -> None:
        """Actuate a placement decision onto the node.

        Raises :class:`RdtUnavailableError` while the node is down *or*
        while armed transient faults remain — the daemon's bounded retry
        absorbs the latter.
        """
        down = self.boundary.unavailable_kind
        if down is not None:
            raise RdtUnavailableError(down)
        if self.armed_faults > 0:
            self.armed_faults -= 1
            get_registry().counter("serve.assign_faults").inc()
            raise RdtUnavailableError(
                NodeFaultKind.PARTITION, "transient placement fault (armed)"
            )
        new = (hp_app, tuple(be_apps))
        if new != (self.hp_app, self.be_apps):
            self._dirty = True
        self.hp_app, self.be_apps = new
        self.assigns += 1

    @property
    def dirty(self) -> bool:
        """Whether the assignment changed since the last evaluation."""
        return self._dirty

    # -- evaluation --------------------------------------------------------

    def evaluate(self, *, periods: int = 2, max_time_s: float = 50.0) -> dict | None:
        """Drive the node's policy over its assignment for a few periods.

        Builds a fresh simulated server for the current assignment,
        rebinds it into the fault boundary, and runs the configured
        policy through :func:`~repro.rdt.harness.drive` for ``periods``
        periods, all three knobs as in ``run_pair`` (static policies just
        advance time). No prefetch hook and no phase-product prefetch: a
        couple of periods would not use them. Returns the last period's
        headline metrics, or ``None`` for an empty node. Raises
        :class:`RdtUnavailableError` if the boundary fails mid-loop.
        """
        if periods < 1:
            raise ValueError(f"periods must be >= 1, got {periods}")
        apps = [get_app(a) for a in (
            ((self.hp_app,) if self.hp_app else ()) + self.be_apps
        )]
        if not apps:
            self._dirty = False
            return None
        # Local imports: these pull the policy zoo + experiment stack.
        from repro.experiments.queue import policy_from_name
        from repro.experiments.runner import initial_partition

        policy = policy_from_name(self.config.policy).fresh()
        evaluated = _Evaluated(policy, managed=self.hp_app is not None)
        server = Server(
            self.platform,
            apps,
            initial_partition(
                evaluated.policy, len(apps), self.platform.llc_ways
            ),
            precision=self.config.precision,
        )
        self.boundary.rebind(SimulatedRdt(server))
        try:
            drive(
                evaluated,
                self.boundary,
                max_periods=periods,
                max_time_s=max_time_s,
            )
        finally:
            self.boundary.rebind(_IdleRdt(self.platform.llc_ways))
        sample = evaluated.sample
        self.evaluations += 1
        self._dirty = False
        self.last_metrics = (
            None
            if sample is None
            else {
                "hp_app": self.hp_app,
                "n_bes": len(self.be_apps),
                "policy": policy.name,
                "hp_ipc": sample.hp_ipc,
                "total_bw_bytes_s": sample.total_mem_bytes_s,
                "sim_time_s": server.time,
            }
        )
        registry = get_registry()
        registry.counter("serve.evaluations").inc()
        log = get_event_log()
        if log.enabled and self.last_metrics is not None:
            log.emit("serve.evaluate", node=self.node_id, **self.last_metrics)
        return self.last_metrics


class NodeSupervisor:
    """Asyncio heartbeat + deadline supervision for one node runtime."""

    def __init__(
        self,
        runtime: NodeRuntime,
        *,
        interval_s: float = 0.02,
        deadline_s: float = 0.25,
        miss_budget: int = 2,
        on_down: Callable[[str, str], None] | None = None,
    ) -> None:
        if deadline_s <= 0:
            raise ValueError(f"deadline_s must be > 0, got {deadline_s}")
        if miss_budget < 1:
            raise ValueError(f"miss_budget must be >= 1, got {miss_budget}")
        self.runtime = runtime
        #: Deterministic per-node jitter — the fleet's heartbeats spread
        #: out instead of thundering together (same helper as the
        #: campaign queue's worker heartbeats).
        self.interval_s = jittered_interval(interval_s, runtime.node_id)
        self.deadline_s = deadline_s
        self.miss_budget = miss_budget
        self.on_down = on_down
        self.beats = 0
        self.misses = 0
        self.consecutive_misses = 0
        self.reported_down = False
        self._stop = asyncio.Event()

    def stop(self) -> None:
        """Ask :meth:`run` to exit after the current probe."""
        self._stop.set()

    async def _probe_once(self) -> None:
        try:
            await asyncio.wait_for(
                asyncio.to_thread(self.runtime.probe), self.deadline_s
            )
        except (asyncio.TimeoutError, RdtUnavailableError) as exc:
            self.misses += 1
            self.consecutive_misses += 1
            reason = (
                "deadline"
                if isinstance(exc, asyncio.TimeoutError)
                else exc.kind.value
            )
            registry = get_registry()
            registry.counter("serve.heartbeat.misses").inc()
            log = get_event_log()
            if log.enabled:
                log.emit(
                    "serve.heartbeat.miss",
                    node=self.runtime.node_id,
                    reason=reason,
                    consecutive=self.consecutive_misses,
                )
            if (
                self.consecutive_misses >= self.miss_budget
                and not self.reported_down
            ):
                self.reported_down = True
                if self.on_down is not None:
                    self.on_down(self.runtime.node_id, reason)
        else:
            self.beats += 1
            self.consecutive_misses = 0
            self.reported_down = False
            get_registry().counter("serve.heartbeat.beats").inc()

    async def run(self) -> None:
        """Probe until :meth:`stop`; report via ``on_down`` on misses."""
        while not self._stop.is_set():
            await self._probe_once()
            try:
                await asyncio.wait_for(self._stop.wait(), self.interval_s)
            except asyncio.TimeoutError:
                continue
