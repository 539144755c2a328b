"""The DICER controller — paper Listings 1, 2 and 3 as a state machine.

DICER observes one :class:`~repro.rdt.interface.PeriodSample` per monitoring
period and answers with the HP/BE way split for the next period. It is a
pure state machine: no knowledge of the workload, the simulator, or the
backend — exactly the black-box transparency the paper argues for.

Control flow (Listing 1)::

    every period:  monitor()
                   if BW saturated  -> allocation_sampling()
                   else             -> allocation_optimisation()

* **allocation_sampling** (Section 3.2.1): the first saturation reclassifies
  the workload as CT-Thwarted; DICER probes decreasing HP way counts and
  keeps the one with the highest HP IPC (``optimal_allocation, IPC_opt``).
* **allocation_optimisation** (Listing 2): on a *phase change* (Equation 2)
  reset; on *stable* IPC (Equation 3) donate one HP way to the BEs; on
  improved IPC hold; on degraded IPC reset.
* **allocation_reset** (Listing 3): return to the best-known allocation (CT
  for CT-Favoured, ``optimal_allocation`` for CT-Thwarted) and validate the
  decision against the following period's measurements.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.core.allocation import Allocation
from repro.core.config import DicerConfig
from repro.obs import get_event_log, get_registry
from repro.rdt.sample import PeriodSample

__all__ = [
    "DicerController",
    "ControllerMode",
    "DecisionRecord",
    "sample_fault",
    "MIN_SAMPLE_DURATION_S",
    "STALE_MIN_DURATION_S",
    "MAX_PLAUSIBLE_IPC",
    "BW_FAULT_FACTOR",
]

# -- measurement plausibility (graceful degradation, DESIGN.md §8) ----------
#
# Real RDT counters fail in well-known ways: MBM/CMT reads can be dropped,
# repeated (stale), or wrap around between two samples, and a zero-length
# read window turns counter diffs into garbage rates. The controller must
# never let such a sample crash the loop or leak into the Equation-2
# bandwidth history, so `sample_fault` classifies implausible samples and
# `update` holds the last decision for the period instead of acting.

#: Periods shorter than this carry no meaningful counter deltas (a zero-dt
#: read). The simulator's own end-of-workload degenerate samples use 1e-9 s
#: and stay *valid* — the floor only rejects genuinely broken reads.
MIN_SAMPLE_DURATION_S = 1e-10
#: A zero IPC over at least this long a window means the instruction
#: counter did not advance — a stale/repeated read, not a running core.
#: (Sub-microsecond windows may legitimately retire nothing.)
STALE_MIN_DURATION_S = 1e-6
#: No core retires this many instructions per cycle; values above it are
#: wrapped/corrupt counters.
MAX_PLAUSIBLE_IPC = 1e6
#: Bandwidth beyond this multiple of the saturation threshold cannot come
#: from the memory link — it is a counter wraparound artefact.
BW_FAULT_FACTOR = 1e3


def sample_fault(sample: PeriodSample, config: DicerConfig) -> str | None:
    """Classify an implausible sample; ``None`` means the sample is usable.

    Returns one of ``"nonfinite"``, ``"zero_dt"``, ``"wrap"`` or
    ``"stale"`` — the fault taxonomy of DESIGN.md §8.
    """
    if not (
        math.isfinite(sample.duration_s)
        and math.isfinite(sample.hp_ipc)
        and math.isfinite(sample.hp_mem_bytes_s)
        and math.isfinite(sample.total_mem_bytes_s)
    ):
        return "nonfinite"
    if sample.duration_s < MIN_SAMPLE_DURATION_S:
        return "zero_dt"
    bw_limit = BW_FAULT_FACTOR * config.bw_threshold_bytes
    if (
        sample.hp_ipc > MAX_PLAUSIBLE_IPC
        or sample.hp_mem_bytes_s > bw_limit
        or sample.total_mem_bytes_s > bw_limit
    ):
        return "wrap"
    if sample.hp_ipc == 0.0 and sample.duration_s >= STALE_MIN_DURATION_S:
        return "stale"
    return None


class ControllerMode(enum.Enum):
    """Top-level state of the DICER state machine."""

    #: First period: measurements exist but no previous IPC to compare to.
    WARMUP = "warmup"
    #: Normal operation (Listing 2).
    OPTIMISE = "optimise"
    #: Probing the sampling grid (Section 3.2.1).
    SAMPLING = "sampling"
    #: One-period validation after a reset (Listing 3).
    RESET_VALIDATE = "reset_validate"


@dataclass(frozen=True)
class DecisionRecord:
    """Telemetry: one controller decision (for traces, tests, examples).

    ``event`` is the *structured* decision kind — one of ``warmup``,
    ``sampling_start`` / ``sampling_dwell`` / ``sampling_probe`` /
    ``sampling_conclude`` / ``sampling_empty``, ``shrink`` / ``floor`` /
    ``hold``, ``reset_ctf`` / ``reset_ctt``, ``validate_ok`` /
    ``validate_rollback`` / ``validate_optimal`` — and is what analysis
    code should branch on. ``note`` is the human-readable rendering of
    the same decision and carries no stability guarantee.
    """

    period: int
    mode: ControllerMode
    hp_ipc: float
    total_bw_bytes_s: float
    saturated: bool
    phase_change: bool
    allocation: Allocation
    note: str = ""
    event: str = ""


@dataclass
class _SamplingState:
    pending: list[int] = field(default_factory=list)
    results: dict[int, float] = field(default_factory=dict)
    dwell_left: int = 0
    active_ways: int | None = None


class DicerController:
    """Dynamic HP/BE cache partitioning per the paper's Listings 1-3."""

    def __init__(self, config: DicerConfig, total_ways: int) -> None:
        if total_ways < 2:
            raise ValueError(f"total_ways must be >= 2, got {total_ways}")
        self.config = config
        self.total_ways = total_ways

        # Listing 1 initial state: assume CT-Favoured, start like CT.
        self.current = Allocation.cache_takeover(total_ways)
        self.optimal = self.current
        self.ipc_opt: float | None = None
        self.ct_favoured = True

        self.mode = ControllerMode.WARMUP
        self._last_ipc: float | None = None
        self._hp_bw_history: deque[float] = deque(maxlen=3)
        self._hp_bw_ewma: float | None = None
        self._sampling = _SamplingState()
        self._reset_trigger_ipc = 0.0
        self._rollback = self.current
        self._cooldown = 0
        self._period = 0
        self._suppress_bw_bookkeeping = False
        #: True between the first ``shrink`` of a descent and the next
        #: non-shrink decision (fault periods leave it untouched).
        self._descending = False
        #: Optional batch-solve hook: called with a list of allocations the
        #: controller is about to enforce, BEFORE the first of them is
        #: applied — the whole grid when a sampling sweep starts, and the
        #: rest of the HP-ways ladder (current ways down to 1) when a
        #: descent starts. The simulated-RDT runner points this at
        #: :meth:`SimulatedRdt.prefetch_allocations` so each list is
        #: solved in one vectorised batch; on real hardware (or when unset)
        #: it stays ``None`` and the controller behaves exactly as before.
        #: Purely an execution-speed hint — it must never change decisions.
        self.prefetch_hook: Callable[[list[Allocation]], object] | None = None
        #: Compatibility surface: the decision history as a plain list of
        #: :class:`DecisionRecord` (what ``trace_tools`` renders). The same
        #: decisions stream through :mod:`repro.obs` as ``dicer.*`` events
        #: when telemetry is enabled.
        self.trace: list[DecisionRecord] = []

    # -- public API ---------------------------------------------------------

    @property
    def period_s(self) -> float:
        """Monitoring period T: how long each sample of the loop spans."""
        return self.config.period_s

    def initial_allocation(self) -> Allocation:
        """The allocation to enforce before the first monitoring period."""
        return self.current

    def update(self, sample: PeriodSample) -> Allocation:
        """Consume one period's measurements; return the next allocation.

        Implausible samples (see :func:`sample_fault`) are inert: the
        period is recorded with ``event="fault"``, the last decision is
        held, and *no* internal state — mode, cooldown, the Equation-2
        bandwidth history, the previous-period IPC — is touched.
        """
        self._period += 1
        fault = sample_fault(sample, self.config)
        if fault is not None:
            self._record_fault(sample, fault)
            return self.current
        raw_saturated = (
            self.config.saturation_detection
            and sample.total_mem_bytes_s > self.config.bw_threshold_bytes
        )
        # The cooldown guard treats "saturated but recently sampled" as not
        # saturated, preventing a sampling livelock when even the optimum
        # operating point exceeds the threshold (see DicerConfig).
        saturated = raw_saturated and self._cooldown == 0
        if self._cooldown > 0:
            self._cooldown -= 1

        phase_change = False
        if self.mode is ControllerMode.SAMPLING:
            event, note = self._step_sampling(sample)
        elif saturated:
            event, note = self._start_sampling()
        elif self.mode is ControllerMode.WARMUP:
            self.mode = ControllerMode.OPTIMISE
            event, note = "warmup", "warmup"
        elif self.mode is ControllerMode.RESET_VALIDATE:
            event, note = self._validate_reset(sample)
        else:
            phase_change, event, note = self._optimise(sample)
        self._track_descent(event)

        # Bookkeeping AFTER decisions: Equation 2 compares this period's HP
        # bandwidth against the *previous* periods' baseline. The period
        # that concludes sampling is excluded: its bandwidth was measured
        # under the final probe allocation, and folding it in would
        # re-pollute the history _conclude_sampling just cleared.
        if self._suppress_bw_bookkeeping:
            self._suppress_bw_bookkeeping = False
        else:
            self._hp_bw_history.append(sample.hp_mem_bytes_s)
            w = self.config.ewma_weight
            self._hp_bw_ewma = (
                sample.hp_mem_bytes_s
                if self._hp_bw_ewma is None
                else (1.0 - w) * self._hp_bw_ewma + w * sample.hp_mem_bytes_s
            )
        self._last_ipc = sample.hp_ipc

        self.trace.append(
            DecisionRecord(
                period=self._period,
                mode=self.mode,
                hp_ipc=sample.hp_ipc,
                total_bw_bytes_s=sample.total_mem_bytes_s,
                saturated=raw_saturated,
                phase_change=phase_change,
                allocation=self.current,
                note=note,
                event=event,
            )
        )
        self._report(sample, event, note, raw_saturated, phase_change)
        return self.current

    def _track_descent(self, event: str) -> None:
        """Prefetch the HP-ways ladder on the first shrink of a descent.

        Listing 2 donates one way per stable period, so a descent visits
        ``current``, ``current - 1``, ... until the IPC moves; handing the
        hook the whole ladder at once turns those per-period solves into
        memo hits. Any other decision ends the descent.
        """
        if event != "shrink":
            self._descending = False
            return
        if self._descending:
            return
        self._descending = True
        if self.prefetch_hook is not None:
            ladder = range(self.current.hp_ways, 0, -1)
            self.prefetch_hook([self.current.with_hp_ways(w) for w in ladder])
            registry = get_registry()
            if registry.enabled:
                registry.counter("dicer.ladder_prefetches").inc()

    def _record_fault(self, sample: PeriodSample, fault: str) -> None:
        """Log a held (faulty-sample) period into the trace and telemetry."""
        self.trace.append(
            DecisionRecord(
                period=self._period,
                mode=self.mode,
                hp_ipc=sample.hp_ipc,
                total_bw_bytes_s=sample.total_mem_bytes_s,
                saturated=False,
                phase_change=False,
                allocation=self.current,
                note=f"fault: {fault} sample, holding hp={self.current.hp_ways}",
                event="fault",
            )
        )
        registry = get_registry()
        if registry.enabled:
            registry.counter("dicer.faults").inc()
            registry.counter(f"dicer.fault.{fault}").inc()
        log = get_event_log()
        if log.enabled:
            log.emit(
                "dicer.fault",
                period=self._period,
                fault=fault,
                mode=self.mode.value,
                duration_s=sample.duration_s,
                hp_ways=self.current.hp_ways,
            )

    def _report(
        self,
        sample: PeriodSample,
        event: str,
        note: str,
        saturated: bool,
        phase_change: bool,
    ) -> None:
        """Mirror the decision into :mod:`repro.obs` (no-op when disabled)."""
        registry = get_registry()
        if registry.enabled:
            registry.counter("dicer.decisions").inc()
            if phase_change:
                registry.counter("dicer.phase_changes").inc()
            if event in ("reset_ctf", "reset_ctt"):
                registry.counter(f"dicer.{event}").inc()
            elif event in ("sampling_start", "sampling_empty"):
                registry.counter(f"dicer.{event}").inc()
            registry.gauge("dicer.hp_ways").set(self.current.hp_ways)
        log = get_event_log()
        if log.enabled:
            log.emit(
                "dicer.decision",
                period=self._period,
                mode=self.mode.value,
                event=event,
                note=note,
                hp_ipc=round(sample.hp_ipc, 6),
                hp_bw_bytes_s=round(sample.hp_mem_bytes_s, 3),
                total_bw_bytes_s=round(sample.total_mem_bytes_s, 3),
                saturated=saturated,
                phase_change=phase_change,
                hp_ways=self.current.hp_ways,
            )

    # -- Section 3.2.1: allocation sampling ----------------------------------

    def _start_sampling(self) -> tuple[str, str]:
        """First/renewed saturation: reclassify as CT-T and probe the grid."""
        grid = [
            w for w in self.config.sample_hp_ways if w < self.total_ways
        ]
        if not grid:
            # Degenerate caches (e.g. total_ways=2 with a grid tuned for a
            # 20-way LLC) can leave nothing to probe. Sampling a zero-point
            # grid would crash; there is also nothing to learn, so keep
            # optimising with the current allocation. The cooldown stops
            # persistent saturation from re-entering this dead end every
            # period (same livelock guard as a completed sampling pass).
            self.mode = ControllerMode.OPTIMISE
            self._cooldown = self.config.resample_cooldown_periods
            return "sampling_empty", "sampling: grid empty"
        self.ct_favoured = False
        if self.prefetch_hook is not None:
            base = self.current
            self.prefetch_hook([base.with_hp_ways(w) for w in grid])
        self._sampling = _SamplingState(
            pending=grid,
            results={},
            dwell_left=self.config.sample_periods,
            active_ways=None,
        )
        self.mode = ControllerMode.SAMPLING
        self._advance_sampling()
        return "sampling_start", "sampling: start"

    def _advance_sampling(self) -> None:
        state = self._sampling
        state.active_ways = state.pending.pop(0)
        state.dwell_left = self.config.sample_periods
        self.current = self.current.with_hp_ways(state.active_ways)

    def _step_sampling(self, sample: PeriodSample) -> tuple[str, str]:
        state = self._sampling
        assert state.active_ways is not None
        state.dwell_left -= 1
        if state.dwell_left > 0:
            return "sampling_dwell", f"sampling: dwell hp={state.active_ways}"
        # The last dwell period's IPC is the sample's score ("long enough to
        # make the effects of the partitioning visible").
        state.results[state.active_ways] = sample.hp_ipc
        if state.pending:
            self._advance_sampling()
            return "sampling_probe", f"sampling: probe hp={state.active_ways}"
        return self._conclude_sampling()

    def _conclude_sampling(self) -> tuple[str, str]:
        state = self._sampling
        best_ways = max(state.results, key=lambda w: state.results[w])
        self.ipc_opt = state.results[best_ways]
        self.optimal = self.current.with_hp_ways(best_ways)
        self.current = self.optimal
        self.mode = ControllerMode.OPTIMISE
        self._cooldown = self.config.resample_cooldown_periods
        # Sampling distorted HP's bandwidth trajectory; restart Equation 2's
        # history so the next periods are not misread as phase changes. The
        # concluding period's own bandwidth — measured under the final probe
        # allocation — must not re-enter the cleared history either, so the
        # caller's bookkeeping append is suppressed for this period.
        self._hp_bw_history.clear()
        self._hp_bw_ewma = None
        self._suppress_bw_bookkeeping = True
        return (
            "sampling_conclude",
            f"sampling: optimal hp={best_ways} ipc={self.ipc_opt:.3f}",
        )

    # -- Listing 2: allocation optimisation ----------------------------------

    def _phase_change(self, sample: PeriodSample) -> bool:
        """Equation 2: HP bandwidth jump against its recent baseline.

        The paper's statistic is the geometric mean of the previous three
        periods; the ``ewma`` variant substitutes an exponentially weighted
        average (see DicerConfig.phase_detector).
        """
        threshold = 1.0 + self.config.phase_threshold
        if self.config.phase_detector == "ewma":
            baseline = self._hp_bw_ewma
            if baseline is None:
                return False
            return sample.hp_mem_bytes_s > threshold * max(baseline, 1.0)
        if len(self._hp_bw_history) < 3:
            return False
        # The three logs added left to right, as ``sum`` adds them, with
        # no generator per period.
        b0, b1, b2 = self._hp_bw_history
        log = math.log
        gmean = math.exp(
            (log(max(b0, 1.0)) + log(max(b1, 1.0)) + log(max(b2, 1.0))) / 3.0
        )
        return sample.hp_mem_bytes_s > threshold * gmean

    def _optimise(self, sample: PeriodSample) -> tuple[bool, str, str]:
        if self._phase_change(sample):
            event, note = self._reset(sample)
            return True, event, note
        assert self._last_ipc is not None
        lo = (1.0 - self.config.alpha) * self._last_ipc
        hi = (1.0 + self.config.alpha) * self._last_ipc
        if lo <= sample.hp_ipc <= hi:
            # Stable: the allocation exceeds HP's needs — donate one way.
            before = self.current.hp_ways
            self.current = self.current.shrink_hp()
            if self.current.hp_ways != before:
                return (
                    False,
                    "shrink",
                    f"stable: shrink hp to {self.current.hp_ways}",
                )
            return False, "floor", "stable: at floor"
        if sample.hp_ipc > hi:
            # Improved: new phase with same cache needs; hold position.
            return False, "hold", "better: hold"
        event, note = self._reset(sample)
        return False, event, note

    # -- Listing 3: allocation reset -----------------------------------------

    def _reset(self, sample: PeriodSample) -> tuple[str, str]:
        self._reset_trigger_ipc = sample.hp_ipc
        if self.ct_favoured:
            self._rollback = self.current
            self.current = Allocation.cache_takeover(self.total_ways)
            self.mode = ControllerMode.RESET_VALIDATE
            return "reset_ctf", "reset: to CT (CT-F)"
        self.current = self.optimal
        self.mode = ControllerMode.RESET_VALIDATE
        return (
            "reset_ctt",
            f"reset: to optimal hp={self.optimal.hp_ways} (CT-T)",
        )

    def _validate_reset(self, sample: PeriodSample) -> tuple[str, str]:
        # Saturation during validation is handled by the caller (it starts
        # sampling before reaching this method), mirroring Listing 3's
        # explicit BW_saturated checks.
        alpha = self.config.alpha
        self.mode = ControllerMode.OPTIMISE
        if self.ct_favoured:
            if sample.hp_ipc > (1.0 + alpha) * self._reset_trigger_ipc:
                return "validate_ok", "validate: CT reset helped"
            # The IPC drop was a phase effect, not an allocation effect.
            self.current = self._rollback
            return (
                "validate_rollback",
                f"validate: rollback hp={self.current.hp_ways}",
            )
        assert self.ipc_opt is not None
        if sample.hp_ipc >= (1.0 - alpha) * self.ipc_opt:
            return "validate_optimal", "validate: back at optimal"
        return self._start_sampling()
