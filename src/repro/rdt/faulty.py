"""RDT fault injection: dropped, stale, wrapped and zero-dt counter reads.

Hardware RDT monitoring fails in ways the simulator never shows: an MBM
read can be dropped (the sampling thread missed its slot), return stale
counters (the MSR did not latch a new value), wrap around between two
samples (the counters are narrow), or be taken over a zero-length window
(two reads at the same timestamp turn counter diffs into garbage rates).
:class:`FaultyRdt` wraps any backend — including :class:`~repro.rdt.
noisy.NoisyRdt`, so noise and faults compose — and injects exactly those
four fault modes, either on a deterministic per-period schedule or at a
seeded random rate.

Every injection is logged through :mod:`repro.obs` (``rdt.fault`` events,
``rdt.faulty.*`` counters), and the controller-side contract is that none
of them crashes the loop or corrupts the Equation-2 bandwidth history
(see :func:`repro.core.dicer.sample_fault` and DESIGN.md §8).
"""

from __future__ import annotations

import enum
import time
from typing import Iterable, Mapping

from repro.core.allocation import Allocation
from repro.obs import get_event_log, get_registry
from repro.rdt.interface import RdtBackend, WrappedRdt
from repro.rdt.sample import PeriodSample
from repro.util.rng import make_rng

__all__ = [
    "FaultKind",
    "FaultyRdt",
    "NodeFaultKind",
    "NodeFaultyRdt",
    "RdtUnavailableError",
]

#: Duration used for zero-dt reads: below the controller's plausibility
#: floor (1e-10 s) and well below the simulator's own 1e-9 s degenerate
#: samples, which must stay valid.
_ZERO_DT_S = 1e-12

#: Wraparound scale: the diff picked up a wrapped 32-bit high word.
_WRAP_SCALE = float(2**32)


class FaultKind(enum.Enum):
    """The four injectable counter-read fault modes (DESIGN.md §8)."""

    #: Sample lost; the backend repeats the last good reading.
    DROP = "drop"
    #: Counters did not latch: all deltas are zero over a normal window.
    STALE = "stale"
    #: Counter wraparound: rates inflated by a wrapped high word.
    WRAP = "wrap"
    #: Zero-length read window: rates over a degenerate interval.
    ZERO_DT = "zero_dt"


class FaultyRdt(WrappedRdt):
    """Decorator backend injecting counter-read faults into samples.

    Parameters
    ----------
    inner:
        The backend to corrupt (actuation always passes through clean).
    schedule:
        Deterministic injection: maps 1-based sample indices to a
        :class:`FaultKind` (or its string value). Takes precedence over
        ``rate`` on the scheduled periods.
    rate:
        Probability of injecting a fault into each unscheduled sample.
    kinds:
        Fault population for random injection (default: all four).
    seed:
        RNG seed for reproducible random injection.
    """

    def __init__(
        self,
        inner: RdtBackend,
        *,
        schedule: Mapping[int, FaultKind | str] | None = None,
        rate: float = 0.0,
        kinds: Iterable[FaultKind] = tuple(FaultKind),
        seed: int | None = None,
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        super().__init__(inner)
        self._schedule = {
            int(k): FaultKind(v) for k, v in (schedule or {}).items()
        }
        self._rate = rate
        self._kinds = tuple(FaultKind(k) for k in kinds)
        if rate > 0.0 and not self._kinds:
            raise ValueError("rate > 0 with an empty fault population")
        self._rng = make_rng(seed)
        self._n_sampled = 0
        self._last_good: PeriodSample | None = None
        #: Injection log: (1-based sample index, kind) per injected fault.
        self.injected: list[tuple[int, FaultKind]] = []

    # -- RdtBackend (actuation is never faulted) -----------------------------

    def sample(self, period_s: float) -> PeriodSample:
        """Sample the inner backend, then maybe corrupt the reading."""
        clean = self._inner.sample(period_s)
        self._n_sampled += 1
        kind = self._schedule.get(self._n_sampled)
        if kind is None and self._rate > 0.0:
            if float(self._rng.random()) < self._rate:
                kind = self._kinds[
                    int(self._rng.integers(len(self._kinds)))
                ]
        if kind is None:
            self._last_good = clean
            return clean

        corrupted = self._corrupt(clean, kind)
        self.injected.append((self._n_sampled, kind))
        registry = get_registry()
        if registry.enabled:
            registry.counter("rdt.faulty.injected").inc()
            registry.counter(f"rdt.faulty.{kind.value}").inc()
        log = get_event_log()
        if log.enabled:
            log.emit(
                "rdt.fault",
                sample_index=self._n_sampled,
                fault=kind.value,
                scheduled=self._n_sampled in self._schedule,
            )
        return corrupted

    # -- fault modes --------------------------------------------------------

    def _corrupt(self, clean: PeriodSample, kind: FaultKind) -> PeriodSample:
        if kind is FaultKind.DROP:
            # The read was lost; the monitoring layer re-serves the last
            # good sample (hold-last at the measurement layer). Before any
            # good sample exists the drop degenerates to a clean read.
            return self._last_good if self._last_good is not None else clean
        if kind is FaultKind.STALE:
            # Counters did not advance: zero deltas over the full window.
            # The occupancy snapshot also stays at its previous value.
            occupancy = (
                self._last_good.hp_llc_occupancy_bytes
                if self._last_good is not None
                else clean.hp_llc_occupancy_bytes
            )
            return PeriodSample(
                duration_s=clean.duration_s,
                hp_ipc=0.0,
                hp_mem_bytes_s=0.0,
                total_mem_bytes_s=0.0,
                hp_llc_occupancy_bytes=occupancy,
            )
        if kind is FaultKind.WRAP:
            # The diff spans a counter wrap: every rate picks up a wrapped
            # high word and explodes by ~2^32 (still finite, so only a
            # plausibility check can catch it).
            return PeriodSample(
                duration_s=clean.duration_s,
                hp_ipc=(clean.hp_ipc + 1.0) * _WRAP_SCALE,
                hp_mem_bytes_s=(clean.hp_mem_bytes_s + 1.0) * _WRAP_SCALE,
                total_mem_bytes_s=(
                    (clean.total_mem_bytes_s + 1.0) * _WRAP_SCALE
                ),
                hp_llc_occupancy_bytes=clean.hp_llc_occupancy_bytes,
            )
        # FaultKind.ZERO_DT: two reads at the same timestamp — a
        # degenerate window far below any legitimate period.
        return PeriodSample(
            duration_s=_ZERO_DT_S,
            hp_ipc=clean.hp_ipc,
            hp_mem_bytes_s=clean.hp_mem_bytes_s,
            total_mem_bytes_s=clean.total_mem_bytes_s,
            hp_llc_occupancy_bytes=clean.hp_llc_occupancy_bytes,
        )


class RdtUnavailableError(RuntimeError):
    """The node's RDT surface did not answer (node-boundary fault).

    Raised by :class:`NodeFaultyRdt` instead of corrupting a sample:
    where :class:`FaultyRdt` models *bad data* from a live node, this
    models *no data* — the node crashed, hung, or is partitioned away.
    Carries the :class:`NodeFaultKind` that caused it.
    """

    def __init__(self, kind: "NodeFaultKind", message: str | None = None):
        super().__init__(
            message or f"rdt backend unavailable (node fault: {kind.value})"
        )
        self.kind = kind


class NodeFaultKind(enum.Enum):
    """Node-level fault modes the serve control plane supervises.

    These extend the DESIGN.md §9 taxonomy one layer up: §8's counter
    faults corrupt a reading, §9's chaos kills a campaign worker, and
    these take out a *node* under a control plane (DESIGN.md §14).
    """

    #: The node process died: persistently unavailable until restored,
    #: and any in-memory controller state is lost.
    CRASH = "crash"
    #: The node wedged: calls block (``hang_s``) before failing, so only
    #: deadline supervision catches it.
    HANG = "hang"
    #: The network lost the node: calls fail fast for a bounded window,
    #: then the partition heals on its own.
    PARTITION = "partition"


class NodeFaultyRdt(WrappedRdt):
    """Decorator backend injecting *node-level* faults (DESIGN.md §14).

    Composes with :class:`FaultyRdt`/:class:`~repro.rdt.noisy.NoisyRdt`
    (wrap them as ``inner``): a node can simultaneously report noisy,
    occasionally-corrupt counters *and* drop off the network entirely.
    Faults surface as :class:`RdtUnavailableError` from :meth:`sample`
    and :meth:`apply` — the supervisor's retry/deadline machinery, not
    the controller's sample-fault taxonomy, must handle them.

    Parameters
    ----------
    inner:
        The backend to make unreliable.
    schedule:
        Deterministic injection: maps 1-based ``sample`` call indices to
        a :class:`NodeFaultKind` (or its string value).
    rate, kinds, seed:
        Seeded random injection for unscheduled calls, as in
        :class:`FaultyRdt`.
    hang_s:
        How long a ``HANG`` blocks before raising (keep small in tests).
    partition_calls:
        How many subsequent calls a ``PARTITION`` keeps failing before
        it heals on its own.
    """

    def __init__(
        self,
        inner: RdtBackend,
        *,
        schedule: Mapping[int, NodeFaultKind | str] | None = None,
        rate: float = 0.0,
        kinds: Iterable[NodeFaultKind] = tuple(NodeFaultKind),
        seed: int | None = None,
        hang_s: float = 0.01,
        partition_calls: int = 3,
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        if hang_s < 0:
            raise ValueError(f"hang_s must be >= 0, got {hang_s}")
        if partition_calls < 1:
            raise ValueError(
                f"partition_calls must be >= 1, got {partition_calls}"
            )
        super().__init__(inner)
        self._schedule = {
            int(k): NodeFaultKind(v) for k, v in (schedule or {}).items()
        }
        self._rate = rate
        self._kinds = tuple(NodeFaultKind(k) for k in kinds)
        if rate > 0.0 and not self._kinds:
            raise ValueError("rate > 0 with an empty fault population")
        self._rng = make_rng(seed)
        self._hang_s = hang_s
        self._partition_calls = partition_calls
        self._n_sampled = 0
        #: Persistent fault state: the node stays down until restore().
        self._down: NodeFaultKind | None = None
        self._partition_left = 0
        self._hang_next = False
        #: Injection log: (1-based sample index, kind) per injected fault.
        self.injected: list[tuple[int, NodeFaultKind]] = []

    # -- health --------------------------------------------------------------

    @property
    def available(self) -> bool:
        """Whether the node currently answers at all."""
        return self._down is None and self._partition_left == 0

    @property
    def unavailable_kind(self) -> NodeFaultKind | None:
        """Which fault makes the node unreachable (``None`` when up)."""
        if self._down is not None:
            return self._down
        if self._partition_left > 0:
            return NodeFaultKind.PARTITION
        return None

    def restore(self) -> None:
        """Bring a crashed/hung/partitioned node back (supervisor restart)."""
        self._down = None
        self._partition_left = 0
        self._hang_next = False

    def inject(
        self, kind: NodeFaultKind | str, *, persistent: bool = False
    ) -> None:
        """Force a fault state directly (control-plane-driven chaos).

        Unlike the schedule/rate paths this does not raise — it arms the
        state so the *next* boundary call fails: a ``CRASH`` persists
        until :meth:`restore`, a ``PARTITION`` fails fast for
        ``partition_calls`` calls, a ``HANG`` blocks one call for
        ``hang_s`` before failing. With ``persistent=True`` a hang or
        partition instead holds until :meth:`restore`, like a crash —
        the serve daemon uses this so the boundary stays down for
        exactly the window the control plane reports the node down
        (every call hangs / fails fast until ``node_recover``).
        """
        kind = NodeFaultKind(kind)
        self.injected.append((self._n_sampled, kind))
        if kind is NodeFaultKind.CRASH or persistent:
            self._down = kind
        elif kind is NodeFaultKind.PARTITION:
            self._partition_left = self._partition_calls
        else:
            self._hang_next = True

    def rebind(self, inner: RdtBackend) -> None:
        """Point the boundary at a new inner backend.

        The serve node runtime builds a fresh simulator per evaluation;
        the fault boundary (and its armed state) outlives them all.
        """
        self._inner = inner

    def _raise(self, kind: NodeFaultKind) -> None:
        registry = get_registry()
        if registry.enabled:
            registry.counter("rdt.node_faulty.injected").inc()
            registry.counter(f"rdt.node_faulty.{kind.value}").inc()
        log = get_event_log()
        if log.enabled:
            log.emit(
                "rdt.node_fault",
                sample_index=self._n_sampled,
                fault=kind.value,
            )
        raise RdtUnavailableError(kind)

    def _check_up(self) -> None:
        """Raise :class:`RdtUnavailableError` while the node is down."""
        kind = self.unavailable_kind
        if kind is not None:
            self._raise(kind)

    # -- RdtBackend (actuation fails while the node is down) -----------------

    def apply(self, allocation: Allocation) -> None:
        """Forward the CAT allocation when the node is reachable."""
        self._check_up()
        super().apply(allocation)

    def apply_be_throttle(self, scale: float) -> None:
        """Forward the MBA throttle when the node is reachable."""
        self._check_up()
        super().apply_be_throttle(scale)

    def apply_be_prefetch(self, level: float) -> None:
        """Forward the prefetch throttle when the node is reachable."""
        self._check_up()
        super().apply_be_prefetch(level)

    def sample(self, period_s: float) -> PeriodSample:
        """Sample the inner backend unless a node fault intervenes."""
        self._n_sampled += 1
        if self._down is not None:
            if self._down is NodeFaultKind.HANG:
                time.sleep(self._hang_s)
            self._raise(self._down)
        if self._partition_left > 0:
            self._partition_left -= 1
            self._raise(NodeFaultKind.PARTITION)
        if self._hang_next:
            self._hang_next = False
            time.sleep(self._hang_s)
            self._raise(NodeFaultKind.HANG)
        kind = self._schedule.get(self._n_sampled)
        if kind is None and self._rate > 0.0:
            if float(self._rng.random()) < self._rate:
                kind = self._kinds[
                    int(self._rng.integers(len(self._kinds)))
                ]
        if kind is None:
            return self._inner.sample(period_s)
        self.injected.append((self._n_sampled, kind))
        if kind is NodeFaultKind.CRASH:
            self._down = NodeFaultKind.CRASH
        elif kind is NodeFaultKind.HANG:
            time.sleep(self._hang_s)
        elif kind is NodeFaultKind.PARTITION:
            self._partition_left = self._partition_calls - 1
        self._raise(kind)
        raise AssertionError("unreachable")  # pragma: no cover
