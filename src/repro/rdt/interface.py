"""Backend-agnostic monitoring/allocation interface (the RDT surface).

The paper implements DICER on the Intel RDT Software Package, using three
mechanisms: CAT (way-granular LLC allocation), CMT (LLC occupancy
monitoring) and MBM (memory-bandwidth monitoring), plus per-core IPC from
perf counters. :class:`RdtBackend` abstracts exactly those signals, so the
same controller drives either the simulator
(:class:`repro.rdt.simulated.SimulatedRdt`) or a real Linux resctrl
filesystem (:class:`repro.rdt.resctrl.ResctrlRdt`).

The controller consumes :class:`~repro.rdt.sample.PeriodSample` objects —
one per monitoring period T — which is the *entire* information DICER is
allowed to see (black-box operation: no application-provided metrics, no
profiles).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

from repro.rdt.sample import PeriodSample

if TYPE_CHECKING:  # import cycle guard: core imports this module
    from repro.core.allocation import Allocation

__all__ = ["PeriodSample", "RdtBackend", "WrappedRdt"]


class RdtBackend(ABC):
    """Monitoring + allocation mechanism used by the control loop."""

    @abstractmethod
    def apply(self, allocation: "Allocation") -> None:
        """Enforce an HP/BE way split (CAT write)."""

    @abstractmethod
    def sample(self, period_s: float) -> PeriodSample:
        """Wait one monitoring period and return its aggregated sample.

        On hardware this sleeps ``period_s`` wall-clock seconds and diffs
        counters; on the simulator it advances simulated time.
        """

    @property
    @abstractmethod
    def total_ways(self) -> int:
        """Way count of the managed LLC."""

    @property
    @abstractmethod
    def finished(self) -> bool:
        """True once the monitored workload has completed (simulator) or
        the harness asked the loop to stop (hardware)."""


class WrappedRdt(RdtBackend):
    """A backend decorating ``inner``: everything it does not override
    forwards unchanged.

    The noise, counter-fault and node-fault wrappers override
    :meth:`sample` (and the node boundary gates actuation); both BE
    knobs — ``apply_be_throttle`` (MBA) and ``apply_be_prefetch`` —
    forward here when the inner backend has them, so a policy behind
    any stack of wrappers actuates what the innermost backend supports.
    """

    def __init__(self, inner: RdtBackend) -> None:
        self._inner = inner

    @property
    def total_ways(self) -> int:
        """Way count of the wrapped backend."""
        return self._inner.total_ways

    @property
    def finished(self) -> bool:
        """Delegates to the wrapped backend."""
        return self._inner.finished

    @property
    def time_s(self) -> float:
        """Delegates to the wrapped backend."""
        return self._inner.time_s

    def apply(self, allocation: "Allocation") -> None:
        """Forward the CAT allocation as-is."""
        self._inner.apply(allocation)

    def apply_be_throttle(self, scale: float) -> None:
        """Forward the MBA throttle when the inner backend supports it."""
        inner_throttle = getattr(self._inner, "apply_be_throttle", None)
        if inner_throttle is not None:
            inner_throttle(scale)

    def apply_be_prefetch(self, level: float) -> None:
        """Forward the prefetch throttle when the inner backend supports it."""
        inner_prefetch = getattr(self._inner, "apply_be_prefetch", None)
        if inner_prefetch is not None:
            inner_prefetch(level)
