"""Co-location policies: UM, CT, static splits, DICER, and the policy zoo.

A :class:`Policy` is the runner-facing abstraction: it declares whether the
LLC is partitioned at all, the initial allocation, and (for dynamic
policies) a per-period update. UM and CT are the paper's baselines
(Section 2.2); :class:`StaticPolicy` provides the per-way sweep behind
Figure 3; :class:`DicerPolicy` adapts every period via
:class:`~repro.core.dicer.DicerController`.

The policy surface is M-class and three-knob (DESIGN.md "Policy zoo"):

* ``setup``/``update`` may return either the classic HP/BE
  :class:`~repro.core.allocation.Allocation` or an M-group
  :class:`~repro.core.allocation.GroupAllocation` — the runner only calls
  ``to_partition``, so both flow through unchanged (knob 1: CAT ways);
* a policy exposing a ``be_throttle`` attribute steers MBA (knob 2);
* a policy exposing a ``be_prefetch`` attribute steers the prefetch
  throttle (knob 3).

:class:`~repro.core.lfoc.LfocPolicy` (fairness clustering over many
co-equal apps) and :class:`~repro.core.cbp.CbpPolicy` (coordinated
ways + MBA + prefetch) live in their own modules and are re-exported
through :func:`repro.experiments.queue.policy_from_name`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Union

from repro.core.allocation import Allocation, GroupAllocation
from repro.core.config import DicerConfig, TABLE1_DICER_CONFIG
from repro.core.dicer import DicerController
from repro.rdt.sample import PeriodSample

__all__ = [
    "Policy",
    "AnyAllocation",
    "UnmanagedPolicy",
    "CacheTakeoverPolicy",
    "StaticPolicy",
    "DicerPolicy",
]

#: What a policy decision may carry: the classic HP/BE split or an
#: M-group allocation. ``None`` (keep current / stay unmanaged) composes
#: at the call sites.
AnyAllocation = Union[Allocation, GroupAllocation]


class Policy(ABC):
    """A cache-allocation policy for one consolidation experiment."""

    #: Display name used in reports ("UM", "CT", "DICER", ...).
    name: str = "?"

    @abstractmethod
    def setup(self, total_ways: int) -> AnyAllocation | None:
        """Initial allocation; ``None`` means the LLC stays unmanaged.

        M-class policies that need per-core observations before they can
        group anything (LFOC's warmup classification) also return ``None``
        here and emit their first :class:`~repro.core.allocation.
        GroupAllocation` from :meth:`update`.
        """

    def update(self, sample: PeriodSample) -> AnyAllocation | None:
        """Per-period decision; ``None`` means keep the current allocation.

        Only called when :attr:`dynamic` is true.
        """
        return None

    @property
    def dynamic(self) -> bool:
        """Whether the runner must drive a monitoring loop."""
        return False

    @property
    def period_s(self) -> float:
        """Monitoring period for dynamic policies."""
        return 1.0

    @property
    def trace(self) -> list:
        """The live controller's decisions (empty for static policies)."""
        controller = getattr(self, "controller", None)
        return [] if controller is None else controller.trace

    def fresh(self) -> "Policy":
        """A stateless copy for the next experiment (overridden by DICER)."""
        return self


class UnmanagedPolicy(Policy):
    """UM: no control over resource sharing, no QoS enforcement."""

    name = "UM"

    def setup(self, total_ways: int) -> Allocation | None:
        """See :meth:`Policy.setup`."""
        return None


class CacheTakeoverPolicy(Policy):
    """CT: HP conservatively takes all but one way; BEs share one way."""

    name = "CT"

    def setup(self, total_ways: int) -> Allocation | None:
        """See :meth:`Policy.setup`."""
        return Allocation.cache_takeover(total_ways)


class StaticPolicy(Policy):
    """A fixed HP/BE split (the per-configuration points of Figure 3)."""

    def __init__(self, hp_ways: int, overlap_ways: int = 0) -> None:
        self.hp_ways = hp_ways
        self.overlap_ways = overlap_ways
        self.name = f"S{hp_ways}" + (f"+{overlap_ways}o" if overlap_ways else "")

    def setup(self, total_ways: int) -> Allocation | None:
        """See :meth:`Policy.setup`."""
        return Allocation(
            hp_ways=self.hp_ways,
            total_ways=total_ways,
            overlap_ways=self.overlap_ways,
        )


class DicerPolicy(Policy):
    """DICER: dynamic adaptation via the Listings 1-3 state machine.

    ``controller_factory`` swaps the controller implementation while
    keeping the policy/runner plumbing identical — the conformance suite
    uses it to drive whole simulated consolidations with the
    paper-literal oracle (:class:`repro.valid.reference.
    ReferenceController`) and diff the two traces end to end.
    """

    name = "DICER"

    def __init__(
        self,
        config: DicerConfig = TABLE1_DICER_CONFIG,
        controller_factory: Callable[
            [DicerConfig, int], DicerController
        ] = DicerController,
    ) -> None:
        self.config = config
        self._factory = controller_factory
        self._controller: DicerController | None = None

    @property
    def dynamic(self) -> bool:
        """DICER adapts every monitoring period."""
        return True

    @property
    def period_s(self) -> float:
        """Monitoring period from the DICER config."""
        return self.config.period_s

    @property
    def controller(self) -> DicerController:
        """The live controller (after :meth:`setup`)."""
        if self._controller is None:
            raise RuntimeError("setup() has not run yet")
        return self._controller

    def setup(self, total_ways: int) -> Allocation | None:
        """See :meth:`Policy.setup`."""
        self._controller = self._factory(self.config, total_ways)
        return self._controller.initial_allocation()

    def update(self, sample: PeriodSample) -> Allocation | None:
        """Delegate the period's decision to the controller."""
        return self.controller.update(sample)

    def fresh(self) -> "DicerPolicy":
        """New policy with a fresh controller, same config and factory."""
        return DicerPolicy(self.config, self._factory)
