"""Co-location policies: UM, CT, static splits, DICER, and the policy zoo.

A :class:`Policy` is the runner-facing abstraction: it declares whether the
LLC is partitioned at all, the initial allocation, and (for dynamic
policies) a per-period update. UM and CT are the paper's baselines
(Section 2.2); :class:`StaticPolicy` provides the per-way sweep behind
Figure 3. Every dynamic policy is a :class:`ControllerPolicy`: a config
and a controller factory, with :class:`DicerPolicy` adapting every
period via :class:`~repro.core.dicer.DicerController`.

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
ways + MBA + prefetch) live in their own modules; :func:`policy_from_name`
turns a display name back into any of the nameable policies.
"""

from __future__ import annotations

import copy
import re
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
    "ControllerPolicy",
    "DicerPolicy",
    "policy_from_name",
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

    #: Whether the runner must drive a monitoring loop.
    dynamic: bool = False
    #: Monitoring period for dynamic policies.
    period_s: float = 1.0

    @property
    def trace(self) -> list:
        """The live controller's decisions (empty for static policies)."""
        return []

    def fresh(self) -> "Policy":
        """A stateless copy for the next experiment (static: itself)."""
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


class ControllerPolicy(Policy):
    """A dynamic policy: a fresh controller per run, one decision per period.

    ``factory(config, total_ways)`` builds the controller at :meth:`setup`;
    decisions, trace and the MBA/prefetch knobs are the controller's. A
    knob exists on the policy only when the controller has it (reading it
    otherwise raises ``AttributeError``). Adding a controller to the zoo
    is one subclass: a ``name``, a default config and a factory — plus,
    to check it against a paper-literal oracle, one entry in the
    conformance table (:data:`repro.valid.differential.CONFORMANCE`,
    keyed by the config type).
    """

    dynamic = True

    def __init__(self, config, factory: Callable) -> None:
        self.config = config
        self._factory = factory
        self._controller = None

    @property
    def period_s(self) -> float:
        """Monitoring period from the config."""
        return self.config.period_s

    @property
    def controller(self):
        """The live controller (after :meth:`setup`)."""
        if self._controller is None:
            raise RuntimeError("setup() has not run yet")
        return self._controller

    @property
    def trace(self) -> list:
        """The live controller's decisions."""
        return self.controller.trace

    @property
    def be_throttle(self) -> float:
        """The controller's MBA level (absent when it has no MBA knob)."""
        return self.controller.be_throttle

    @property
    def be_prefetch(self) -> float:
        """The controller's prefetch level (absent when it has none)."""
        return self.controller.be_prefetch

    def setup(self, total_ways: int) -> AnyAllocation | None:
        """Build a fresh controller; its initial allocation."""
        self._controller = self._factory(self.config, total_ways)
        return self._controller.initial_allocation()

    def update(self, sample: PeriodSample) -> AnyAllocation | None:
        """Delegate the period's decision to the controller."""
        return self.controller.update(sample)

    def fresh(self) -> "ControllerPolicy":
        """A copy with the same config and factory and no controller."""
        clone = copy.copy(self)
        clone._controller = None
        return clone


class DicerPolicy(ControllerPolicy):
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
        super().__init__(config, controller_factory)

    # Own namespace entry: bench/tracing.py wraps DicerPolicy.__dict__["update"].
    update = ControllerPolicy.update


_STATIC_NAME = re.compile(r"^S(?P<ways>\d+)(?:\+(?P<overlap>\d+)o)?$")


def policy_from_name(name: str) -> Policy:
    """Rebuild a :class:`Policy` from its display name.

    Campaign queues, the serve control plane and ``dicer-repro run`` name
    policies (``UM``, ``CT``, ``DICER``, ``LFOC``, ``CBP``,
    ``S<k>[+<o>o]``); this inverts :attr:`Policy.name` for those.
    Parameterised variants (ablation configs) are process-local and not
    nameable — they raise here.
    """
    if name == "UM":
        return UnmanagedPolicy()
    if name == "CT":
        return CacheTakeoverPolicy()
    if name == "DICER":
        return DicerPolicy()
    if name in ("LFOC", "CBP"):
        # Local import: the zoo modules import this one.
        from repro.core.cbp import CbpPolicy
        from repro.core.lfoc import LfocPolicy

        return LfocPolicy() if name == "LFOC" else CbpPolicy()
    match = _STATIC_NAME.match(name)
    if match:
        return StaticPolicy(
            int(match.group("ways")), int(match.group("overlap") or 0)
        )
    raise ValueError(
        f"cannot rebuild policy from name {name!r}; queueable policies "
        "are UM, CT, DICER, LFOC, CBP and S<k>[+<o>o]"
    )
