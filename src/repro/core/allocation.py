"""Way allocations — the controller's decision variable.

DICER's whole output is a single number per period: how many of the LLC's
ways the High-Priority application owns exclusively (the BEs share the
rest). :class:`Allocation` wraps that number with validation and the
transitions the controller performs (shrink by one way, Cache-Takeover,
etc.), and converts to the simulator's partition spec.

:class:`GroupAllocation` is the M-class generalisation for the policy zoo
(DESIGN.md "Policy zoo"): an ordered list of core groups, each with its own
exclusive way count, plus an optional shared zone. LFOC's fairness clusters
and any future multi-priority controller emit these; the actuation surface
(:meth:`~repro.rdt.simulated.SimulatedRdt.apply`, the runners) duck-types
on ``to_partition`` so both shapes flow through unchanged.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.sim.partition import CacheGroup, PartitionSpec

__all__ = ["Allocation", "GroupAllocation"]


@dataclass(frozen=True, order=True)
class Allocation:
    """An HP/BE split of ``total_ways`` LLC ways.

    ``overlap_ways`` supports the overlapping-partition extension (paper
    Section 6): that many ways are reachable by both HP and BEs. The
    baseline DICER/CT configurations always use ``overlap_ways=0``
    (non-overlapping, Section 3.3).
    """

    hp_ways: int
    total_ways: int
    overlap_ways: int = 0

    def __post_init__(self) -> None:
        if self.total_ways < 2:
            raise ValueError(f"total_ways must be >= 2, got {self.total_ways}")
        if self.hp_ways < 1:
            raise ValueError(f"hp_ways must be >= 1, got {self.hp_ways}")
        if self.overlap_ways < 0:
            raise ValueError(
                f"overlap_ways must be >= 0, got {self.overlap_ways}"
            )
        if self.be_ways < 1:
            raise ValueError(
                f"hp_ways={self.hp_ways} + overlap={self.overlap_ways} "
                f"leaves no exclusive way for BEs out of {self.total_ways}"
            )

    @property
    def be_ways(self) -> int:
        """Ways exclusively available to the BE group."""
        return self.total_ways - self.hp_ways - self.overlap_ways

    # -- factories --------------------------------------------------------

    @classmethod
    def cache_takeover(cls, total_ways: int) -> "Allocation":
        """CT: all but one way to HP, one way shared by all BEs."""
        return cls(hp_ways=total_ways - 1, total_ways=total_ways)

    @classmethod
    def even_split(cls, total_ways: int) -> "Allocation":
        """A 50/50 reference split (used by ablations)."""
        return cls(hp_ways=total_ways // 2, total_ways=total_ways)

    # -- transitions -------------------------------------------------------

    def shrink_hp(self) -> "Allocation":
        """Give one HP way to the BEs (DICER's optimisation step).

        At the floor (HP already at 1 way) returns ``self`` unchanged.
        """
        if self.hp_ways <= 1:
            return self
        return Allocation(
            hp_ways=self.hp_ways - 1,
            total_ways=self.total_ways,
            overlap_ways=self.overlap_ways,
        )

    def with_hp_ways(self, hp_ways: int) -> "Allocation":
        """Copy with a different HP way count."""
        return Allocation(
            hp_ways=hp_ways,
            total_ways=self.total_ways,
            overlap_ways=self.overlap_ways,
        )

    # -- conversions -------------------------------------------------------

    @functools.lru_cache(maxsize=256, typed=True)
    def to_partition(self, n_cores: int) -> PartitionSpec:
        """The simulator-side partition this allocation denotes.

        Memoised per (allocation, ``n_cores``): both are frozen, so
        equal allocations share one validated spec.
        """
        return PartitionSpec.hp_be(
            self.hp_ways,
            n_cores,
            self.total_ways,
            overlap_ways=self.overlap_ways,
        )

    def __str__(self) -> str:
        if self.overlap_ways:
            return (
                f"HP:{self.hp_ways}+{self.overlap_ways}sh/"
                f"BE:{self.be_ways}+{self.overlap_ways}sh"
            )
        return f"HP:{self.hp_ways}/BE:{self.be_ways}"


@dataclass(frozen=True)
class GroupAllocation:
    """An M-class split of ``total_ways`` across explicit core groups.

    The policy-zoo generalisation of :class:`Allocation`: instead of one
    HP/BE number, a policy emits an ordered list of core groups (LFOC's
    fairness clusters, CBP's priority classes) with one exclusive way
    count each, plus an optional zone shared by every core. Groups are
    named ``G0..Gk`` unless ``names`` overrides them; naming the first
    group ``"HP"`` keeps HP-aware telemetry (timeline ``hp_ways``) alive
    for policies that still distinguish a primary class.

    ``cores`` lists the member cores of each group; together the groups
    must cover every core exactly once — :meth:`to_partition` revalidates
    through :class:`~repro.sim.partition.PartitionSpec`, this constructor
    checks the way arithmetic eagerly so controller bugs fail at decision
    time with a precise message.
    """

    total_ways: int
    cores: tuple[tuple[int, ...], ...]
    ways: tuple[float, ...]
    shared_ways: float = 0.0
    names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.total_ways < 2:
            raise ValueError(f"total_ways must be >= 2, got {self.total_ways}")
        if not self.cores:
            raise ValueError("need at least one group")
        if len(self.cores) != len(self.ways):
            raise ValueError(
                f"{len(self.cores)} core groups but {len(self.ways)} "
                "way counts"
            )
        if self.names is not None and len(self.names) != len(self.cores):
            raise ValueError(
                f"{len(self.cores)} core groups but {len(self.names)} names"
            )
        if self.shared_ways < 0:
            raise ValueError(
                f"shared_ways must be >= 0, got {self.shared_ways}"
            )
        for group, w in zip(self.cores, self.ways):
            if not group:
                raise ValueError("every group needs at least one core")
            if w < 1:
                raise ValueError(
                    f"every group needs >= 1 way, got {w} for cores {group}"
                )
        total = sum(self.ways) + self.shared_ways
        if abs(total - self.total_ways) > 1e-9:
            raise ValueError(
                f"group ways ({total}) must sum to total_ways "
                f"({self.total_ways})"
            )

    @property
    def n_groups(self) -> int:
        """Number of priority classes in this allocation."""
        return len(self.cores)

    def group_names(self) -> tuple[str, ...]:
        """Display/partition names, ``G0..Gk`` unless overridden."""
        if self.names is not None:
            return self.names
        return tuple(f"G{i}" for i in range(len(self.cores)))

    # -- conversions -------------------------------------------------------

    def to_partition(self, n_cores: int) -> PartitionSpec:
        """The simulator-side partition this allocation denotes.

        ``n_cores`` must match the cores the groups cover (the runner
        passes the active core count, same duck-typed call it makes on
        :class:`Allocation`).
        """
        groups = tuple(
            CacheGroup(name=name, cores=tuple(cores), ways=float(w))
            for name, cores, w in zip(
                self.group_names(), self.cores, self.ways
            )
        )
        return PartitionSpec(
            n_cores=n_cores,
            total_ways=self.total_ways,
            groups=groups,
            shared_ways=float(self.shared_ways),
        )

    def __str__(self) -> str:
        parts = [
            f"{name}:{w:g}({len(cores)}c)"
            for name, cores, w in zip(
                self.group_names(), self.cores, self.ways
            )
        ]
        if self.shared_ways:
            parts.append(f"shared:{self.shared_ways:g}")
        return "/".join(parts)
