"""Cache partition specifications.

A :class:`PartitionSpec` describes how LLC ways are divided among *groups* of
cores — the simulator-side analogue of a set of CAT classes of service
(CLOS). DICER's schemes map onto it as:

* **UM** — a single group containing every core and all ways;
* **CT / DICER** — an ``HP`` group (core 0, exclusive ways) and a ``BE``
  group (remaining cores, the remaining ways), non-overlapping, exactly as
  the paper's implementation (Section 3.3);
* **overlap extension** — an optional ``shared_ways`` zone both groups can
  reach (paper Section 6 future work).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from repro.util.validation import check_non_negative, check_positive_int

__all__ = ["CacheGroup", "PartitionSpec"]


@dataclass(frozen=True)
class CacheGroup:
    """A set of cores sharing an exclusive slice of LLC ways."""

    name: str
    cores: tuple[int, ...]
    ways: float

    def __post_init__(self) -> None:
        if not self.cores:
            raise ValueError(f"group {self.name!r} has no cores")
        if len(set(self.cores)) != len(self.cores):
            raise ValueError(f"group {self.name!r} repeats cores")
        check_non_negative(f"group {self.name!r} ways", self.ways)


@dataclass(frozen=True)
class PartitionSpec:
    """A complete LLC partitioning across all cores.

    Invariants (validated): groups' cores are disjoint and cover
    ``0..n_cores-1``; exclusive ways plus the shared zone sum to the LLC's
    way count.
    """

    n_cores: int
    total_ways: int
    groups: tuple[CacheGroup, ...]
    shared_ways: float = field(default=0.0)

    def __post_init__(self) -> None:
        check_positive_int("n_cores", self.n_cores)
        check_positive_int("total_ways", self.total_ways)
        check_non_negative("shared_ways", self.shared_ways)
        seen: set[int] = set()
        for group in self.groups:
            for core in group.cores:
                if core in seen:
                    raise ValueError(f"core {core} appears in two groups")
                if not 0 <= core < self.n_cores:
                    raise ValueError(
                        f"core {core} out of range for {self.n_cores} cores"
                    )
                seen.add(core)
        if seen != set(range(self.n_cores)):
            missing = sorted(set(range(self.n_cores)) - seen)
            raise ValueError(f"cores {missing} belong to no group")
        total = sum(g.ways for g in self.groups) + self.shared_ways
        if abs(total - self.total_ways) > 1e-9:
            raise ValueError(
                f"group ways ({total}) must sum to total_ways "
                f"({self.total_ways})"
            )
        # Cache the memo key: solver paths call key() once per operating
        # point, and rebuilding the nested tuple dominates grouping time
        # in large fast-mode batches.
        object.__setattr__(
            self,
            "_key",
            (
                self.n_cores,
                self.total_ways,
                self.shared_ways,
                tuple((g.name, g.cores, g.ways) for g in self.groups),
            ),
        )

    # -- factories -------------------------------------------------------

    @classmethod
    @functools.lru_cache(maxsize=256, typed=True)
    def unmanaged(cls, n_cores: int, total_ways: int) -> "PartitionSpec":
        """UM: every core competes for the whole LLC.

        Memoised: the spec is frozen, so every caller with the same
        arguments shares one validated instance.
        """
        group = CacheGroup(
            name="ALL", cores=tuple(range(n_cores)), ways=float(total_ways)
        )
        return cls(n_cores=n_cores, total_ways=total_ways, groups=(group,))

    @classmethod
    def hp_be(
        cls,
        hp_ways: int,
        n_cores: int,
        total_ways: int,
        overlap_ways: int = 0,
    ) -> "PartitionSpec":
        """HP gets ``hp_ways`` exclusive ways; BEs share the rest.

        With ``overlap_ways > 0`` that many ways become a zone reachable by
        both groups (so the exclusive BE slice shrinks accordingly).
        """
        if n_cores < 2:
            raise ValueError("hp_be partition needs at least 2 cores")
        if hp_ways < 1:
            raise ValueError(f"hp_ways must be >= 1, got {hp_ways}")
        be_ways = total_ways - hp_ways - overlap_ways
        if be_ways < 1:
            raise ValueError(
                f"hp_ways={hp_ways} + overlap={overlap_ways} leaves "
                f"{be_ways} ways for BEs (need >= 1)"
            )
        groups = (
            CacheGroup(name="HP", cores=(0,), ways=float(hp_ways)),
            CacheGroup(
                name="BE", cores=tuple(range(1, n_cores)), ways=float(be_ways)
            ),
        )
        return cls(
            n_cores=n_cores,
            total_ways=total_ways,
            groups=groups,
            shared_ways=float(overlap_ways),
        )

    # -- helpers ---------------------------------------------------------

    @property
    def hp_ways(self) -> float | None:
        """Exclusive ways of the HP group, if this is an HP/BE partition."""
        for group in self.groups:
            if group.name == "HP":
                return group.ways
        return None

    def group_of(self, core: int) -> CacheGroup:
        """The group containing ``core``."""
        for group in self.groups:
            if core in group.cores:
                return group
        raise KeyError(f"core {core} not in any group")

    def key(self) -> tuple:
        """Hashable identity for solver memoisation (precomputed)."""
        return self._key
