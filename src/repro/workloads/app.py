"""Application models.

An :class:`AppModel` is a black-box stand-in for one SPEC CPU 2006 / Parsec
3.0 run: a sequence of :class:`Phase` objects, each with its own execution
CPI, LLC access intensity, miss-ratio curve, memory-level parallelism and
instruction budget. The server simulator executes these models; the DICER
controller never sees them (it observes only IPC and memory bandwidth, as on
real hardware).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.workloads.mrc import MissRatioCurve
from repro.util.validation import (
    check_fraction,
    check_in_range,
    check_positive,
)

__all__ = ["Phase", "AppModel"]


@dataclass(frozen=True)
class Phase:
    """One execution phase of an application.

    Parameters
    ----------
    name:
        Phase label (for telemetry; e.g. ``"init"``, ``"solve"``).
    instructions:
        Instructions retired in this phase per run of the application.
    cpi_exe:
        Base cycles-per-instruction with a perfect LLC: covers issue width,
        branch behaviour and L1/L2 stalls. Typical range 0.3 (vectorised
        kernels) to 1.5 (branchy integer code).
    apki:
        LLC accesses per kilo-instruction (i.e. L2 misses reaching L3).
    mrc:
        Miss-ratio curve over effective LLC ways.
    blocking:
        Fraction of each memory access' latency that stalls retirement.
        Encodes memory-level parallelism / prefetch friendliness: streaming
        codes with deep prefetching ~0.2; dependent pointer chasing ~1.0.
    write_frac:
        Dirty-eviction ratio: extra writeback bytes per miss, as a fraction
        (0.3 means each miss moves 1.3 cache lines on the link on average).
    occupancy_ways:
        How much LLC the phase's resident set can *occupy* under unmanaged
        LRU sharing, independent of whether that occupancy helps (a
        streaming scan occupies whatever its access rate wins, even though
        its miss-ratio curve is flat — the paper observes milc claiming
        ~26 % of the LLC under UM). ``None`` means unbounded (can fill the
        whole cache).
    prefetch_hide:
        How much of the phase's memory stall the hardware prefetcher hides
        at full aggression, as a fraction of ``blocking``. Throttling the
        prefetcher to level ``l`` (see the solver's ``prefetch`` axis)
        scales effective blocking by ``1 + prefetch_hide * l`` — at
        ``l=1`` the hidden stall is fully re-exposed. 0.0 (the default)
        means the phase gains nothing from prefetching, so throttling is
        free for it.
    prefetch_waste:
        Fraction of the phase's link traffic that is *useless* prefetch
        (inaccurate streams evicted before use). Throttling to level ``l``
        scales bytes-per-miss by ``1 - prefetch_waste * l``: the wasted
        bytes disappear from the shared link. CBP's coordination exploits
        exactly this asymmetry — throttling waste-heavy BEs frees
        bandwidth at little IPC cost.
    """

    name: str
    instructions: float
    cpi_exe: float
    apki: float
    mrc: MissRatioCurve
    blocking: float = 0.7
    write_frac: float = 0.3
    occupancy_ways: float | None = None
    prefetch_hide: float = 0.0
    prefetch_waste: float = 0.0

    def __post_init__(self) -> None:
        check_positive("instructions", self.instructions)
        check_positive("cpi_exe", self.cpi_exe)
        if self.apki < 0:
            raise ValueError(f"apki must be >= 0, got {self.apki}")
        check_in_range("blocking", self.blocking, 0.05, 1.0)
        check_fraction("write_frac", self.write_frac)
        if self.occupancy_ways is not None:
            check_positive("occupancy_ways", self.occupancy_ways)
        check_fraction("prefetch_hide", self.prefetch_hide)
        # waste < 1 keeps bytes-per-miss strictly positive at full throttle
        # (zero link traffic would break the solver's demand accounting).
        check_in_range("prefetch_waste", self.prefetch_waste, 0.0, 0.9)
        # Cache the (frozen) hash: solver memo keys hash phase tuples on
        # every cache lookup, and rehashing all ten fields per lookup
        # dominates large batched-solve profiles.
        object.__setattr__(
            self,
            "_hash",
            hash(
                (
                    self.name,
                    self.instructions,
                    self.cpi_exe,
                    self.apki,
                    self.mrc,
                    self.blocking,
                    self.write_frac,
                    self.occupancy_ways,
                    self.prefetch_hide,
                    self.prefetch_waste,
                )
            ),
        )

    def __hash__(self) -> int:
        return self._hash

    def misses_per_instruction(self, ways: float) -> float:
        """LLC misses per instruction at ``ways`` effective ways."""
        return (self.apki / 1000.0) * self.mrc(ways)


@dataclass(frozen=True)
class AppModel:
    """A complete application: named phase sequence plus provenance.

    ``suite`` records which benchmark suite the entry emulates (``"spec"`` or
    ``"parsec"``); ``archetype`` records the behavioural family used to build
    it (``"streaming"``, ``"cache_sensitive"``, ``"compute"``, ``"phased"``).
    """

    name: str
    suite: str
    archetype: str
    phases: tuple[Phase, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError(f"app {self.name!r} needs at least one phase")
        if self.suite not in ("spec", "parsec", "synthetic"):
            raise ValueError(f"unknown suite {self.suite!r}")
        # Summed once: the event loop reads the run length on every retire.
        object.__setattr__(
            self,
            "_total_instructions",
            sum(p.instructions for p in self.phases),
        )

    @property
    def total_instructions(self) -> float:
        """Instructions retired by one complete run."""
        return self._total_instructions

    @property
    def footprint_ways(self) -> float:
        """Largest per-phase footprint — the most cache the app ever wants."""
        return max(p.mrc.footprint_ways for p in self.phases)

    @property
    def n_phases(self) -> int:
        """Number of phases in one run."""
        return len(self.phases)

    def phase_at(self, instructions_done: float) -> tuple[int, float]:
        """Locate execution position within one run.

        Given ``instructions_done`` since the start of the *current run*
        (must be < :attr:`total_instructions`), returns
        ``(phase_index, instructions_remaining_in_phase)``.

        Positions within half an instruction of a phase boundary resolve to
        the *next* phase: instruction budgets are ~1e10 floats, so cumulative
        sums carry sub-instruction rounding, and without the margin a caller
        sitting exactly on a summed boundary would be told an un-retirable
        sliver of the previous phase remains (which wedges the event loop).
        """
        if instructions_done < 0:
            raise ValueError("instructions_done must be >= 0")
        remaining = instructions_done
        for idx, phase in enumerate(self.phases):
            if remaining < phase.instructions - 0.5:
                return idx, phase.instructions - remaining
            remaining -= phase.instructions
        raise ValueError(
            f"instructions_done={instructions_done} beyond one run "
            f"({self.total_instructions}) of {self.name!r}"
        )

    def with_name(self, name: str) -> "AppModel":
        """Clone under a different name (used to instantiate BE copies)."""
        return AppModel(
            name=name,
            suite=self.suite,
            archetype=self.archetype,
            phases=self.phases,
        )


def single_phase_app(
    name: str,
    *,
    suite: str,
    archetype: str,
    instructions: float,
    cpi_exe: float,
    apki: float,
    mrc: MissRatioCurve,
    blocking: float = 0.7,
    write_frac: float = 0.3,
    prefetch_hide: float = 0.0,
    prefetch_waste: float = 0.0,
) -> AppModel:
    """Convenience constructor for the (common) one-phase application."""
    phase = Phase(
        name="main",
        instructions=instructions,
        cpi_exe=cpi_exe,
        apki=apki,
        mrc=mrc,
        blocking=blocking,
        write_frac=write_frac,
        prefetch_hide=prefetch_hide,
        prefetch_waste=prefetch_waste,
    )
    return AppModel(name=name, suite=suite, archetype=archetype, phases=(phase,))
