"""One monitoring period's measurements (the controller's entire input).

Kept in a leaf module (no imports from :mod:`repro.core`) so both the
controller and the backends can import it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PeriodSample"]


@dataclass(frozen=True)
class PeriodSample:
    """Measurements aggregated over one monitoring period.

    Attributes
    ----------
    duration_s:
        Actual period length (may differ slightly from T at experiment end).
    hp_ipc:
        HP instructions retired / HP core cycles during the period.
    hp_mem_bytes_s:
        HP memory-link traffic (MBM local equivalent), bytes/second.
    total_mem_bytes_s:
        Whole-socket memory traffic, bytes/second.
    hp_llc_occupancy_bytes:
        CMT snapshot for the HP class of service (informational; DICER's
        decisions use IPC and bandwidth only).
    core_ipcs:
        Optional per-core IPCs, in core order (empty when the backend only
        tracks the HP/total aggregates DICER needs). M-class controllers
        (LFOC's classification, CBP's per-class accounting) require these;
        :meth:`~repro.rdt.simulated.SimulatedRdt.sample` always fills
        them.
    core_mem_bytes_s:
        Optional per-core memory traffic, bytes/second, in core order.
    core_occupancy_ways:
        Optional per-core effective LLC occupancy in ways (the simulator's
        converged share; a resctrl backend would report CMT per CLOS).
    """

    duration_s: float
    hp_ipc: float
    hp_mem_bytes_s: float
    total_mem_bytes_s: float
    hp_llc_occupancy_bytes: float = 0.0
    core_ipcs: tuple[float, ...] = ()
    core_mem_bytes_s: tuple[float, ...] = ()
    core_occupancy_ways: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be > 0, got {self.duration_s}")
        for name in ("hp_ipc", "hp_mem_bytes_s", "total_mem_bytes_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("core_ipcs", "core_mem_bytes_s", "core_occupancy_ways"):
            values = getattr(self, name)
            # A minimum >= 0 proves no entry negative (a NaN minimum
            # proves nothing); otherwise check entry by entry.
            if values and not min(values) >= 0:
                for v in values:
                    if v < 0:
                        raise ValueError(f"{name} entries must be >= 0")

    @classmethod
    def checked(
        cls,
        duration_s: float,
        hp_ipc: float,
        hp_mem_bytes_s: float,
        total_mem_bytes_s: float,
        hp_llc_occupancy_bytes: float,
        core_ipcs: tuple[float, ...],
        core_mem_bytes_s: tuple[float, ...],
        core_occupancy_ways: tuple[float, ...],
    ) -> "PeriodSample":
        """Every field positionally, without the frozen ``__init__``.

        A backend building one sample per monitoring period pays for the
        frozen dataclass's per-field ``object.__setattr__``; this fills
        the instance dict at once and then runs :meth:`__post_init__`, so
        it rejects exactly what the constructor rejects.
        """
        sample = object.__new__(cls)
        sample.__dict__.update(
            duration_s=duration_s,
            hp_ipc=hp_ipc,
            hp_mem_bytes_s=hp_mem_bytes_s,
            total_mem_bytes_s=total_mem_bytes_s,
            hp_llc_occupancy_bytes=hp_llc_occupancy_bytes,
            core_ipcs=core_ipcs,
            core_mem_bytes_s=core_mem_bytes_s,
            core_occupancy_ways=core_occupancy_ways,
        )
        sample.__post_init__()
        return sample

    @property
    def n_cores(self) -> int:
        """Cores covered by the per-core arrays (0 = aggregates only)."""
        return len(self.core_ipcs)

    @property
    def be_mem_bytes_s(self) -> float:
        """BE aggregate traffic = total minus HP (clamped at zero)."""
        return max(0.0, self.total_mem_bytes_s - self.hp_mem_bytes_s)
