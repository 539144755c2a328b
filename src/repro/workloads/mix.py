"""Multiprogrammed workload construction.

The paper's execution scenario (Section 2.1): one High-Priority application
on one core, N-1 instances of one Best-Effort application on the remaining
cores. :class:`WorkloadMix` captures that pairing plus helpers to enumerate
the full 59 × 59 = 3481 pair population.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterator

from repro.workloads.app import AppModel
from repro.workloads.catalog import app_names, get_app
from repro.util.validation import check_positive_int

__all__ = [
    "WorkloadMix",
    "HeterogeneousMix",
    "MultiHpMix",
    "all_pairs",
    "make_mix",
    "make_multi_mix",
]

#: Serialises the growth of the interned clone lists (reads take no lock).
_CLONE_LOCK = threading.Lock()


def _slot_clones(model: AppModel, n_slots: int) -> list[AppModel]:
    """``model``'s interned per-core clones ``<name>#0`` .. ``#n_slots-1``.

    ``AppModel`` is frozen, so one clone per (model, slot) can serve every
    mix that ever asks for it. The clones live on the model itself, as a
    list indexed by slot, like its cached run length; the list is only
    ever replaced by a longer copy, so a reader never sees a half-built
    one. A dict keyed by the model would hash every field per lookup.
    """
    clones = model.__dict__.get("_slot_clones", ())
    if len(clones) < n_slots:
        with _CLONE_LOCK:
            clones = list(model.__dict__.get("_slot_clones", ()))
            for k in range(len(clones), n_slots):
                clones.append(model.with_name(f"{model.name}#{k}"))
            object.__setattr__(model, "_slot_clones", clones)
    return clones


@dataclass(frozen=True)
class WorkloadMix:
    """One HP application co-located with ``n_be`` copies of a BE application.

    ``apps()`` materialises the per-core application list: index 0 is HP,
    indices 1..n_be are BE instances named ``<be>#k`` so telemetry can tell
    them apart.
    """

    hp: AppModel
    be: AppModel
    n_be: int

    def __post_init__(self) -> None:
        check_positive_int("n_be", self.n_be)

    @property
    def n_cores(self) -> int:
        """Cores used: one per BE plus the HP core."""
        return self.n_be + 1

    @property
    def label(self) -> str:
        """Human-readable id matching the paper's "hp be" row labels."""
        return f"{self.hp.name} {self.be.name}"

    def apps(self) -> list[AppModel]:
        """Per-core application instances (HP first).

        The BE instances are interned ``<be>#k`` clones, shared by every
        mix and every call (models are frozen, so sharing is safe).
        """
        return [self.hp, *_slot_clones(self.be, self.n_be)[: self.n_be]]


def make_mix(hp_name: str, be_name: str, n_be: int = 9) -> WorkloadMix:
    """Build a mix from catalog entry names (HP may equal BE)."""
    return WorkloadMix(hp=get_app(hp_name), be=get_app(be_name), n_be=n_be)


def all_pairs(n_be: int = 9) -> Iterator[WorkloadMix]:
    """Every (HP, BE) pair over the catalog — 3481 mixes at default size."""
    names = app_names()
    for hp_name in names:
        for be_name in names:
            yield make_mix(hp_name, be_name, n_be=n_be)


@dataclass(frozen=True)
class HeterogeneousMix:
    """One HP co-located with an arbitrary list of (distinct) BE apps.

    The paper's scenario uses N identical BE instances; real consolidation
    mixes differ per core. The simulator handles either — this wrapper just
    relaxes the pairing. BE entries may repeat; repeated models are cloned
    with ``#k`` suffixes so telemetry stays unambiguous.
    """

    hp: AppModel
    bes: tuple[AppModel, ...]

    def __post_init__(self) -> None:
        if not self.bes:
            raise ValueError("need at least one BE application")

    @property
    def n_cores(self) -> int:
        """Cores used: one per BE plus the HP core."""
        return len(self.bes) + 1

    @property
    def label(self) -> str:
        """Human-readable id for reports."""
        return f"{self.hp.name} + [{', '.join(b.name for b in self.bes)}]"

    def apps(self) -> list[AppModel]:
        """Per-core application instances (HP first)."""
        out = [self.hp]
        for k, be in enumerate(self.bes):
            out.append(_slot_clones(be, k + 1)[k])
        return out


@dataclass(frozen=True)
class MultiHpMix:
    """Several co-equal high-priority apps plus best-effort fillers.

    The policy-zoo scenario class the 1-HP pairing cannot express: LFOC
    clusters many co-equal apps, and CBP coordinates knobs across classes.
    ``hps`` occupy the first cores (in order), ``bes`` the rest; both may
    repeat — instances get ``#k`` suffixes like the other mixes.

    The runner treats core 0 as the primary app for HP-centric telemetry,
    but the multi-HP metrics (``run_multi``) normalise *every* app against
    its own solo profile, so no core is privileged in the scoring.
    """

    hps: tuple[AppModel, ...]
    bes: tuple[AppModel, ...] = ()

    def __post_init__(self) -> None:
        if not self.hps:
            raise ValueError("need at least one HP application")

    @property
    def n_hp(self) -> int:
        """Number of high-priority apps (the first cores)."""
        return len(self.hps)

    @property
    def n_cores(self) -> int:
        """Cores used: one per HP plus one per BE."""
        return len(self.hps) + len(self.bes)

    @property
    def label(self) -> str:
        """Human-readable id for reports."""
        hp_part = "+".join(a.name for a in self.hps)
        if not self.bes:
            return hp_part
        return f"{hp_part} | {'+'.join(a.name for a in self.bes)}"

    def apps(self) -> list[AppModel]:
        """Per-core application instances (HPs first, then BEs)."""
        out: list[AppModel] = []
        for k, app in enumerate(self.hps + self.bes):
            out.append(_slot_clones(app, k + 1)[k])
        return out


def make_multi_mix(
    hp_names: tuple[str, ...] | list[str],
    be_names: tuple[str, ...] | list[str] = (),
) -> MultiHpMix:
    """Build a multi-HP mix from catalog entry names."""
    return MultiHpMix(
        hps=tuple(get_app(n) for n in hp_names),
        bes=tuple(get_app(n) for n in be_names),
    )
