"""CT-Favoured / CT-Thwarted classification (paper Section 2.3.3).

A multiprogrammed workload is **CT-Favoured (CT-F)** when Cache-Takeover
improves HP's performance over Unmanaged, and **CT-Thwarted (CT-T)** when CT
offers no improvement or degrades it. The paper reports ~60 % of its 3481
pairs as CT-T.

Measurements here are noise-free simulation, so "no improvement" needs an
explicit materiality threshold; we classify CT-F only when CT improves HP's
slowdown by more than :data:`CT_F_THRESHOLD` (5 % relative), roughly the
run-to-run noise a hardware study would fold into the comparison. The
threshold is swept by the classification ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.policies import CacheTakeoverPolicy, UnmanagedPolicy
from repro.experiments.store import ResultStore
from repro.util.rng import make_rng
from repro.workloads.catalog import app_names

__all__ = [
    "CT_F_THRESHOLD",
    "PairClass",
    "ShootoutRow",
    "classify_pair",
    "classify_all",
    "representative_sample",
    "shootout",
]

#: Minimum relative HP-slowdown improvement for CT to count as "favoured".
CT_F_THRESHOLD = 0.05


@dataclass(frozen=True)
class PairClass:
    """Classification of one (HP, BE) pair."""

    hp_name: str
    be_name: str
    um_slowdown: float
    ct_slowdown: float

    @property
    def ct_favoured(self) -> bool:
        """CT improved HP's slowdown by more than the threshold."""
        improvement = (self.um_slowdown - self.ct_slowdown) / self.um_slowdown
        return improvement > CT_F_THRESHOLD

    @property
    def label(self) -> str:
        """``"CT-F"`` or ``"CT-T"``."""
        return "CT-F" if self.ct_favoured else "CT-T"


def classify_pair(
    store: ResultStore, hp_name: str, be_name: str, n_be: int = 9
) -> PairClass:
    """Classify one pair by running (or fetching) its UM and CT executions."""
    um = store.get(hp_name, be_name, UnmanagedPolicy(), n_be=n_be)
    ct = store.get(hp_name, be_name, CacheTakeoverPolicy(), n_be=n_be)
    return PairClass(
        hp_name=hp_name,
        be_name=be_name,
        um_slowdown=um.hp_slowdown,
        ct_slowdown=ct.hp_slowdown,
    )


def classify_all(
    store: ResultStore,
    n_be: int = 9,
    hp_names: Iterable[str] | None = None,
    be_names: Iterable[str] | None = None,
) -> list[PairClass]:
    """Classify every (HP, BE) pair over the catalog (3481 by default).

    The UM and CT executions of every pair are requested as one bulk batch,
    so a parallel store fans the whole population out over its workers.
    """
    hps = list(hp_names) if hp_names is not None else app_names()
    bes = list(be_names) if be_names is not None else app_names()
    um, ct = UnmanagedPolicy(), CacheTakeoverPolicy()
    cells = []
    for hp in hps:
        for be in bes:
            cells.append((hp, be, n_be, um))
            cells.append((hp, be, n_be, ct))
    results = store.get_many(cells)
    # A quarantined cell (supervised store, on_failure="skip") yields None;
    # the pair is dropped rather than mis-classified on partial data.
    return [
        PairClass(
            hp_name=um_result.hp_name,
            be_name=um_result.be_name,
            um_slowdown=um_result.hp_slowdown,
            ct_slowdown=ct_result.hp_slowdown,
        )
        for um_result, ct_result in zip(results[::2], results[1::2])
        if um_result is not None and ct_result is not None
    ]


@dataclass(frozen=True)
class ShootoutRow:
    """One workload's head-to-head outcome across a policy roster.

    Per-policy metrics are tuples aligned with ``policies``; quarantined
    cells leave ``nan`` holes rather than dropping the row, so a partial
    shoot-out still reports the policies that did run.
    """

    hp_name: str
    be_name: str
    n_be: int
    policies: tuple[str, ...]
    hp_norm_ipcs: tuple[float, ...]
    efus: tuple[float, ...]

    @property
    def winner(self) -> str:
        """Policy with the best HP normalised IPC (ties: roster order)."""
        best = max(
            range(len(self.policies)),
            key=lambda i: (
                -float("inf")
                if self.hp_norm_ipcs[i] != self.hp_norm_ipcs[i]
                else self.hp_norm_ipcs[i]
            ),
        )
        return self.policies[best]


def shootout(
    store: ResultStore,
    pairs: Iterable[tuple[str, str]],
    policies=None,
    n_be: int = 9,
) -> list[ShootoutRow]:
    """Head-to-head: every pair under every policy, as one bulk batch.

    ``policies`` defaults to the full zoo roster
    (:func:`repro.experiments.grid.zoo_policies`); pass the paper trio to
    reproduce the original three-way comparison. All cells go to the
    store in one ``get_many`` request, so serial and multi-process
    stores produce identical rows.
    """
    from repro.experiments.grid import zoo_policies

    if policies is None:
        policies = zoo_policies()
    pair_list = list(pairs)
    cells = [
        (hp, be, n_be, policy)
        for hp, be in pair_list
        for policy in policies
    ]
    results = store.get_many(cells)
    names = tuple(p.name for p in policies)
    rows = []
    k = len(policies)
    for index, (hp, be) in enumerate(pair_list):
        chunk = results[index * k:(index + 1) * k]
        rows.append(
            ShootoutRow(
                hp_name=hp,
                be_name=be,
                n_be=n_be,
                policies=names,
                hp_norm_ipcs=tuple(
                    float("nan") if r is None else r.hp_norm_ipc
                    for r in chunk
                ),
                efus=tuple(
                    float("nan") if r is None else r.efu for r in chunk
                ),
            )
        )
    return rows


def representative_sample(
    classes: list[PairClass],
    n_ctf: int = 50,
    n_ctt: int = 70,
    seed: int | None = None,
) -> list[PairClass]:
    """The paper's 120-workload evaluation sample: 50 CT-F + 70 CT-T.

    Deterministic for a given seed; raises when a class is underpopulated
    (which would silently skew every downstream figure).
    """
    ctf = [c for c in classes if c.ct_favoured]
    ctt = [c for c in classes if not c.ct_favoured]
    if len(ctf) < n_ctf or len(ctt) < n_ctt:
        raise ValueError(
            f"population too small: {len(ctf)} CT-F / {len(ctt)} CT-T "
            f"(need {n_ctf}/{n_ctt})"
        )
    rng = make_rng(seed)
    pick_f = rng.choice(len(ctf), size=n_ctf, replace=False)
    pick_t = rng.choice(len(ctt), size=n_ctt, replace=False)
    sample = [ctf[i] for i in sorted(pick_f)] + [ctt[i] for i in sorted(pick_t)]
    return sample
