"""The shared evaluation campaign behind Figures 4-8.

The paper evaluates UM, CT and DICER on a representative sample of 120
multiprogrammed workloads (50 CT-F + 70 CT-T), varying the number of
employed cores from 2 to 10 (one core to HP, the rest to BEs). All of
Figures 4-8 are projections of that one grid of executions, so it is built
once here and the figure modules post-process it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cbp import CbpPolicy
from repro.core.lfoc import LfocPolicy
from repro.core.policies import (
    CacheTakeoverPolicy,
    DicerPolicy,
    Policy,
    StaticPolicy,
    UnmanagedPolicy,
)
from repro.experiments.classify import (
    PairClass,
    classify_all,
    representative_sample,
)
from repro.experiments.runner import PairResult
from repro.experiments.store import ResultStore
from repro.workloads.catalog import app_names

__all__ = [
    "GridPoint",
    "GridData",
    "default_policies",
    "zoo_policies",
    "grid_cells",
    "run_grid",
    "build_sample",
]

#: Core counts evaluated by the paper (x axes of Figures 6-8).
PAPER_CORES: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8, 9, 10)


def default_policies() -> list[Policy]:
    """The paper's three co-location policies."""
    return [UnmanagedPolicy(), CacheTakeoverPolicy(), DicerPolicy()]


def zoo_policies() -> list[Policy]:
    """The full shoot-out roster: paper trio + static + the policy zoo.

    ``S10`` is the even 10/10 split on the Table-1 20-way LLC — the
    natural static baseline between UM (no partition) and CT (HP takes
    all but one way). LFOC and CBP are the related-work controllers
    (:mod:`repro.core.lfoc`, :mod:`repro.core.cbp`); every name here is
    queueable through :func:`repro.core.policies.policy_from_name`.
    """
    return [
        UnmanagedPolicy(),
        CacheTakeoverPolicy(),
        StaticPolicy(10),
        DicerPolicy(),
        LfocPolicy(),
        CbpPolicy(),
    ]


@dataclass(frozen=True)
class GridPoint:
    """One executed cell of the evaluation grid."""

    workload: PairClass
    n_cores: int
    policy: str
    result: PairResult


@dataclass(frozen=True)
class GridData:
    """The full campaign: sample x cores x policies."""

    sample: tuple[PairClass, ...]
    cores: tuple[int, ...]
    policies: tuple[str, ...]
    points: tuple[GridPoint, ...]

    def select(
        self,
        *,
        policy: str | None = None,
        n_cores: int | None = None,
        workload_class: str | None = None,
    ) -> list[GridPoint]:
        """Grid points matching the given filters."""
        out = []
        for p in self.points:
            if policy is not None and p.policy != policy:
                continue
            if n_cores is not None and p.n_cores != n_cores:
                continue
            if (
                workload_class is not None
                and p.workload.label != workload_class
            ):
                continue
            out.append(p)
        return out


def build_sample(
    store: ResultStore,
    *,
    n_ctf: int = 50,
    n_ctt: int = 70,
    limit: int | None = None,
    seed: int | None = None,
) -> list[PairClass]:
    """Classify the population and draw the evaluation sample.

    ``limit`` truncates the catalog on both axes for quick runs; the sample
    sizes shrink proportionally when the limited population cannot supply
    50/70.
    """
    names = app_names()[:limit]
    classes = classify_all(store, hp_names=names, be_names=names)
    if limit is not None:
        n_f = len([c for c in classes if c.ct_favoured])
        n_t = len(classes) - n_f
        n_ctf = min(n_ctf, n_f)
        n_ctt = min(n_ctt, n_t)
    return representative_sample(classes, n_ctf=n_ctf, n_ctt=n_ctt, seed=seed)


def grid_cells(
    sample: list[PairClass],
    *,
    cores: tuple[int, ...] = PAPER_CORES,
    policies: list[Policy] | None = None,
) -> list[tuple[str, str, int, Policy]]:
    """The grid's store cells in canonical campaign order.

    Workload-major, then cores, then policies — the order
    :func:`run_grid` executes and the order campaign-queue producers
    enqueue, so queue sequence numbers match serial execution order.
    """
    if policies is None:
        policies = default_policies()
    return [
        (workload.hp_name, workload.be_name, n_cores - 1, policy)
        for workload in sample
        for n_cores in cores
        for policy in policies
    ]


def run_grid(
    store: ResultStore,
    sample: list[PairClass],
    *,
    cores: tuple[int, ...] = PAPER_CORES,
    policies: list[Policy] | None = None,
) -> GridData:
    """Execute the sample under every (core count, policy) combination.

    All cells go to the store as one bulk request, so a parallel store fans
    the whole campaign out over its workers; cell order (workload-major,
    then cores, then policies) matches the serial loop the bulk API
    replaced, keeping grids bit-identical across worker counts. The
    serial executor additionally prewarms the campaign's solo profiles;
    under ``precision="fast"`` it also fuses the phase products, and each
    DICER cell batch-solves its sampling grids and descent ladders in one
    fast ``solve_steady_state_batch`` call each — fast lanes are pure per
    lane, so the results carry the same bits as on-demand singleton
    solves (DESIGN.md §7, §10). Exact cells solve every point with the
    scalar solver.
    """
    if policies is None:
        policies = default_policies()
    combos = [
        (workload, n_cores, policy)
        for workload in sample
        for n_cores in cores
        for policy in policies
    ]
    results = store.get_many(
        grid_cells(sample, cores=cores, policies=policies)
    )
    # A quarantined cell (supervised store, on_failure="skip") yields None
    # and simply leaves a hole in the grid; every extractor aggregates over
    # whatever points exist.
    points = [
        GridPoint(
            workload=workload,
            n_cores=n_cores,
            policy=policy.name,
            result=result,
        )
        for (workload, n_cores, policy), result in zip(combos, results)
        if result is not None
    ]
    return GridData(
        sample=tuple(sample),
        cores=tuple(cores),
        policies=tuple(p.name for p in policies),
        points=tuple(points),
    )
