"""Fold-level oracle for the plane's cached-fold reuse.

A departure no longer rebuilds the greedy placement: the plane rewinds
its cached :class:`_Fold` to the longest common prefix of the folded and
the live jobs and re-adds the rest. Here hypothesis draws a job list A
and a list B made from A by removing jobs and appending new ones, folds
A, reuses the fold for B through :meth:`ControlPlane._fold_for`, and
requires every field to equal :meth:`ControlPlane.canonical_placement`
of B. The admission answers come from a fixed table, so no solver runs
and hundreds of examples take seconds.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.placement import (
    AdmissionCache,
    ControlPlane,
    Job,
    PlaneConfig,
)
from repro.sim.platform import TABLE1_PLATFORM

HP_APPS = ("hpA", "hpB", "hpC", "hpD")
BE_APPS = ("beA", "beB", "beC", "beD", "beE")
PHYS = TABLE1_PLATFORM.n_cores - 1

FIELDS = ("job_ids", "assignment", "overflow", "hp_on", "n_be", "types_on",
          "cap_on")


class TableAdmission(AdmissionCache):
    """``max_bes`` from a fixed (HP, BE) table: no admission search."""

    def __init__(self, table: dict[tuple[str, str], int]) -> None:
        super().__init__(policy="DICER", slo=0.9)
        self.table = table

    def max_bes(self, hp_app, be_app):
        return self.table[(hp_app, be_app)]


job_specs = st.lists(
    st.one_of(
        st.tuples(st.just("hp"), st.sampled_from(HP_APPS)),
        st.tuples(st.just("be"), st.sampled_from(BE_APPS)),
    ),
    max_size=80,
)


@st.composite
def reuse_cases(draw):
    """(n_nodes, table, A, B): B is A minus some jobs plus new ones."""
    n_nodes = draw(st.integers(1, 30))
    table = {
        (hp, be): draw(st.integers(0, PHYS))
        for hp in HP_APPS
        for be in BE_APPS
    }

    def jobs(prefix, specs, seq0):
        return [
            Job(job_id=f"{prefix}{i}", kind=kind, app=app, seq=seq0 + i)
            for i, (kind, app) in enumerate(specs)
        ]

    a = jobs("a", draw(job_specs), 0)
    keep = draw(st.lists(st.booleans(), min_size=len(a), max_size=len(a)))
    b = [job for job, kept in zip(a, keep) if kept]
    b += jobs("n", draw(job_specs), len(a))
    return n_nodes, table, a, b


def inadmissible_hp_or_overflow(plane, jobs, node_ids) -> set[str]:
    """Which edge cases a from-scratch fold of ``jobs`` runs into."""
    fold = plane.canonical_placement([], node_ids)
    seen = set()
    for job in jobs:
        if job.kind == "hp" and any(
            fold.hp_on[nid] is None
            and fold._hp_cap(job.app, fold.types_on[nid]) < fold.n_be[nid]
            for nid in node_ids
        ):
            seen.add("inadmissible_hp")
        fold.add(job)
    if fold.overflow:
        seen.add("overflow")
    return seen


def check_reuse(case) -> set[str]:
    """Fold A, reuse the fold for B; assert it equals B from scratch."""
    n_nodes, table, a, b = case
    plane = ControlPlane(
        PlaneConfig.for_nodes(n_nodes), admission=TableAdmission(table)
    )
    node_ids = plane.config.node_ids
    plane.jobs = {job.job_id: job for job in a}
    fold = plane._fold_for(node_ids)
    plane.jobs = {job.job_id: job for job in b}
    reused = plane._fold_for(node_ids)
    assert reused is fold
    oracle = plane.canonical_placement(b, node_ids)
    for name in FIELDS:
        assert getattr(reused, name) == getattr(oracle, name), name
    return inadmissible_hp_or_overflow(plane, b, node_ids)


class TestFoldReuseOracle:
    @given(case=reuse_cases())
    @settings(max_examples=300, deadline=None)
    def test_reused_fold_equals_from_scratch(self, case):
        check_reuse(case)

    def test_draws_reach_inadmissible_hps_and_overflow(self):
        seen: set[str] = set()

        @given(case=reuse_cases())
        @settings(max_examples=100, deadline=None, derandomize=True,
                  database=None)
        def run(case):
            seen.update(check_reuse(case))

        run()
        assert seen == {"inadmissible_hp", "overflow"}

    def test_rewind_restores_every_field(self):
        plane = ControlPlane(
            PlaneConfig.for_nodes(2),
            admission=TableAdmission(
                {(hp, be): 1 for hp in HP_APPS for be in BE_APPS}
            ),
        )
        node_ids = plane.config.node_ids
        jobs = [
            Job("b0", "be", "beA", 0),  # node00
            Job("b1", "be", "beA", 1),  # node01
            Job("b2", "be", "beB", 2),  # node00
            Job("h0", "hp", "hpA", 3),  # node00's 2 BEs > cap 1: node01
            Job("h1", "hp", "hpB", 4),  # node00 inadmissible: overflow
            Job("b3", "be", "beC", 5),  # node01 full under h0: node00
            Job("b4", "be", "beA", 6),  # node00, where beA is not new
        ]
        fold = plane.canonical_placement(jobs, node_ids)
        assert fold.overflow == ["h1"]
        for k in range(len(jobs), -1, -1):
            fold.rewind(k)
            oracle = plane.canonical_placement(jobs[:k], node_ids)
            for name in FIELDS:
                assert getattr(fold, name) == getattr(oracle, name), name
