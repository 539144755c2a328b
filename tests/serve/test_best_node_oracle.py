"""Reference-scan oracle for the fold's memoised ``best_node``.

:meth:`_Fold.best_node` judges nodes against admission answers the fold
has already looked up: per BE app a row ``{hp_app: max_bes}``, and per
HP app its BE capacity by resident type set. The scan it replaced
re-derived every node's headroom through ``AdmissionCache.max_bes`` on
every call; it is frozen below as :class:`ReferenceFold`.

Hypothesis drives both folds through the same random walk (adds of HP
and BE jobs, rewinds to random prefixes) on a fixed ``max_bes`` table.
After every step, and after probing every (kind, app), the two folds
must agree on the chosen node, on every state field and on the set of
(HP, BE) pairs asked of the admission cache: the memo may ask fewer
times, never about other pairs, so the searches a real plane runs are
the same.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.placement import AdmissionCache, Job, _Fold
from repro.sim.platform import TABLE1_PLATFORM

HP_APPS = ("hpA", "hpB", "hpC")
BE_APPS = ("beA", "beB", "beC", "beD")
PHYS = TABLE1_PLATFORM.n_cores - 1

FIELDS = ("job_ids", "assignment", "overflow", "hp_on", "n_be", "types_on",
          "cap_on")

PROBES = [Job(f"probe-{app}", "hp", app, -1) for app in HP_APPS] + [
    Job(f"probe-{app}", "be", app, -1) for app in BE_APPS
]


class RecordingAdmission(AdmissionCache):
    """``max_bes`` from a fixed table; records the pairs it was asked."""

    def __init__(self, table: dict[tuple[str, str], int]) -> None:
        super().__init__(policy="DICER", slo=0.9)
        self.table = table
        self.asked: set[tuple[str, str]] = set()

    def max_bes(self, hp_app, be_app):
        self.asked.add((hp_app, be_app))
        return self.table[(hp_app, be_app)]


# -- frozen reference: the per-call scan ------------------------------------


class ReferenceFold:
    """The greedy fold as it was before the scan read memoised answers."""

    def __init__(self, admission, node_ids, phys) -> None:
        self.admission = admission
        self.phys = phys
        self.node_ids = tuple(node_ids)
        self.hp_on = dict.fromkeys(self.node_ids)
        self.n_be = dict.fromkeys(self.node_ids, 0)
        self.types_on = {nid: set() for nid in self.node_ids}
        self.cap_on = dict.fromkeys(self.node_ids, phys)
        self.job_ids = []
        self.assignment = {}
        self.overflow = []
        self._undo = []

    def _hp_cap(self, hp_app, types):
        max_bes = self.admission.max_bes
        return min([self.phys, *(max_bes(hp_app, t) for t in types)])

    def best_node(self, job):
        best = None
        best_headroom = 0
        for nid in self.node_ids:
            hp = self.hp_on[nid]
            if job.kind == "hp":
                if hp is not None:
                    continue
                headroom = self._hp_cap(job.app, self.types_on[nid])
                headroom -= self.n_be[nid]
                if headroom < 0:
                    continue
            else:
                cap = self.cap_on[nid]
                if hp is not None:
                    cap = min(cap, self.admission.max_bes(hp, job.app))
                headroom = cap - self.n_be[nid]
                if headroom < 1:
                    continue
            if best is None or headroom > best_headroom:
                best, best_headroom = nid, headroom
        return best

    def add(self, job):
        nid = self.best_node(job)
        self.job_ids.append(job.job_id)
        if nid is None:
            self.overflow.append(job.job_id)
            self._undo.append((job, None, 0, False))
            return
        self.assignment[job.job_id] = nid
        cap = self.cap_on[nid]
        if job.kind == "hp":
            self._undo.append((job, nid, cap, False))
            self.hp_on[nid] = job.app
            self.cap_on[nid] = self._hp_cap(job.app, self.types_on[nid])
        else:
            types = self.types_on[nid]
            self._undo.append((job, nid, cap, job.app not in types))
            self.n_be[nid] += 1
            types.add(job.app)
            hp = self.hp_on[nid]
            if hp is not None:
                self.cap_on[nid] = min(
                    cap, self.admission.max_bes(hp, job.app)
                )

    def rewind(self, k):
        while len(self.job_ids) > k:
            job_id = self.job_ids.pop()
            job, nid, cap, new_type = self._undo.pop()
            if nid is None:
                self.overflow.pop()
                continue
            del self.assignment[job_id]
            self.cap_on[nid] = cap
            if job.kind == "hp":
                self.hp_on[nid] = None
            else:
                self.n_be[nid] -= 1
                if new_type:
                    self.types_on[nid].discard(job.app)


# -- the walk -----------------------------------------------------------------

steps = st.lists(
    st.one_of(
        st.tuples(st.just("hp"), st.sampled_from(HP_APPS)),
        st.tuples(st.just("be"), st.sampled_from(BE_APPS)),
        st.tuples(st.just("rewind"), st.integers(0, 10**6)),
    ),
    max_size=90,
)


@st.composite
def walks(draw):
    """(n_nodes, table, steps): a fold walk on a fixed answer table."""
    # Small fleets fill up: they reach overflow and inadmissible HPs.
    n_nodes = draw(st.one_of(st.integers(1, 3), st.integers(1, 30)))
    table = {
        (hp, be): draw(st.integers(0, PHYS))
        for hp in HP_APPS
        for be in BE_APPS
    }
    return n_nodes, table, draw(steps)


def edge_cases(ref: ReferenceFold, table, k: int | None) -> set[str]:
    """Which edge cases ``ref``'s state (and a rewind to ``k``) reach,
    judged from the table so the reference's admission is not asked."""
    seen = set()
    if ref.overflow:
        seen.add("overflow")
    for app in HP_APPS:
        for nid in ref.node_ids:
            if ref.hp_on[nid] is None and min(
                [PHYS, *(table[(app, t)] for t in ref.types_on[nid])]
            ) < ref.n_be[nid]:
                seen.add("inadmissible_hp")
    if k is not None and any(
        nid is not None and new_type for _, nid, _, new_type in ref._undo[k:]
    ):
        seen.add("type_left_on_rewind")
    return seen


def assert_same(fold: _Fold, ref: ReferenceFold) -> None:
    for name in FIELDS:
        assert getattr(fold, name) == getattr(ref, name), name
    assert fold.admission.asked == ref.admission.asked


def run_walk(case) -> set[str]:
    """Walk both folds in lock step; return the edge cases reached."""
    n_nodes, table, walk = case
    node_ids = [f"node{i:02d}" for i in range(n_nodes)]
    fold = _Fold(RecordingAdmission(table), node_ids, PHYS)
    ref = ReferenceFold(RecordingAdmission(table), node_ids, PHYS)
    seen: set[str] = set()
    for i, (kind, arg) in enumerate(walk):
        if kind == "rewind":
            k = arg % (len(ref.job_ids) + 1)
            seen |= edge_cases(ref, table, k)
            fold.rewind(k)
            ref.rewind(k)
        else:
            job = Job(f"j{i}", kind, arg, i)
            fold.add(job)
            ref.add(job)
        assert_same(fold, ref)
        for probe in PROBES:
            assert fold.best_node(probe) == ref.best_node(probe), probe
            assert fold.admission.asked == ref.admission.asked, probe
        seen |= edge_cases(ref, table, None)
    return seen


class TestBestNodeOracle:
    @given(case=walks())
    @settings(max_examples=200, deadline=None)
    def test_memoised_scan_equals_reference_scan(self, case):
        run_walk(case)

    def test_draws_reach_every_edge_case(self):
        seen: set[str] = set()

        @given(case=walks())
        @settings(max_examples=100, deadline=None, derandomize=True,
                  database=None)
        def run(case):
            seen.update(run_walk(case))

        run()
        assert seen == {"inadmissible_hp", "overflow", "type_left_on_rewind"}
