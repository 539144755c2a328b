"""BE admission planning — the paper's second future-work extension.

    "To better safeguard the performance of the HP application, we intend
    to extend DICER to dynamically manage the number of co-located BEs."
    (Section 6)

:func:`find_max_bes` answers the operator's question directly: given an HP
(or several co-equal HPs), a BE type, a policy and an SLO, how many BE
instances can the server admit before the SLO breaks? Conformance is
monotone non-increasing in the BE count under every policy here (each
extra instance only adds cache and bandwidth pressure), so a binary
search over the instance count suffices.

The policy argument accepts any :class:`~repro.core.policies.Policy`
*or* a zoo policy name (``UM``/``CT``/``DICER``/``LFOC``/``CBP``/
``S<k>[+<o>o]``, resolved through :func:`repro.core.policies.
policy_from_name`), and the HP side accepts either one catalog name or a
sequence of names — a multi-HP mix judged on its *worst* HP (the
fairness metric :func:`repro.experiments.runner.run_multi` reports).
This is the admission path the :mod:`repro.serve` control plane
bin-packs with, so it also threads ``precision`` down to the solver
(serve uses the fast solver; the library default stays exact).

:class:`AdmissionPlan` carries the full sweep so capacity-planning
examples can show the whole frontier, not just the answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.policies import Policy, policy_from_name
from repro.experiments.runner import (
    MultiResult,
    PairResult,
    run_multi,
    run_pair,
)
from repro.metrics.slo import slo_achieved
from repro.sim.platform import PlatformConfig, TABLE1_PLATFORM
from repro.workloads.mix import make_mix, make_multi_mix

__all__ = ["AdmissionPlan", "find_max_bes", "hp_admission_metric"]


def hp_admission_metric(result: PairResult | MultiResult) -> float:
    """The HP-side QoS number an admission decision is judged on.

    Classic pairs report the HP's normalised IPC; multi-HP mixes report
    the *minimum* over the co-equal HPs (no class left behind).
    """
    if isinstance(result, MultiResult):
        return result.min_hp_norm_ipc
    return result.hp_norm_ipc


def _resolve_policy(policy: Policy | str) -> Policy:
    """Accept a live policy or a zoo name (``policy_from_name``)."""
    if isinstance(policy, str):
        return policy_from_name(policy)
    return policy


@dataclass(frozen=True)
class AdmissionPlan:
    """Outcome of an admission search."""

    hp_name: str
    be_name: str
    policy: str
    slo: float
    #: BE count -> experiment result, for every count probed.
    probes: dict[int, PairResult | MultiResult]
    #: Largest admissible BE count (0 when even one BE breaks the SLO).
    max_bes: int
    #: All HP catalog names (one entry for the classic single-HP form).
    hp_names: tuple[str, ...] = ()

    def frontier(self) -> list[tuple[int, float, float]]:
        """(n_be, HP admission metric, EFU) rows sorted by BE count."""
        return [
            (n, hp_admission_metric(r), r.efu)
            for n, r in sorted(self.probes.items())
        ]


def find_max_bes(
    hp_name: str | Sequence[str],
    be_name: str,
    policy: Policy | str,
    slo: float,
    *,
    platform: PlatformConfig = TABLE1_PLATFORM,
    max_cores: int | None = None,
    precision: str = "exact",
) -> AdmissionPlan:
    """Binary-search the largest BE count that keeps the HP SLO.

    ``hp_name`` may be one catalog name or a sequence of names (a
    multi-HP mix, judged on its worst HP); ``policy`` may be a
    :class:`Policy` instance or a zoo policy name. Probes are memoised
    in the returned plan; the search runs O(log max_bes) experiments.
    """
    policy = _resolve_policy(policy)
    hp_names = (
        (hp_name,) if isinstance(hp_name, str) else tuple(hp_name)
    )
    if not hp_names:
        raise ValueError("need at least one HP application")
    limit = (max_cores or platform.n_cores) - len(hp_names)
    if limit < 1:
        raise ValueError("need room for at least one BE")
    probes: dict[int, PairResult | MultiResult] = {}

    def probe(n_be: int) -> PairResult | MultiResult:
        if len(hp_names) == 1:
            return run_pair(
                make_mix(hp_names[0], be_name, n_be=n_be),
                policy,
                platform,
                precision=precision,
            )
        return run_multi(
            make_multi_mix(hp_names, (be_name,) * n_be),
            policy,
            platform,
            precision=precision,
        )

    def ok(n_be: int) -> bool:
        result = probes.get(n_be)
        if result is None:
            result = probe(n_be)
            probes[n_be] = result
        return slo_achieved(hp_admission_metric(result), slo)

    lo, hi = 0, limit  # invariant: lo admissible (0 trivially), hi+1 not probed
    if ok(limit):
        lo = limit
    else:
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if ok(mid):
                lo = mid
            else:
                hi = mid
    return AdmissionPlan(
        hp_name="+".join(hp_names),
        be_name=be_name,
        policy=policy.name,
        slo=slo,
        probes=probes,
        max_bes=lo,
        hp_names=hp_names,
    )
