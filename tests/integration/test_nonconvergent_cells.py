"""The five catalog cells the exact solver cannot converge on, pinned.

Each raises ``ConvergenceError`` at exact precision: a lane spends its
800-iteration budget before its step tightens to the 0.02 floor, so the
10x budget escalation never fires. The exact message pins the solver's
adaptive damping and budget rules — any change to the iteration path
(op order, damping, escalation) moves the iteration count or the
latency it stopped at. A deliberate fix to these cells updates this
test together with the solver's ``max_iter`` contract.
"""

from __future__ import annotations

import pytest

from repro.core.admission import find_max_bes
from repro.core.policies import UnmanagedPolicy
from repro.experiments.runner import run_pair
from repro.sim.contention import ConvergenceError
from repro.workloads.mix import make_mix

NONCONVERGENT_PAIRS = [
    # (hp, be, n_be, latency) under UM.
    ("h264ref1", "lbm1", 1, "192.0"),
    ("lbm1", "h264ref1", 1, "192.0"),
    ("h264ref1", "gcc_base6", 8, "189.5"),
]

NONCONVERGENT_ADMISSIONS = [
    # (hp, be, latency) under LFOC.
    ("sphinx1", "h264ref2", "181.1"),
    ("h264ref2", "wrf1", "193.8"),
]


def _message(latency: str) -> str:
    return f"no convergence after 800 iterations (latency={latency} cy)"


@pytest.mark.parametrize("hp,be,n_be,latency", NONCONVERGENT_PAIRS)
def test_um_run_pair_raises(clean_caches, hp, be, n_be, latency):
    with pytest.raises(ConvergenceError) as info:
        run_pair(make_mix(hp, be, n_be=n_be), UnmanagedPolicy())
    assert str(info.value) == _message(latency)


@pytest.mark.parametrize("hp,be,latency", NONCONVERGENT_ADMISSIONS)
def test_lfoc_find_max_bes_raises(clean_caches, hp, be, latency):
    with pytest.raises(ConvergenceError) as info:
        find_max_bes(hp, be, "LFOC", 0.9)
    assert str(info.value) == _message(latency)
