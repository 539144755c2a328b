"""One steady controller period: sample -> update -> apply.

The paper's Listing 1 loop, once per monitoring period T, for DICER,
LFOC and CBP on a 10-core exact mix (an HP and nine BE clones), through
the one period loop :func:`repro.rdt.harness.drive`. The timed run
replays operating points its twin already solved, so the exact solver
stays out of the number: what remains is the ``Server`` event loop, the
simulated RDT sample, the controller's update and the actuation.
"""

import pytest

from repro.core.cbp import CbpPolicy
from repro.core.lfoc import LfocPolicy
from repro.core.policies import DicerPolicy
from repro.rdt.harness import drive
from repro.rdt.simulated import SimulatedRdt
from repro.sim.platform import TABLE1_PLATFORM
from repro.sim.server import Server
from repro.workloads.mix import make_mix

POLICIES = {"DICER": DicerPolicy, "LFOC": LfocPolicy, "CBP": CbpPolicy}

#: Periods run before the timed ones, and the timed periods per round.
WARMUP, PERIODS = 10, 20


def _backend(policy, memo_from: Server | None = None):
    """A fresh 10-core exact run under ``policy``, its memo optionally
    seeded with the operating points another run solved."""
    mix = make_mix("omnetpp1", "lbm1", n_be=9)
    server = Server(TABLE1_PLATFORM, mix.apps(), precision="exact")
    if memo_from is not None:
        server._memo.update(memo_from._memo)
    backend = SimulatedRdt(server)
    allocation = policy.setup(backend.total_ways)
    if allocation is not None:
        backend.apply(allocation)
    return backend, server


def _steady_run(policy_cls):
    """Setup for one round: the twin solves, the timed run is warm."""
    twin_policy = policy_cls()
    twin, solved = _backend(twin_policy)
    drive(twin_policy, twin, max_periods=WARMUP + PERIODS)
    policy = policy_cls()
    backend, _server = _backend(policy, memo_from=solved)
    drive(policy, backend, max_periods=WARMUP)
    return (policy, backend), {}


@pytest.mark.parametrize("name", sorted(POLICIES))
def bench_period(benchmark, name):
    def periods(policy, backend):
        drive(policy, backend, max_periods=PERIODS)
        return backend

    backend = benchmark.pedantic(
        periods,
        setup=lambda: _steady_run(POLICIES[name]),
        rounds=30,
        iterations=1,
    )
    assert not backend.finished
