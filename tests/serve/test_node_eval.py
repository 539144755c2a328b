"""Node evaluations run the policy through the shared control loop.

A CBP node actuates all three knobs — ways, MBA and prefetch — so its
Server ends throttled exactly as ``run_pair`` leaves one after the same
periods (admission plans CBP placements through ``run_pair``). A node
without an HP never updates its policy but still reports its name.
"""

from __future__ import annotations

import pytest

from repro.core.cbp import CbpPolicy
from repro.experiments import runner
from repro.serve import node as node_module
from repro.serve.node import NodeRuntime
from repro.serve.placement import PlaneConfig
from repro.sim.partition import PartitionSpec
from repro.workloads.mix import make_mix


def _record_servers(monkeypatch, module) -> list:
    """Every Server ``module`` builds from now on, in build order."""
    built = []

    class Recording(module.Server):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(module, "Server", Recording)
    return built


def _runtime(policy: str, precision: str) -> NodeRuntime:
    config = PlaneConfig(node_ids=("n0",), policy=policy, precision=precision)
    return NodeRuntime("n0", config)


@pytest.mark.parametrize("precision", ["exact", "fast"])
def test_cbp_node_throttles_like_run_pair(monkeypatch, precision):
    periods = 8
    node_servers = _record_servers(monkeypatch, node_module)
    pair_servers = _record_servers(monkeypatch, runner)
    runtime = _runtime("CBP", precision)
    runtime.assign("omnetpp1", ("lbm1",) * 5)
    metrics = runtime.evaluate(periods=periods)
    runner.run_pair(
        make_mix("omnetpp1", "lbm1", n_be=5),
        CbpPolicy(),
        max_time_s=periods * CbpPolicy().period_s,
        precision=precision,
    )
    (node_server,), (pair_server,) = node_servers, pair_servers
    assert node_server.prefetch is not None
    assert node_server.mba_scale is not None
    assert node_server.prefetch == pair_server.prefetch
    assert node_server.mba_scale == pair_server.mba_scale
    assert node_server.partition == pair_server.partition
    assert node_server.time == pair_server.time == metrics["sim_time_s"]
    assert metrics["policy"] == "CBP"


def test_node_without_hp_never_updates(monkeypatch):
    servers = _record_servers(monkeypatch, node_module)
    runtime = _runtime("CBP", "fast")
    runtime.assign(None, ("lbm1",) * 3)
    metrics = runtime.evaluate(periods=8)
    (server,) = servers
    assert metrics["policy"] == "CBP"
    assert server.partition == PartitionSpec.unmanaged(3, 20)
    assert server.prefetch is None and server.mba_scale is None


def test_dicer_node_leaves_mba_and_prefetch_alone(monkeypatch):
    servers = _record_servers(monkeypatch, node_module)
    runtime = _runtime("DICER", "fast")
    runtime.assign("omnetpp1", ("lbm1",) * 5)
    runtime.evaluate(periods=8)
    (server,) = servers
    assert server.prefetch is None and server.mba_scale is None
