"""The server event loop against a naive reference loop.

``Server`` holds its operating point between events and tracks each app's
phase with a cursor instead of re-deriving both on every call. These tests
pin that fast path to :class:`_ReferenceServer`, a deliberately naive loop
kept here: it re-derives every app's phase through ``AppModel.phase_at``,
rebuilds the operating point and solves it from scratch on every call,
and iterates NumPy scalars the way the loop always did.
Random multi-phase apps with BE clones, random interleavings of
``advance`` and the three reconfiguration setters, both precisions —
after every step time, counters, completions, run times and the steady
state must be bitwise equal.

A second test bounds the work: a ``Server`` builds a memo key only when
an operating-point input changed, not on every request.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.server as server_module
from repro.core.policies import DicerPolicy
from repro.core.lfoc import LfocPolicy
from repro.experiments.runner import run_pair
from repro.sim.contention import (
    ConvergenceError,
    SteadyStateCache,
    solve_steady_state,
)
from repro.sim.partition import PartitionSpec
from repro.sim.platform import TABLE1_PLATFORM
from repro.sim.server import Server
from repro.workloads.app import AppModel
from repro.workloads.catalog import get_app
from repro.workloads.mix import make_mix

PLAT = TABLE1_PLATFORM
WAYS = PLAT.llc_ways

#: Phases the random apps are assembled from.
PHASE_POOL = tuple(
    phase
    for name in ("namd1", "milc1", "gcc_base5", "wrf1", "povray1", "omnetpp1")
    for phase in get_app(name).phases
)

#: Per-phase instruction budgets: short enough that a few dozen periods
#: cross many phase boundaries and restart every app at least once.
BUDGETS = (2e8, 7.5e8, 1e9, 3.3e9)


class _ReferenceApp:
    """Naive per-app state: phase re-derived from scratch on every call."""

    def __init__(self, model: AppModel) -> None:
        self.model = model
        self.instructions_in_run = 0.0
        self.run_start_time = 0.0
        self.completions = 0
        self.run_times: list[float] = []
        self.total_instructions = 0.0
        self.total_mem_bytes = 0.0

    def current_phase(self):
        idx, remaining = self.model.phase_at(self.instructions_in_run)
        return self.model.phases[idx], remaining

    def advance(self, instructions: float, now: float) -> None:
        self.instructions_in_run += instructions
        total = sum(p.instructions for p in self.model.phases)
        if self.instructions_in_run >= total - 1.0:
            self.completions += 1
            self.run_times.append(now - self.run_start_time)
            self.instructions_in_run = 0.0
            self.run_start_time = now
            return
        idx, remaining = self.model.phase_at(self.instructions_in_run)
        if remaining <= 1.0:
            self.instructions_in_run = float(
                sum(p.instructions for p in self.model.phases[: idx + 1])
            )


class _ReferenceServer:
    """The event loop with nothing held between calls."""

    def __init__(self, models, partition, precision):
        self.apps = [_ReferenceApp(m) for m in models]
        self.partition = partition
        self.precision = precision
        self.mba_scale = None
        self.prefetch = None
        self.time = 0.0

    def set_partition(self, partition):
        self.partition = partition

    def set_mba_scale(self, scale):
        self.mba_scale = None if scale is None else tuple(scale)

    def set_prefetch_levels(self, levels):
        if levels is None:
            self.prefetch = None
            return
        quantised = tuple(PLAT.quantise_prefetch(float(x)) for x in levels)
        self.prefetch = None if not any(quantised) else quantised

    def steady_state(self):
        phases = tuple(app.current_phase()[0] for app in self.apps)
        return solve_steady_state(
            PLAT,
            phases,
            self.partition,
            mba_scale=self.mba_scale,
            prefetch=self.prefetch,
            precision=self.precision,
        )

    def advance(self, max_dt):
        state = self.steady_state()
        rates = state.ipc * PLAT.freq_hz
        dt = max_dt
        for app, rate in zip(self.apps, rates):
            _, remaining = app.current_phase()
            dt = min(dt, remaining / rate)
        self.time += dt
        for i, (app, rate) in enumerate(zip(self.apps, rates)):
            retired = rate * dt
            app.total_instructions += retired
            app.total_mem_bytes += state.bw_bytes[i] * dt
            _, remaining = app.current_phase()
            if retired >= remaining * (1.0 - server_module._BOUNDARY_RTOL):
                retired = remaining
            app.advance(retired, self.time)
        return dt

    @property
    def all_completed(self):
        return all(app.completions >= 1 for app in self.apps)


def _bits(values) -> list[str]:
    """Exact bit patterns of a float or a sequence of floats."""
    return [float(v).hex() for v in np.atleast_1d(np.asarray(values))]


def _assert_same(server: Server, ref: _ReferenceServer, step: int) -> bool:
    """Compare everything observable; False once both hit a point the
    solver cannot converge on (the example ends there)."""
    where = f"after step {step}"
    assert _bits(server.time) == _bits(ref.time), where
    counters = server.counters()
    assert _bits(counters["time_s"]) == _bits(ref.time), where
    assert _bits(counters["instructions"]) == _bits(
        [a.total_instructions for a in ref.apps]
    ), where
    assert _bits(counters["mem_bytes"]) == _bits(
        [a.total_mem_bytes for a in ref.apps]
    ), where
    for got, want in zip(server.apps, ref.apps):
        assert got.completions == want.completions, where
        assert _bits(got.run_times) == _bits(want.run_times), where
        assert got.instructions_in_run == want.instructions_in_run, where
    assert server.all_completed == ref.all_completed, where
    try:
        want = ref.steady_state()
    except ConvergenceError:
        with pytest.raises(ConvergenceError):
            server.steady_state()
        return False
    got = server.steady_state()
    for name in ("ipc", "ways", "miss_ratio", "bw_bytes"):
        assert _bits(getattr(got, name)) == _bits(getattr(want, name)), (
            f"{name} {where}"
        )
    assert _bits(got.latency_cycles) == _bits(want.latency_cycles), where
    assert _bits(got.utilisation) == _bits(want.utilisation), where
    assert got.iterations == want.iterations, where
    return True


_app_phases = st.lists(
    st.tuples(
        st.integers(0, len(PHASE_POOL) - 1), st.sampled_from(BUDGETS)
    ),
    min_size=1,
    max_size=3,
)

_step = st.one_of(
    st.tuples(st.just("advance"), st.sampled_from((0.05, 0.3, 1.0, 4.0))),
    # Stop one app ``short`` instructions before its phase boundary:
    # 0.75 lands inside the snap window, 0.3 inside phase_at's margin.
    st.tuples(
        st.just("approach"),
        st.tuples(st.integers(0, 3), st.sampled_from((0.75, 0.3))),
    ),
    # (hp_ways or None = unmanaged, rebuild-the-current-spec flag)
    st.tuples(
        st.just("partition"),
        st.tuples(st.none() | st.integers(1, WAYS - 1), st.booleans()),
    ),
    st.tuples(st.just("mba"), st.none() | st.sampled_from((0.3, 0.6, 1.0))),
    st.tuples(
        st.just("prefetch"), st.none() | st.sampled_from((0.0, 0.5, 1.0))
    ),
)


def _model(name: str, spec) -> AppModel:
    phases = tuple(
        dataclasses.replace(PHASE_POOL[i], instructions=budget)
        for i, budget in spec
    )
    return AppModel(name=name, suite="synthetic", archetype="phased",
                    phases=phases)


def _spec(hp_ways: int | None, n: int) -> PartitionSpec:
    if hp_ways is None:
        return PartitionSpec.unmanaged(n, WAYS)
    return PartitionSpec.hp_be(hp_ways, n, WAYS)


class TestEventLoopMatchesReference:
    @pytest.mark.parametrize("precision", ["exact", "fast"])
    @settings(deadline=None, max_examples=60)
    @given(
        hp=_app_phases,
        be=_app_phases,
        n_be=st.integers(1, 3),
        steps=st.lists(_step, min_size=1, max_size=40),
    )
    def test_bitwise_equal_after_every_step(
        self, precision, hp, be, n_be, steps
    ):
        be_model = _model("be", be)
        models = [_model("hp", hp)] + [
            be_model.with_name(f"be{i}") for i in range(n_be)
        ]
        n = len(models)
        partition = _spec(None, n)
        server = Server(PLAT, models, partition, precision=precision)
        ref = _ReferenceServer(models, partition, precision)
        current = None
        if not _assert_same(server, ref, -1):
            return
        for number, (kind, arg) in enumerate(steps):
            if kind == "approach":
                core, short = arg
                app = ref.apps[core % n]
                rate = ref.steady_state().ipc[core % n] * PLAT.freq_hz
                kind, arg = "advance", (app.current_phase()[1] - short) / rate
            if kind == "advance":
                assert _bits(server.advance(arg)) == _bits(ref.advance(arg))
            elif kind == "partition":
                hp_ways, rebuild = arg
                if rebuild:
                    hp_ways = current
                current = hp_ways
                # A fresh (equal-keyed) object each time, as controllers do.
                server.set_partition(_spec(hp_ways, n))
                ref.set_partition(_spec(hp_ways, n))
            elif kind == "mba":
                scale = None if arg is None else [1.0] + [arg] * (n - 1)
                server.set_mba_scale(scale)
                ref.set_mba_scale(scale)
            else:
                levels = None if arg is None else [0.0] + [arg] * (n - 1)
                server.set_prefetch_levels(levels)
                ref.set_prefetch_levels(levels)
            if not _assert_same(server, ref, number):
                return


class _KeyCounter(SteadyStateCache):
    """Stands in for ``SteadyStateCache`` inside ``repro.sim.server``."""

    calls = 0

    @classmethod
    def make_key(cls, *args, **kwargs):
        cls.calls += 1
        return SteadyStateCache.make_key(*args, **kwargs)


def _operating_point(server: Server) -> tuple:
    """Everything a memo key depends on, derived from scratch."""
    return (
        tuple(
            app.model.phase_at(app.instructions_in_run)[0]
            for app in server.apps
        ),
        server.partition.key(),
        server.mba_scale,
        server.prefetch,
    )


class TestMemoKeyWork:
    """A ``Server`` re-keys once per operating-point change, not per call."""

    @pytest.mark.parametrize(
        "policy, hp, be",
        [(DicerPolicy(), "mcf1", "povray1"), (LfocPolicy(), "omnetpp1", "namd1")],
        ids=["dicer", "lfoc"],
    )
    def test_one_key_per_operating_point_change(
        self, monkeypatch, policy, hp, be
    ):
        seen: list[tuple] = []
        requests = [0]

        def observed(method):
            def wrapper(self, *args, **kwargs):
                requests[0] += 1
                point = _operating_point(self)
                if not seen or seen[-1] != point:
                    seen.append(point)
                return method(self, *args, **kwargs)

            return wrapper

        _KeyCounter.calls = 0
        monkeypatch.setattr(server_module, "SteadyStateCache", _KeyCounter)
        monkeypatch.setattr(Server, "advance", observed(Server.advance))
        monkeypatch.setattr(
            Server, "steady_state", observed(Server.steady_state)
        )
        run_pair(make_mix(hp, be, n_be=3), policy, precision="exact")
        changes = len(seen)
        # One key per request (the naive loop) must break the bound.
        assert requests[0] > 2 * (changes + 1)
        assert _KeyCounter.calls <= changes + 1
