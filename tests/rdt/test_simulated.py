"""Tests for the simulator-bound RDT backend."""

import dataclasses
import random

import numpy as np
import pytest

from repro import obs
from repro.core.allocation import Allocation, GroupAllocation
from repro.rdt.sample import PeriodSample
from repro.rdt.simulated import SimulatedRdt
from repro.sim.partition import PartitionSpec
from repro.sim.platform import TABLE1_PLATFORM, bytes_to_gbps
from repro.sim.server import Server
from repro.workloads.app import AppModel
from repro.workloads.catalog import get_app
from repro.workloads.mix import make_mix
from tests.sim.test_event_loop import _ReferenceServer


def make_backend(hp="milc1", be="gcc_base6", n_be=9):
    mix = make_mix(hp, be, n_be=n_be)
    server = Server(
        TABLE1_PLATFORM,
        mix.apps(),
        PartitionSpec.hp_be(19, n_be + 1, 20),
    )
    return SimulatedRdt(server), server


class TestSampling:
    def test_advances_simulated_time(self):
        backend, server = make_backend()
        backend.sample(1.0)
        assert server.time == pytest.approx(1.0)

    def test_sample_fields_plausible(self):
        backend, _ = make_backend()
        s = backend.sample(1.0)
        assert s.duration_s == pytest.approx(1.0)
        assert 0 < s.hp_ipc < 3
        assert s.total_mem_bytes_s >= s.hp_mem_bytes_s > 0
        # The flagship pair saturates under CT.
        assert bytes_to_gbps(s.total_mem_bytes_s) > 50.0
        assert s.hp_llc_occupancy_bytes > 0

    def test_consecutive_samples_are_deltas(self):
        backend, server = make_backend()
        backend.sample(1.0)
        s2 = backend.sample(1.0)
        assert s2.duration_s == pytest.approx(1.0)
        assert server.time == pytest.approx(2.0)

    def test_period_validated(self):
        backend, _ = make_backend()
        with pytest.raises(ValueError):
            backend.sample(0.0)

    def test_finishes(self):
        backend, server = make_backend(hp="namd1", be="povray1", n_be=1)
        while not backend.finished:
            backend.sample(10.0)
        assert server.all_completed

    def test_degenerate_sample_after_completion(self):
        backend, _ = make_backend(hp="namd1", be="povray1", n_be=1)
        while not backend.finished:
            backend.sample(10.0)
        s = backend.sample(1.0)  # must not raise or divide by zero
        assert s.duration_s > 0
        # The dt <= 0 clamp must still yield a fully valid sample.
        assert s.duration_s == pytest.approx(1e-9)
        assert s.hp_ipc >= 0.0
        assert s.total_mem_bytes_s >= s.hp_mem_bytes_s >= 0.0

    def test_degenerate_sample_counted_in_telemetry(self):
        backend, _ = make_backend(hp="namd1", be="povray1", n_be=1)
        while not backend.finished:
            backend.sample(10.0)
        registry, _ = obs.enable()
        try:
            backend.sample(1.0)
            assert registry.counter(
                "rdt.simulated.degenerate_samples"
            ).value == 1
            assert registry.counter("rdt.simulated.samples").value == 1
        finally:
            obs.disable()


class TestApply:
    def test_apply_changes_partition(self):
        backend, server = make_backend()
        backend.apply(Allocation(hp_ways=2, total_ways=20))
        assert server.partition.hp_ways == 2.0

    def test_apply_affects_next_sample(self):
        backend, _ = make_backend()
        sat = backend.sample(1.0)
        backend.apply(Allocation(hp_ways=1, total_ways=20))
        relieved = backend.sample(1.0)
        assert relieved.total_mem_bytes_s < sat.total_mem_bytes_s

    def test_total_ways(self):
        backend, _ = make_backend()
        assert backend.total_ways == 20

    def test_be_throttle(self):
        backend, _ = make_backend(hp="namd1", be="lbm1")
        before = backend.sample(1.0)
        backend.apply_be_throttle(0.3)
        after = backend.sample(1.0)
        assert after.be_mem_bytes_s < before.be_mem_bytes_s
        with pytest.raises(ValueError):
            backend.apply_be_throttle(0.0)


class TestPrefetchKnob:
    def test_be_prefetch_cuts_be_traffic(self):
        # lbm BEs are waste-heavy streamers: squelching their prefetchers
        # removes useless link bytes.
        backend, _ = make_backend(hp="namd1", be="lbm1")
        before = backend.sample(1.0)
        backend.apply_be_prefetch(1.0)
        after = backend.sample(1.0)
        assert after.be_mem_bytes_s < before.be_mem_bytes_s

    def test_level_zero_restores_unthrottled_point(self):
        backend, server = make_backend()
        backend.apply_be_prefetch(0.75)
        assert server.prefetch is not None
        backend.apply_be_prefetch(0.0)
        assert server.prefetch is None

    def test_hp_core_never_throttled(self):
        backend, server = make_backend()
        backend.apply_be_prefetch(0.5)
        assert server.prefetch[0] == 0.0

    def test_level_validated(self):
        backend, _ = make_backend()
        with pytest.raises(ValueError):
            backend.apply_be_prefetch(1.5)
        with pytest.raises(ValueError):
            backend.apply_be_prefetch(-0.1)


class TestPerCoreFields:
    def test_arrays_cover_every_core(self):
        backend, server = make_backend(n_be=4)
        s = backend.sample(1.0)
        n = server.n_active
        assert len(s.core_ipcs) == n
        assert len(s.core_mem_bytes_s) == n
        assert len(s.core_occupancy_ways) == n

    def test_core_zero_matches_hp_aggregates(self):
        backend, _ = make_backend()
        s = backend.sample(1.0)
        assert s.core_ipcs[0] == pytest.approx(s.hp_ipc)
        assert s.core_mem_bytes_s[0] == pytest.approx(s.hp_mem_bytes_s)

    def test_core_traffic_sums_to_total(self):
        backend, _ = make_backend()
        s = backend.sample(1.0)
        assert sum(s.core_mem_bytes_s) == pytest.approx(
            s.total_mem_bytes_s, rel=1e-9
        )

    def test_occupancy_within_the_cache(self):
        backend, _ = make_backend(n_be=4)
        s = backend.sample(1.0)
        assert all(w >= 0.0 for w in s.core_occupancy_ways)
        assert sum(s.core_occupancy_ways) <= 20.0 + 1e-9


def _short(model: AppModel, budget: float) -> AppModel:
    """``model`` with every phase cut to ``budget`` instructions."""
    return AppModel(
        name=model.name,
        suite=model.suite,
        archetype=model.archetype,
        phases=tuple(
            dataclasses.replace(p, instructions=budget) for p in model.phases
        ),
    )


def _reference_sample(ref, last, period_s):
    """A naive ``SimulatedRdt.sample`` over the naive reference loop.

    Occupancy comes from ``steady_state().ways.tolist()`` and the total
    traffic from ``np.add.reduce`` over the per-core byte diffs.
    Returns the sample and the counter snapshot it ends on.
    """
    target = ref.time + period_s
    while ref.time < target and not ref.all_completed:
        ref.advance(target - ref.time)
    now = (
        ref.time,
        [a.total_instructions for a in ref.apps],
        [a.total_mem_bytes for a in ref.apps],
    )
    dt = now[0] - last[0]
    if dt <= 0:
        dt = 1e-9
    d_bytes = [x - y for x, y in zip(now[2], last[2])]
    cycles = dt * TABLE1_PLATFORM.freq_hz
    ipcs = tuple((x - y) / cycles for x, y in zip(now[1], last[1]))
    mem = tuple(x / dt for x in d_bytes)
    ways = ref.steady_state().ways.tolist()
    sample = PeriodSample(
        duration_s=dt,
        hp_ipc=ipcs[0],
        hp_mem_bytes_s=mem[0],
        total_mem_bytes_s=float(np.add.reduce(d_bytes)) / dt,
        hp_llc_occupancy_bytes=ways[0] * TABLE1_PLATFORM.way_bytes,
        core_ipcs=ipcs,
        core_mem_bytes_s=mem,
        core_occupancy_ways=tuple(ways),
    )
    return sample, now


def _sample_bits(sample: PeriodSample) -> dict:
    """Every field of a sample as exact bit patterns."""
    out = {}
    for f in dataclasses.fields(sample):
        value = getattr(sample, f.name)
        if isinstance(value, tuple):
            out[f.name] = tuple(float(v).hex() for v in value)
        else:
            out[f.name] = float(value).hex()
    return out


#: 8-10 core mixes, multi-phase apps among them.
ORACLE_MIXES = {
    "ten-core": ("milc1", ("gcc_base6",) * 9),
    "eight-multiphase": (
        "wrf1",
        ("lbm1", "ferret1", "omnetpp1", "bzip23", "namd1", "lbm1", "milc1"),
    ),
    "nine-mixed": (
        "omnetpp1",
        ("h264ref2", "lbm1", "povray1", "gcc_base4", "mcf1", "milc1",
         "lbm1", "namd1"),
    ),
}


class TestSampleOracle:
    """``sample`` ≡ a naive sampler over the naive event loop, bit for bit.

    From eight cores up NumPy's pairwise ``np.add.reduce`` rounds
    differently from a sequential sum, so the total traffic pins the
    reduction order. Between periods the partition (HP/BE and group
    splits), the MBA scale and the prefetch level change at random; the
    run ends with the degenerate 1e-9 s sample that follows the last
    completion.
    """

    @pytest.mark.parametrize("precision", ["exact", "fast"])
    @pytest.mark.parametrize("mix", sorted(ORACLE_MIXES))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_every_field_bitwise_equal(self, mix, precision, seed):
        hp, bes = ORACLE_MIXES[mix]
        models = [
            _short(get_app(name).with_name(f"{name}-{i}"), 5e9)
            for i, name in enumerate((hp, *bes))
        ]
        n = len(models)
        partition = PartitionSpec.unmanaged(n, 20)
        server = Server(TABLE1_PLATFORM, models, partition,
                        precision=precision)
        backend = SimulatedRdt(server)
        ref = _ReferenceServer(models, partition, precision)
        last = (0.0, [0.0] * n, [0.0] * n)
        rng = random.Random(seed)
        periods = 0
        while True:
            periods += 1
            finished = backend.finished
            assert finished == ref.all_completed
            period_s = rng.choice((0.05, 0.3, 1.0))
            want, last = _reference_sample(ref, last, period_s)
            got = backend.sample(period_s)
            assert _sample_bits(got) == _sample_bits(want), (
                f"period {periods}"
            )
            if finished:
                assert got.duration_s == 1e-9
                break
            knob = rng.choice(("ways", "groups", "mba", "prefetch", None))
            if knob == "ways":
                allocation = Allocation(hp_ways=rng.randint(1, 19),
                                        total_ways=20)
            elif knob == "groups":
                cut, ways = rng.randint(1, n - 1), rng.randint(1, 19)
                allocation = GroupAllocation(
                    total_ways=20,
                    cores=(tuple(range(cut)), tuple(range(cut, n))),
                    ways=(float(ways), 20.0 - ways),
                )
            if knob in ("ways", "groups"):
                backend.apply(allocation)
                ref.set_partition(allocation.to_partition(n))
            elif knob == "mba":
                scale = rng.choice((0.3, 0.6, 1.0))
                backend.apply_be_throttle(scale)
                ref.set_mba_scale(
                    None if scale >= 1.0 else [1.0] + [scale] * (n - 1)
                )
            elif knob == "prefetch":
                level = rng.choice((0.0, 0.5, 1.0))
                backend.apply_be_prefetch(level)
                ref.set_prefetch_levels(
                    None if level <= 0.0 else [0.0] + [level] * (n - 1)
                )
        assert periods > 10
