"""Bitwise oracle for the exact scalar solver's float-list kernels.

The exact solver's outer fixed-point loop, :func:`effective_ways` and
:func:`waterfill` run on Python float lists. Their contract is *bitwise*
agreement with the vectorised NumPy forms they replaced, which are frozen
below as the reference. The exact batch kernel shares the same
float-list sharing step, so the catalog-wide batch ≡ scalar parity test
cannot catch a drift in it on its own; this oracle compares both
kernels against the frozen NumPy reference. The reference's parameter
builder and latency root finder are frozen copies too
(:func:`ref_point_params`, :func:`ref_illinois_root`), so a change to
the live ones cannot hide behind a reference that calls them.

The strategies cover groups of 8 or more cores, a shared zone, finite
occupancy caps, MBA throttles, prefetch levels and ``pressure_theta !=
1``; :data:`FEATURE_CASES` pins each of them at least once regardless of
what hypothesis draws.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim.contention import (
    ConvergenceError,
    SteadyState,
    _point_params,
    solve_steady_state,
    solve_steady_state_batch,
)
from repro.sim.llc import _waterfill, effective_ways, waterfill
from repro.sim.membus import MemoryLink
from repro.sim.partition import CacheGroup, PartitionSpec
from repro.sim.platform import TABLE1_PLATFORM, PlatformConfig
from repro.workloads.app import Phase
from repro.workloads.catalog import app_names, catalog
from repro.workloads.mrc import ConstantMRC, KneeMRC, TabulatedMRC

_EPS = 1e-12


# -- frozen NumPy reference ----------------------------------------------


def ref_waterfill(total_ways, weights, caps):
    weights = np.asarray(weights, dtype=float)
    caps = np.asarray(caps, dtype=float)
    n = weights.size
    w_list = weights.tolist()
    cap_list = caps.tolist()
    result = [0.0] * n
    active = [w > _EPS and c > _EPS for w, c in zip(w_list, cap_list)]
    remaining = float(total_ways)
    for _ in range(n):
        if remaining <= _EPS or not any(active):
            break
        weight_sum = sum(w for w, a in zip(w_list, active) if a)
        overflow = False
        for i in range(n):
            if not active[i]:
                continue
            share = remaining * w_list[i] / weight_sum
            if result[i] + share >= cap_list[i] - 1e-9:
                overflow = True
        if not overflow:
            for i in range(n):
                if active[i]:
                    result[i] += remaining * w_list[i] / weight_sum
            remaining = 0.0
            break
        granted = 0.0
        for i in range(n):
            if not active[i]:
                continue
            share = remaining * w_list[i] / weight_sum
            if result[i] + share >= cap_list[i] - 1e-9:
                granted += cap_list[i] - result[i]
                result[i] = cap_list[i]
                active[i] = False
        remaining -= granted
    return np.asarray(result)


def ref_effective_ways(partition, pressures, caps, theta):
    pressures = np.asarray(pressures, dtype=float)
    caps = np.asarray(caps, dtype=float)
    weights = np.power(np.maximum(pressures, 0.0), theta)
    zone_share = {g.name: 0.0 for g in partition.groups}
    if partition.shared_ways > _EPS:
        group_weight = np.array(
            [weights[list(g.cores)].sum() for g in partition.groups]
        )
        total_weight = group_weight.sum()
        if total_weight > _EPS:
            for g, gw in zip(partition.groups, group_weight):
                zone_share[g.name] = partition.shared_ways * gw / total_weight
    out = np.zeros(partition.n_cores)
    for group in partition.groups:
        idx = np.fromiter(group.cores, dtype=int)
        capacity = group.ways + zone_share[group.name]
        group_caps = np.minimum(caps[idx], capacity)
        out[idx] = ref_waterfill(capacity, weights[idx], group_caps)
    return out


def ref_initial_ways(partition, caps):
    ways = np.zeros(partition.n_cores)
    for group in partition.groups:
        idx = list(group.cores)
        ways[idx] = group.ways / len(idx)
    ways += partition.shared_ways / partition.n_cores
    return np.minimum(ways, caps)


def ref_point_params(platform, phases, partition, mba_scale, prefetch=None):
    n = partition.n_cores
    if len(phases) != n:
        raise ValueError(f"expected {n} phases, got {len(phases)}")
    cpi_exe = np.array([p.cpi_exe for p in phases])
    apki = np.array([p.apki for p in phases]) / 1000.0
    blocking = np.array([p.blocking for p in phases])
    bytes_per_miss = platform.line_bytes * (
        1.0 + np.array([p.write_frac for p in phases])
    )
    caps = np.array(
        [
            p.occupancy_ways if p.occupancy_ways is not None else np.inf
            for p in phases
        ]
    )
    if prefetch is not None:
        level = np.asarray(prefetch, dtype=float)
        if level.shape != (n,):
            raise ValueError(f"prefetch must have length {n}")
        if np.any((level < 0.0) | (level > 1.0)):
            raise ValueError("prefetch levels must be in [0, 1]")
        hide = np.array([p.prefetch_hide for p in phases])
        waste = np.array([p.prefetch_waste for p in phases])
        blocking = blocking * (1.0 + hide * level)
        bytes_per_miss = bytes_per_miss * (1.0 - waste * level)
    if mba_scale is None:
        throttle = np.ones(n)
    else:
        throttle = np.asarray(mba_scale, dtype=float)
        if throttle.shape != (n,):
            raise ValueError(f"mba_scale must have length {n}")
        if np.any((throttle <= 0) | (throttle > 1.0)):
            raise ValueError("mba_scale entries must be in (0, 1]")
    return cpi_exe, apki, blocking, bytes_per_miss, caps, throttle


def ref_illinois_root(excess, guess, lat_floor, lat_ceil, gap_rtol=1e-7):
    if excess(lat_floor) <= 0.0:
        return lat_floor
    if excess(lat_ceil) >= 0.0:
        return lat_ceil
    lo = max(lat_floor, min(guess, lat_ceil))
    f_lo = excess(lo)
    if f_lo > 0.0:
        hi, f_hi = lo, f_lo
        for _ in range(60):
            lo, f_lo = hi, f_hi
            hi = min(hi * 1.5, lat_ceil)
            f_hi = excess(hi)
            if f_hi <= 0.0:
                break
    else:
        hi, f_hi = lo, f_lo
        for _ in range(60):
            hi, f_hi = lo, f_lo
            lo = max(lo / 1.5, lat_floor)
            f_lo = excess(lo)
            if f_lo >= 0.0:
                break
    for _ in range(60):
        if hi - lo < gap_rtol * hi:
            break
        mid = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if not lo < mid < hi:
            mid = 0.5 * (lo + hi)
        f_mid = excess(mid)
        if f_mid > 0.0:
            lo, f_lo = mid, f_mid
            f_hi *= 0.5
        elif f_mid < 0.0:
            hi, f_hi = mid, f_mid
            f_lo *= 0.5
        else:
            return mid
    return 0.5 * (lo + hi)


def ref_solve(
    platform: PlatformConfig,
    phases: Sequence[Phase],
    partition: PartitionSpec,
    *,
    mba_scale=None,
    prefetch=None,
    tol: float = 1e-6,
    max_iter: int = 800,
    damping: float = 0.5,
) -> SteadyState:
    n = partition.n_cores
    cpi_exe, apki, blocking, bytes_per_miss, caps, throttle = (
        ref_point_params(platform, phases, partition, mba_scale, prefetch)
    )
    link = MemoryLink.from_platform(platform)
    freq = platform.freq_hz

    def mrc_eval(ways):
        return np.array([p.mrc(w) for p, w in zip(phases, ways)])

    lat_floor = link.base_latency_cycles
    lat_ceil = link.max_latency_cycles
    blocking_list = blocking.tolist()
    throttle_list = throttle.tolist()
    bytes_per_miss_list = bytes_per_miss.tolist()
    cpi_exe_list = cpi_exe.tolist()
    inv_capacity = 1.0 / link.capacity_bytes
    u_cap = link.utilisation_cap
    gain = link.queue_gain
    q_exp = link.queue_exponent

    def solve_latency(mpi, guess):
        triples = [
            (freq * m * b, e, m * s / t)
            for m, b, e, s, t in zip(
                mpi.tolist(),
                bytes_per_miss_list,
                cpi_exe_list,
                blocking_list,
                throttle_list,
            )
        ]

        def excess(lat):
            demand = 0.0
            for c, e, s in triples:
                demand += c / (e + s * lat)
            u = demand * inv_capacity
            if u > u_cap:
                u = u_cap
            return lat_floor * (1.0 + gain * (u / (1.0 - u)) ** q_exp) - lat

        return ref_illinois_root(excess, guess, lat_floor, lat_ceil)

    ways = ref_initial_ways(partition, caps)
    latency = link.base_latency_cycles

    step = damping
    max_iter_budget = max_iter
    prev_delta = float("inf")
    iterations = 0
    while iterations < max_iter_budget:
        iterations += 1
        mr = mrc_eval(ways)
        mpi = apki * mr
        latency = solve_latency(mpi, latency)
        ipc = 1.0 / (cpi_exe + mpi * blocking * (latency / throttle))
        pressure = freq * ipc * mpi
        ways_target = ref_effective_ways(
            partition, pressure, caps, platform.pressure_theta
        )
        ways_next = (1 - step) * ways + step * ways_target
        ways_delta = float(np.max(np.abs(ways_next - ways)))
        ways = ways_next
        if ways_delta < tol * platform.llc_ways:
            break
        if ways_delta >= prev_delta:
            if step > 0.021:
                step = max(step * 0.7, 0.02)
            else:
                max_iter_budget = max_iter * 10
        prev_delta = ways_delta
    if iterations >= max_iter_budget:
        raise ConvergenceError(
            f"no convergence after {iterations} iterations "
            f"(latency={latency:.1f} cy)"
        )

    ways = np.minimum(ways, caps)
    mr = mrc_eval(ways)
    mpi = apki * mr
    latency = solve_latency(mpi, latency)
    cpi = cpi_exe + mpi * blocking * (latency / throttle)
    ipc = 1.0 / cpi
    bw = freq * ipc * mpi * bytes_per_miss
    demand = float(bw.sum())
    if demand > link.capacity_bytes:
        granted = ref_waterfill(
            link.capacity_bytes, np.ones(n), np.asarray(bw, dtype=float)
        )
        scale = np.where(bw > 0.0, granted / np.maximum(bw, 1e-30), 1.0)
        ipc = ipc * scale
        bw = granted
    return SteadyState(
        ipc=ipc,
        ways=ways,
        miss_ratio=mr,
        bw_bytes=bw,
        latency_cycles=float(latency),
        utilisation=float(bw.sum()) / link.capacity_bytes,
        iterations=iterations,
    )


# -- comparison helpers --------------------------------------------------


def array_bits(a: np.ndarray) -> tuple:
    return (a.dtype.str, a.shape, a.tobytes())


def state_bits(state: SteadyState) -> tuple:
    return (
        array_bits(state.ipc),
        array_bits(state.ways),
        array_bits(state.miss_ratio),
        array_bits(state.bw_bytes),
        repr(state.latency_cycles),
        repr(state.utilisation),
        state.iterations,
    )


def outcome(solve, *args, **kwargs):
    """A solve's bits, or the ConvergenceError message it raised."""
    try:
        return state_bits(solve(*args, **kwargs))
    except ConvergenceError as exc:
        return ("ConvergenceError", str(exc))


# -- strategies ----------------------------------------------------------

TOTAL_WAYS = 20
THETAS = (1.0, 0.8, 1.25, 0.5)

# Catalog phases plus curve shapes the catalog lacks (a knee, a
# tabulated curve) and a low-blocking streaming phase heavy enough to
# drive ten cores into bandwidth rationing.
_CATALOG = catalog()
PHASES = [p for name in app_names() for p in _CATALOG[name].phases] + [
    Phase("knee", 1e10, 0.7, 18.0, KneeMRC(0.9, 0.1, 6.0, 1.5)),
    Phase(
        "table",
        1e10,
        0.9,
        12.0,
        TabulatedMRC([0, 2, 5, 9, 20], [1.0, 0.8, 0.45, 0.3, 0.25]),
        occupancy_ways=8.0,
    ),
    Phase(
        "flood",
        1e10,
        0.3,
        80.0,
        ConstantMRC(1.0),
        blocking=0.05,
        write_frac=1.0,
    ),
]


@st.composite
def partitions(draw):
    n = draw(st.integers(1, 10))
    layout = draw(st.sampled_from(("one", "hp_be", "random")))
    if layout == "one" or n == 1:
        sizes = [n]
    elif layout == "hp_be":
        sizes = [1, n - 1]
    else:
        cuts = sorted(
            draw(st.sets(st.integers(1, n - 1), max_size=min(3, n - 1)))
        )
        sizes = [b - a for a, b in zip([0, *cuts], [*cuts, n])]
    order = draw(st.permutations(range(n)))
    shared = draw(st.sampled_from((0.0, 0.0, 1.0, 2.5, 4.0)))
    parts = draw(
        st.lists(
            st.integers(0, 5), min_size=len(sizes), max_size=len(sizes)
        ).filter(any)
    )
    exclusive = TOTAL_WAYS - shared
    groups = []
    start = 0
    for k, (size, part) in enumerate(zip(sizes, parts)):
        groups.append(
            CacheGroup(
                name=f"g{k}",
                cores=tuple(order[start : start + size]),
                ways=exclusive * part / sum(parts),
            )
        )
        start += size
    return PartitionSpec(
        n_cores=n,
        total_ways=TOTAL_WAYS,
        groups=tuple(groups),
        shared_ways=shared,
    )


caps_values = st.one_of(
    st.just(float("inf")),
    st.floats(min_value=0.0, max_value=25.0),
)
pressure_values = st.one_of(
    st.just(0.0),
    st.floats(min_value=-1e3, max_value=1e11),
)


@st.composite
def sharing_cases(draw):
    partition = draw(partitions())
    n = partition.n_cores
    pressures = draw(st.lists(pressure_values, min_size=n, max_size=n))
    caps = draw(st.lists(caps_values, min_size=n, max_size=n))
    theta = draw(st.sampled_from(THETAS))
    return partition, np.array(pressures), np.array(caps), theta


@st.composite
def solver_points(draw):
    partition = draw(partitions())
    n = partition.n_cores
    phases = []
    for _ in range(n):
        phase = draw(st.sampled_from(PHASES))
        if draw(st.integers(0, 3)) == 0:
            cap = draw(st.floats(min_value=0.25, max_value=15.0))
            phase = dataclasses.replace(phase, occupancy_ways=cap)
        phases.append(phase)
    mba = draw(
        st.none()
        | st.lists(
            st.sampled_from((1.0, 0.9, 0.5, 0.3)), min_size=n, max_size=n
        )
    )
    prefetch = draw(
        st.none()
        | st.lists(
            st.sampled_from((0.0, 0.25, 0.5, 1.0)), min_size=n, max_size=n
        )
    )
    theta = draw(st.sampled_from(THETAS))
    platform = dataclasses.replace(TABLE1_PLATFORM, pressure_theta=theta)
    return platform, tuple(phases), partition, mba, prefetch


def _cases_hold(case) -> None:
    platform, phases, partition, mba, prefetch = case
    kwargs = dict(mba_scale=mba, prefetch=prefetch)
    assert outcome(
        solve_steady_state, platform, phases, partition, **kwargs
    ) == outcome(ref_solve, platform, phases, partition, **kwargs)


# -- the oracle ----------------------------------------------------------


class TestSharingOracle:
    @given(
        st.floats(min_value=0.0, max_value=40.0),
        st.lists(pressure_values.map(abs), min_size=0, max_size=12),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_waterfill_bitwise(self, total, weights, data):
        caps = data.draw(
            st.lists(
                caps_values, min_size=len(weights), max_size=len(weights)
            )
        )
        assert array_bits(waterfill(total, weights, caps)) == array_bits(
            ref_waterfill(total, weights, caps)
        )

    @pytest.mark.parametrize("share", [1.0, 2.5, 5.0, 7.5])
    def test_waterfill_cap_slack_boundary(self, share):
        # A share landing exactly on ``cap - 1e-9`` pins the competitor.
        total = 2 * share
        for caps in ([share + 1e-9, np.inf], [np.inf, share + 1e-9]):
            assert array_bits(waterfill(total, [1.0, 1.0], caps)) == (
                array_bits(ref_waterfill(total, [1.0, 1.0], caps))
            )

    def test_lone_competitor_edges(self):
        # One competitor skips the loop's lists; every edge keeps its bits.
        edges = [0.0, -0.0, 1e-13, 1e-12, 2e-12, 0.5, 1.0, 3.0, 20.0,
                 1e300, np.inf, np.nan, -1.0]
        for total in edges:
            for weight in edges:
                for cap in edges:
                    got = np.asarray(_waterfill(total, [weight], [cap]))
                    assert array_bits(got) == array_bits(
                        ref_waterfill(total, [weight], [cap])
                    ), (total, weight, cap)

    @pytest.mark.parametrize("total", [0.0, 1e-12, 3.0, 20.0, np.inf, np.nan])
    def test_two_competitor_edges(self, total):
        edges = [0.0, 1e-12, 2e-12, 0.5, 1.5, 3.0, 1e300, np.inf, np.nan]
        for w0 in edges:
            for w1 in edges:
                for c0 in edges:
                    for c1 in edges:
                        weights, caps = [w0, w1], [c0, c1]
                        got = np.asarray(_waterfill(total, weights, caps))
                        assert array_bits(got) == array_bits(
                            ref_waterfill(total, weights, caps)
                        ), (total, weights, caps)

    @given(sharing_cases())
    @settings(max_examples=400, deadline=None)
    def test_effective_ways_bitwise(self, case):
        partition, pressures, caps, theta = case
        assert array_bits(
            effective_ways(partition, pressures, caps, theta)
        ) == array_bits(ref_effective_ways(partition, pressures, caps, theta))

    @pytest.mark.parametrize("theta", THETAS)
    def test_wide_groups_with_shared_zone(self, theta):
        # Nine- and ten-core groups sum pairwise in NumPy: the float core
        # must keep that reduction for the zone split.
        rng = np.random.default_rng(7)
        for partition in (
            PartitionSpec.hp_be(3, 10, 20, overlap_ways=4),
            PartitionSpec(
                n_cores=10,
                total_ways=20,
                groups=(CacheGroup("all", tuple(range(10)), 17.5),),
                shared_ways=2.5,
            ),
        ):
            for _ in range(200):
                pressures = rng.random(10) * 10.0 ** rng.uniform(-3, 10, 10)
                caps = np.where(
                    rng.random(10) < 0.3, rng.random(10) * 6, np.inf
                )
                assert array_bits(
                    effective_ways(partition, pressures, caps, theta)
                ) == array_bits(
                    ref_effective_ways(partition, pressures, caps, theta)
                )


# One deterministic point per feature the strategies must cover.
FEATURE_CASES = {
    "nine_core_be_group_shared_zone": (
        TABLE1_PLATFORM,
        (_CATALOG["mcf1"].phases[0],) + (_CATALOG["lbm1"].phases[0],) * 9,
        PartitionSpec.hp_be(4, 10, 20, overlap_ways=3),
        None,
        None,
    ),
    "occupancy_caps_theta": (
        dataclasses.replace(TABLE1_PLATFORM, pressure_theta=0.8),
        tuple(p for p in PHASES if p.occupancy_ways is not None)[:6],
        PartitionSpec.unmanaged(6, 20),
        None,
        None,
    ),
    "mba_and_prefetch": (
        TABLE1_PLATFORM,
        tuple(PHASES[i] for i in range(0, 40, 5)),
        PartitionSpec.hp_be(6, 8, 20),
        (1.0, 0.5, 0.9, 0.3, 1.0, 0.7, 0.5, 1.0),
        (0.0, 1.0, 0.5, 0.25, 0.0, 1.0, 0.75, 0.5),
    ),
    "bandwidth_rationing": (
        TABLE1_PLATFORM,
        (PHASES[-1],) * 10,
        PartitionSpec.unmanaged(10, 20),
        None,
        None,
    ),
    # The admission search's commonest shape: an HP and nine identical BE
    # clones in two groups, bare and with MBA/prefetch knobs on the BEs.
    "hp_nine_be_clones": (
        TABLE1_PLATFORM,
        (_CATALOG["omnetpp1"].phases[0],) + (_CATALOG["lbm1"].phases[0],) * 9,
        PartitionSpec.hp_be(15, 10, 20),
        None,
        None,
    ),
    "hp_nine_be_clones_knobs": (
        TABLE1_PLATFORM,
        (_CATALOG["omnetpp1"].phases[0],) + (_CATALOG["lbm1"].phases[0],) * 9,
        PartitionSpec.hp_be(17, 10, 20),
        (1.0,) + (0.5,) * 9,
        (0.0,) + (2.0 / 3.0,) * 9,
    ),
    # Phase fields that are ints or NumPy scalars rather than floats.
    "int_and_numpy_fields": (
        TABLE1_PLATFORM,
        (
            Phase("ints", 10**10, 1, 20, ConstantMRC(0.5), blocking=1,
                  write_frac=0, occupancy_ways=3),
            Phase("np", np.float64(1e10), np.float64(0.8), np.float64(12.5),
                  KneeMRC(0.9, 0.1, 6.0, 1.5), blocking=np.float64(0.6),
                  write_frac=np.float64(0.25),
                  occupancy_ways=np.float64(9.5),
                  prefetch_hide=np.float64(0.5),
                  prefetch_waste=np.float64(0.25)),
            _CATALOG["mcf1"].phases[0],
        ),
        PartitionSpec.unmanaged(3, 20),
        (1.0, np.float64(0.75), 1),
        (0, 0.5, np.float64(1.0)),
    ),
}


class TestSolverOracle:
    @pytest.mark.parametrize("name", sorted(FEATURE_CASES))
    def test_feature_case_bitwise(self, name):
        _cases_hold(FEATURE_CASES[name])

    def test_rationing_case_rations(self):
        platform, phases, partition, *_ = FEATURE_CASES["bandwidth_rationing"]
        state = solve_steady_state(platform, phases, partition)
        assert state.utilisation == pytest.approx(1.0)

    @given(solver_points())
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_scalar_solver_bitwise(self, case):
        _cases_hold(case)

    @given(
        st.lists(solver_points(), min_size=1, max_size=3)
    )
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_exact_batch_kernel_bitwise(self, cases):
        # The batch kernel takes one platform; use the first point's.
        platform = cases[0][0]
        points = [case[1:] for case in cases]
        expected = [
            outcome(
                ref_solve, platform, phases, part, mba_scale=mba, prefetch=pf
            )
            for phases, part, mba, pf in points
        ]
        if any(e[0] == "ConvergenceError" for e in expected):
            with pytest.raises(ConvergenceError):
                solve_steady_state_batch(platform, points)
            return
        got = solve_steady_state_batch(platform, points)
        assert [state_bits(s) for s in got] == expected


# -- the parameter builder -----------------------------------------------

_PARAM_PHASES = (
    _CATALOG["mcf1"].phases[0],
    PHASES[-2],  # tabulated curve with an occupancy cap
    Phase("pf", 1e10, 0.8, 15.0, ConstantMRC(0.7), prefetch_hide=0.4,
          prefetch_waste=0.3),
)
_INT_PHASES = tuple(
    Phase(f"int{i}", 10**10, 1, 10 + i, ConstantMRC(0.5), blocking=1,
          write_frac=0, occupancy_ways=2 + i)
    for i in range(3)
)
_NAN = float("nan")

#: Knob values for both ``mba_scale`` and ``prefetch``: valid, wrong
#: length or shape, out of range, zero, NaN (which passes) and infinity.
KNOB_VALUES = [
    None,
    (1.0, 0.5, 0.25),
    [1.0, 0.5, 0.25],
    np.array([1.0, 0.5, 0.25]),
    (1, 1, 1),
    (1.0, 1.0),
    (1.0,) * 4,
    0.5,
    [[1.0, 1.0, 1.0]],
    (1.0, 1.5, 1.0),
    (1.0, -0.25, 1.0),
    (0.0, 1.0, 1.0),
    (-0.0, 0.5, 1.0),
    (_NAN, 1.0, 0.5),
    (_NAN,) * 3,
    (1.0, float("inf"), 0.5),
]


def params_outcome(build, phases, mba, prefetch):
    """The six per-core columns as reprs, or the error a build raised."""
    try:
        params = build(
            TABLE1_PLATFORM, phases, PartitionSpec.unmanaged(3, 20), mba,
            prefetch,
        )
    except (ValueError, TypeError) as exc:
        return (type(exc).__name__, str(exc))
    return tuple(
        tuple(repr(v) for v in np.asarray(col).tolist()) for col in params
    )


class TestPointParamsOracle:
    """``_point_params`` keeps the frozen builder's values and checks."""

    @pytest.mark.parametrize("phases", [_PARAM_PHASES, _INT_PHASES])
    @pytest.mark.parametrize("knob", ["mba_scale", "prefetch"])
    @pytest.mark.parametrize("value", range(len(KNOB_VALUES)))
    def test_knob_parity(self, phases, knob, value):
        levels = KNOB_VALUES[value]
        mba, prefetch = (levels, None) if knob == "mba_scale" else (
            None, levels
        )
        assert params_outcome(
            _point_params, phases, mba, prefetch
        ) == params_outcome(ref_point_params, phases, mba, prefetch)

    @pytest.mark.parametrize("mba", [(1.0, 2.0, 1.0), (1.0, 1.0), None])
    @pytest.mark.parametrize("prefetch", [(1.0, -1.0, 0.0), (0.0,), None])
    def test_check_order(self, mba, prefetch):
        # The prefetch levels are checked before the MBA throttles.
        assert params_outcome(
            _point_params, _PARAM_PHASES, mba, prefetch
        ) == params_outcome(ref_point_params, _PARAM_PHASES, mba, prefetch)

    @pytest.mark.parametrize("n", [2, 4])
    def test_phase_count(self, n):
        phases = (_PARAM_PHASES * 2)[:n]
        got = params_outcome(_point_params, phases, None, None)
        assert got == params_outcome(ref_point_params, phases, None, None)
        assert got == ("ValueError", f"expected 3 phases, got {n}")

    def test_nan_levels_pass(self):
        got = params_outcome(_point_params, _PARAM_PHASES, (_NAN,) * 3, None)
        assert got[0] != "ValueError"
        got = params_outcome(_point_params, _PARAM_PHASES, None, (_NAN,) * 3)
        assert got[0] != "ValueError"
