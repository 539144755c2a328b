"""Bitwise oracle for the fast kernel's layout-grouped sharing step.

The ``precision="fast"`` kernel groups its lanes by core-group layout
(core count plus each group's cores) and runs one sharing step per layout
per iteration, carrying every lane's group ways and shared ways as
arrays. Per-lane arithmetic is the same as when it grouped lanes by
partition key, one sharing call per partition. That kernel is frozen
below, with the batched sharing functions it called, as the reference:
every fast result must stay byte-identical to it. The batched latency
root it called, which probed both boundaries before each lane's guess,
is frozen too (``ref_illinois_root_batch``).

The strategies mix, in one batch, DICER ladders (one HP/BE layout, many
HP way counts), UM and CT partitions, overlap partitions next to
zone-less ones of the same layout, other multi-group layouts with
permuted cores, ragged core counts, MBA scales, prefetch levels,
tabulated curves, occupancy caps and ``pressure_theta != 1``.
:data:`FEATURE_BATCH` holds all of them at once regardless of what
hypothesis draws, plus a point that rations bandwidth. The module also
pins the sharing step's work: one call per layout with live lanes per
round of the kernel's vectorised head.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim import contention
from repro.sim.contention import (
    _FAST_LANE_CAP,
    ConvergenceError,
    SteadyState,
    _parse_points,
    _solve_batch_fast,
    solve_steady_state_batch,
    solver_counters,
)
from repro.sim.membus import MemoryLink
from repro.sim.partition import CacheGroup, PartitionSpec
from repro.sim.platform import TABLE1_PLATFORM, PlatformConfig
from repro.workloads.app import Phase
from repro.workloads.catalog import app_names, catalog
from repro.workloads.mrc import ConstantMRC, KneeMRC, TabulatedMRC

_EPS = 1e-12
SOLVE = dict(tol=1e-6, max_iter=800, damping=0.5)


# -- frozen per-partition-key kernel --------------------------------------


def ref_illinois_root_batch(excess_b, guess, lat_floor, lat_ceil, gap_rtol=1e-7):
    """The batched latency root before it took the guess first.

    Probes the floor on every lane and the ceiling on the rest, then
    brackets each remaining lane around its clamped guess and closes in
    with masked Illinois steps.
    """
    n_lanes = guess.size
    out = np.empty(n_lanes)
    lanes = np.arange(n_lanes)

    f_floor = excess_b(np.full(n_lanes, lat_floor), lanes)
    at_floor = f_floor <= 0.0
    out[at_floor] = lat_floor
    rem = lanes[~at_floor]
    if rem.size:
        f_ceil = excess_b(np.full(rem.size, lat_ceil), rem)
        at_ceil = f_ceil >= 0.0
        out[rem[at_ceil]] = lat_ceil
        rem = rem[~at_ceil]
    if rem.size == 0:
        return out

    lo = np.maximum(lat_floor, np.minimum(guess[rem], lat_ceil))
    f_lo = excess_b(lo, rem)
    hi = lo.copy()
    f_hi = f_lo.copy()
    up_mask = f_lo > 0.0
    expanding = np.nonzero(up_mask)[0]
    for _ in range(60):
        if expanding.size == 0:
            break
        lo[expanding] = hi[expanding]
        f_lo[expanding] = f_hi[expanding]
        hi[expanding] = np.minimum(hi[expanding] * 1.5, lat_ceil)
        f_hi[expanding] = excess_b(hi[expanding], rem[expanding])
        expanding = expanding[f_hi[expanding] > 0.0]
    shrinking = np.nonzero(~up_mask)[0]
    for _ in range(60):
        if shrinking.size == 0:
            break
        hi[shrinking] = lo[shrinking]
        f_hi[shrinking] = f_lo[shrinking]
        lo[shrinking] = np.maximum(lo[shrinking] / 1.5, lat_floor)
        f_lo[shrinking] = excess_b(lo[shrinking], rem[shrinking])
        shrinking = shrinking[f_lo[shrinking] < 0.0]

    exact = np.zeros(rem.size, dtype=bool)
    exact_val = np.empty(rem.size)
    running = np.arange(rem.size)
    for _ in range(60):
        running = running[hi[running] - lo[running] >= gap_rtol * hi[running]]
        if running.size == 0:
            break
        br_lo = lo[running]
        br_hi = hi[running]
        fl = f_lo[running]
        fh = f_hi[running]
        mid = (br_lo * fh - br_hi * fl) / (fh - fl)
        off = ~((br_lo < mid) & (mid < br_hi))
        mid[off] = 0.5 * (br_lo[off] + br_hi[off])
        f_mid = excess_b(mid, rem[running])
        pos = f_mid > 0.0
        neg = f_mid < 0.0
        zero = ~(pos | neg)
        zi = running[zero]
        exact[zi] = True
        exact_val[zi] = mid[zero]
        pi = running[pos]
        lo[pi] = mid[pos]
        f_lo[pi] = f_mid[pos]
        f_hi[pi] *= 0.5
        ni = running[neg]
        hi[ni] = mid[neg]
        f_hi[ni] = f_mid[neg]
        f_lo[ni] *= 0.5
        running = running[~zero]
    res = 0.5 * (lo + hi)
    res[exact] = exact_val[exact]
    out[rem] = res
    return out


def ref_waterfill_batch(total_ways, weights, caps):
    n_lanes, k = weights.shape
    remaining = np.broadcast_to(
        np.asarray(total_ways, dtype=float), (n_lanes,)
    ).copy()
    result = np.zeros((n_lanes, k))
    active = (weights > _EPS) & (caps > _EPS)
    for _ in range(k):
        live = np.nonzero((remaining > _EPS) & active.any(axis=1))[0]
        if live.size == 0:
            break
        w_act = np.where(active[live], weights[live], 0.0)
        weight_sum = np.zeros(live.size)
        for j in range(k):
            weight_sum = weight_sum + w_act[:, j]
        share = remaining[live, None] * w_act / weight_sum[:, None]
        would_cap = active[live] & (
            result[live] + share >= caps[live] - 1e-9
        )
        overflow = would_cap.any(axis=1)
        fin = live[~overflow]
        if fin.size:
            result[fin] += share[~overflow]
            remaining[fin] = 0.0
        ov = live[overflow]
        if ov.size:
            capped = would_cap[overflow]
            granted = np.where(capped, caps[ov] - result[ov], 0.0)
            granted_sum = np.zeros(ov.size)
            for j in range(k):
                granted_sum = granted_sum + granted[:, j]
            result[ov] = np.where(capped, caps[ov], result[ov])
            active[ov] &= ~capped
            remaining[ov] -= granted_sum
    return result


def ref_effective_ways_batch(partition, pressures, caps, theta):
    n = partition.n_cores
    n_lanes = pressures.shape[0]
    if caps.ndim == 1:
        caps = np.broadcast_to(caps, (n_lanes, n))
    weights = np.power(np.maximum(pressures, 0.0), theta)
    zone_share = {g.name: np.zeros(n_lanes) for g in partition.groups}
    if partition.shared_ways > _EPS:
        group_weight = []
        for g in partition.groups:
            gw = np.zeros(n_lanes)
            for core in g.cores:
                gw = gw + weights[:, core]
            group_weight.append(gw)
        total_weight = np.zeros(n_lanes)
        for gw in group_weight:
            total_weight = total_weight + gw
        live = total_weight > _EPS
        safe = np.where(live, total_weight, 1.0)
        for g, gw in zip(partition.groups, group_weight):
            zone_share[g.name] = np.where(
                live, partition.shared_ways * gw / safe, 0.0
            )
    out = np.zeros((n_lanes, n))
    for group in partition.groups:
        idx = np.fromiter(group.cores, dtype=int)
        capacity = group.ways + zone_share[group.name]
        group_caps = np.minimum(caps[:, idx], capacity[:, None])
        out[:, idx] = ref_waterfill_batch(
            capacity, weights[:, idx], group_caps
        )
    return out


def ref_solve_batch_fast(
    platform: PlatformConfig,
    parsed: list[tuple],
    *,
    tol: float,
    max_iter: int,
    damping: float,
) -> list[SteadyState]:
    n_points = len(parsed)
    n_cores = np.array([partition.n_cores for _, partition, _, _ in parsed])
    width = int(n_cores.max())

    slot_of: dict[int, int] = {}
    uidx = np.empty(n_points, dtype=np.int64)
    compact: list[tuple] = []
    for i, (phases, _partition, _mba, params) in enumerate(parsed):
        j = slot_of.get(id(params))
        if j is None:
            j = len(compact)
            slot_of[id(params)] = j
            compact.append((phases, params))
        uidx[i] = j
    n_u = len(compact)
    u_solver = np.zeros((n_u, 5 * width))
    u_solver[:, :width] = 1.0
    u_solver[:, 4 * width :] = 1.0
    u_caps = np.full((n_u, width), np.inf)
    u_curve = np.ones((n_u, 7 * width))
    u_curve[:, 4 * width : 6 * width] = 0.0
    tab_slots: list[tuple[int, int, object]] = []
    fused_rows: list[int] = []
    fused_cols: list[int] = []
    fused_vals: list[tuple] = []
    fp_cache: dict[int, tuple | None] = {}
    _unset = object()
    for j, (phases, params) in enumerate(compact):
        cpi_exe, apki, blocking, bytes_per_miss, caps, throttle = params
        k = len(phases)
        u_solver[j, :k] = cpi_exe
        u_solver[j, width : width + k] = apki
        u_solver[j, 2 * width : 2 * width + k] = blocking
        u_solver[j, 3 * width : 3 * width + k] = bytes_per_miss
        u_solver[j, 4 * width : 4 * width + k] = throttle
        u_caps[j, :k] = caps
        for c, phase in enumerate(phases):
            curve = phase.mrc
            fp = fp_cache.get(id(curve), _unset)
            if fp is _unset:
                fp = curve.fused_fast_params()
                fp_cache[id(curve)] = fp
            if fp is None:
                tab_slots.append((j, c, curve))
            else:
                fused_rows.append(j)
                fused_cols.append(c)
                fused_vals.append(fp)
    if fused_vals:
        fv = np.array(fused_vals)
        jj = np.array(fused_rows)
        cc = np.array(fused_cols)
        u_curve[jj, cc] = fv[:, 4]
        u_curve[jj, width + cc] = fv[:, 5]
        u_curve[jj, 2 * width + cc] = fv[:, 2]
        u_curve[jj, 3 * width + cc] = fv[:, 3]
        u_curve[jj, 4 * width + cc] = fv[:, 0]
        u_curve[jj, 5 * width + cc] = fv[:, 1]
        u_curve[jj, 6 * width + cc] = fv[:, 6]
    solver_plane = u_solver[uidx]
    caps2 = u_caps[uidx]
    curve_plane = u_curve[uidx]
    cpi2 = solver_plane[:, :width]
    apki2 = solver_plane[:, width : 2 * width]
    blk2 = solver_plane[:, 2 * width : 3 * width]
    bpm2 = solver_plane[:, 3 * width : 4 * width]
    thr2 = solver_plane[:, 4 * width :]

    tab_groups: list[tuple] = []
    if tab_slots:
        by_curve: dict[int, tuple] = {}
        for j, c, curve in tab_slots:
            rows = np.nonzero(uidx == j)[0]
            entry = by_curve.setdefault(id(curve), (curve, [], []))
            entry[1].append(rows)
            entry[2].append(np.full(rows.size, c, dtype=np.int64))
        tab_groups = [
            (curve, np.concatenate(rs), np.concatenate(cs))
            for curve, rs, cs in by_curve.values()
        ]

    link = MemoryLink.from_platform(platform)
    freq = platform.freq_hz
    lat_floor = link.base_latency_cycles
    lat_ceil = link.max_latency_cycles
    inv_capacity = 1.0 / link.capacity_bytes
    u_cap = link.utilisation_cap
    gain = link.queue_gain
    q_exp = link.queue_exponent
    theta = platform.pressure_theta
    delta_tol = tol * platform.llc_ways

    mr2 = np.zeros((n_points, width))

    def eval_mrc(lane_mask: np.ndarray | None) -> None:
        if lane_mask is None:
            w = ways2
            cp = curve_plane
        else:
            w = ways2[lane_mask]
            cp = curve_plane[lane_mask]
        z = (w - cp[:, :width]) / cp[:, width : 2 * width]
        kp = 1.0 - 1.0 / (1.0 + np.exp(-np.clip(z, -40.0, 40.0)))
        kp = np.where(z > 40.0, 0.0, np.where(z < -40.0, 1.0, kp))
        blend = cp[:, 2 * width : 3 * width]
        exp_part = np.exp(-w / cp[:, 3 * width : 4 * width])
        captured = blend * exp_part + (1.0 - blend) * kp
        value = (
            cp[:, 4 * width : 5 * width]
            + cp[:, 5 * width : 6 * width] * captured
        )
        at1 = cp[:, 6 * width :]
        value = np.where(w < 1.0, 1.0 + (at1 - 1.0) * w, value)
        if lane_mask is None:
            np.clip(value, 0.0, 1.0, out=mr2)
        else:
            mr2[lane_mask] = np.clip(value, 0.0, 1.0)
        for curve, rows, cols in tab_groups:
            if lane_mask is None:
                r, c = rows, cols
            else:
                take = lane_mask[rows]
                r = rows[take]
                if r.size == 0:
                    continue
                c = cols[take]
            mr2[r, c] = curve.eval_many_fast(ways2[r, c])

    def make_excess(c2, e2, s2):
        w = c2.shape[1]
        stacked = np.concatenate((c2, e2, s2), axis=1)

        def excess_b(lat: np.ndarray, sub: np.ndarray) -> np.ndarray:
            p = stacked[sub]
            contrib = p[:, :w] / (p[:, w : 2 * w] + p[:, 2 * w :] * lat[:, None])
            demand = np.zeros(lat.size)
            for j in range(width):
                demand = demand + contrib[:, j]
            u = np.minimum(demand * inv_capacity, u_cap)
            ratio = u / (1.0 - u)
            return lat_floor * (1.0 + gain * np.power(ratio, q_exp)) - lat

        return excess_b

    part_slots: dict[tuple, tuple[PartitionSpec, list[int]]] = {}
    for i, (_phases, partition, _mba, _params) in enumerate(parsed):
        entry = part_slots.setdefault(partition.key(), (partition, []))
        entry[1].append(i)
    part_groups = [
        (partition, np.array(rows)) for partition, rows in part_slots.values()
    ]

    ways2 = np.zeros((n_points, width))
    for partition, rows in part_groups:
        nc = partition.n_cores
        base = np.zeros(nc)
        for group in partition.groups:
            idx = list(group.cores)
            base[idx] = group.ways / len(idx)
        base += partition.shared_ways / nc
        ways2[rows, :nc] = np.minimum(base[None, :], caps2[rows, :nc])

    latency = np.full(n_points, lat_floor)
    step = np.full(n_points, damping)
    budget = np.full(n_points, max_iter, dtype=np.int64)
    prev_delta = np.full(n_points, np.inf)
    iterations = np.zeros(n_points, dtype=np.int64)
    active = np.ones(n_points, dtype=bool)
    row_of = np.empty(n_points, dtype=np.int64)

    while True:
        act = np.nonzero(active)[0]
        if act.size == 0:
            break
        iterations[act] += 1
        all_active = act.size == n_points
        eval_mrc(None if all_active else active)
        sp = solver_plane if all_active else solver_plane[act]
        cpi_a = sp[:, :width]
        blk_a = sp[:, 2 * width : 3 * width]
        thr_a = sp[:, 4 * width :]
        mpi_a = sp[:, width : 2 * width] * (mr2 if all_active else mr2[act])
        excess_b = make_excess(
            (freq * mpi_a) * sp[:, 3 * width : 4 * width],
            cpi_a,
            (mpi_a * blk_a) / thr_a,
        )
        lat_a = ref_illinois_root_batch(
            excess_b, latency[act], lat_floor, lat_ceil, gap_rtol=1e-4
        )
        latency[act] = lat_a
        ipc_a = 1.0 / (cpi_a + mpi_a * blk_a * (lat_a[:, None] / thr_a))

        pressure_a = freq * ipc_a * mpi_a
        ways_a = ways2[act]
        target_a = ways_a.copy()
        row_of[act] = np.arange(act.size)
        for partition, rows in part_groups:
            sel = rows[active[rows]]
            if sel.size == 0:
                continue
            r = row_of[sel]
            nc = partition.n_cores
            target_a[r, :nc] = ref_effective_ways_batch(
                partition, pressure_a[r, :nc], caps2[sel, :nc], theta
            )
        step_a = step[act]
        ways_next = (1 - step_a[:, None]) * ways_a + step_a[:, None] * target_a
        delta_a = np.max(np.abs(ways_next - ways_a), axis=1)
        ways2[act] = ways_next

        conv = delta_a < delta_tol
        ncv = ~conv
        worse = ncv & (delta_a >= prev_delta[act])
        shrink = worse & (step_a > 0.021)
        floored = worse & ~shrink
        new_step = step_a.copy()
        new_step[shrink] = np.maximum(step_a[shrink] * 0.7, 0.02)
        step[act] = new_step
        if floored.any():
            budget[act[floored]] = max_iter * 10
        pd = prev_delta[act]
        pd[ncv] = delta_a[ncv]
        prev_delta[act] = pd
        active[act[conv]] = False
        blown = iterations[act] >= budget[act]
        if blown.any():
            i = int(act[np.nonzero(blown)[0][0]])
            raise ConvergenceError(
                f"fast lane {i}: no convergence after {int(iterations[i])} "
                f"iterations (latency={latency[i]:.1f} cy, precision=fast)"
            )

    np.minimum(ways2, caps2, out=ways2)
    eval_mrc(None)
    mpi2 = apki2 * mr2
    excess_b = make_excess(
        (freq * mpi2) * bpm2, cpi2, (mpi2 * blk2) / thr2
    )
    latency = ref_illinois_root_batch(excess_b, latency, lat_floor, lat_ceil)
    ipc2 = 1.0 / (cpi2 + mpi2 * blk2 * (latency[:, None] / thr2))
    bw2 = freq * ipc2 * mpi2 * bpm2

    demand = np.zeros(n_points)
    for j in range(width):
        demand = demand + bw2[:, j]
    over = np.nonzero(demand > link.capacity_bytes)[0]
    if over.size:
        for nc in np.unique(n_cores[over]):
            sel = over[n_cores[over] == nc]
            bw_sel = bw2[sel, :nc]
            granted = ref_waterfill_batch(
                link.capacity_bytes, np.ones((sel.size, nc)), bw_sel
            )
            scale = np.where(
                bw_sel > 0.0, granted / np.maximum(bw_sel, 1e-30), 1.0
            )
            ipc2[sel, :nc] = ipc2[sel, :nc] * scale
            bw2[sel, :nc] = granted
            granted_sum = np.zeros(sel.size)
            for j in range(nc):
                granted_sum = granted_sum + granted[:, j]
            demand[sel] = granted_sum

    util = demand / link.capacity_bytes
    lat_list = latency.tolist()
    util_list = util.tolist()
    iter_list = iterations.tolist()

    ipc_c = ipc2.copy()
    ways_c = ways2.copy()
    mr_c = mr2.copy()
    bw_c = bw2.copy()
    out = []
    for i, (_phases, partition, _mba, _params) in enumerate(parsed):
        nc = partition.n_cores
        out.append(
            SteadyState(
                ipc=ipc_c[i, :nc],
                ways=ways_c[i, :nc],
                miss_ratio=mr_c[i, :nc],
                bw_bytes=bw_c[i, :nc],
                latency_cycles=lat_list[i],
                utilisation=util_list[i],
                iterations=iter_list[i],
            )
        )
    return out


# -- comparison helpers --------------------------------------------------


def state_bits(state: SteadyState) -> tuple:
    return (
        state.ipc.tobytes(),
        state.ways.tobytes(),
        state.miss_ratio.tobytes(),
        state.bw_bytes.tobytes(),
        repr(state.latency_cycles),
        repr(state.utilisation),
        state.iterations,
    )


def outcome(kernel, platform, parsed):
    """A kernel's per-lane bits, or the ConvergenceError it raised."""
    try:
        return [state_bits(s) for s in kernel(platform, parsed, **SOLVE)]
    except ConvergenceError as exc:
        return ("ConvergenceError", str(exc))


def assert_matches_frozen(platform: PlatformConfig, points: list) -> None:
    parsed = _parse_points(platform, points)
    assert outcome(_solve_batch_fast, platform, parsed) == outcome(
        ref_solve_batch_fast, platform, parsed
    )


# -- strategies ----------------------------------------------------------

TOTAL_WAYS = 20
THETAS = (1.0, 0.8, 1.25)

_CATALOG = catalog()
PHASES = [_CATALOG[name].phases[0] for name in app_names()[::4]] + [
    Phase("knee", 1e10, 0.7, 18.0, KneeMRC(0.9, 0.1, 6.0, 1.5)),
    Phase(
        "table",
        1e10,
        0.9,
        12.0,
        TabulatedMRC([0, 2, 5, 9, 20], [1.0, 0.8, 0.45, 0.3, 0.25]),
        occupancy_ways=8.0,
    ),
]
# Heavy enough that ten of it drive the link into bandwidth rationing.
FLOOD = Phase(
    "flood",
    1e10,
    0.3,
    80.0,
    ConstantMRC(1.0),
    blocking=0.05,
    write_frac=1.0,
)


def split_ways(cores, parts, shared):
    """A partition of ``cores`` (core tuples) by integer way ``parts``."""
    exclusive = TOTAL_WAYS - shared
    return PartitionSpec(
        n_cores=sum(len(c) for c in cores),
        total_ways=TOTAL_WAYS,
        groups=tuple(
            CacheGroup(f"g{k}", c, exclusive * part / sum(parts))
            for k, (c, part) in enumerate(zip(cores, parts))
        ),
        shared_ways=shared,
    )


@st.composite
def layout_partitions(draw, n):
    """Several partitions of ``n`` cores that share one core-group layout."""
    kind = draw(st.sampled_from(("ladder", "um_ct", "groups")))
    if n == 1:
        return [PartitionSpec.unmanaged(1, TOTAL_WAYS)]
    if kind == "ladder":
        # A DICER ladder, some rungs with an overlap zone.
        rungs = draw(
            st.lists(st.integers(1, 16), min_size=1, max_size=6, unique=True)
        )
        return [
            PartitionSpec.hp_be(
                k,
                n,
                TOTAL_WAYS,
                overlap_ways=draw(st.sampled_from((0, 0, 1, 3))),
            )
            for k in rungs
        ]
    if kind == "um_ct":
        return [
            PartitionSpec.unmanaged(n, TOTAL_WAYS),
            PartitionSpec.hp_be(draw(st.integers(1, 19)), n, TOTAL_WAYS),
        ]
    cuts = sorted(
        draw(st.sets(st.integers(1, n - 1), max_size=min(3, n - 1)))
    )
    sizes = [b - a for a, b in zip([0, *cuts], [*cuts, n])]
    order = draw(st.permutations(range(n)))
    starts = [0, *np.cumsum(sizes).tolist()]
    cores = [tuple(order[a:b]) for a, b in zip(starts, starts[1:])]
    splits = draw(
        st.lists(
            st.tuples(
                st.lists(
                    st.integers(0, 5), min_size=len(cores), max_size=len(cores)
                ).filter(any),
                st.sampled_from((0.0, 0.0, 1.0, 2.5)),
            ),
            min_size=1,
            max_size=4,
        )
    )
    return [split_ways(cores, parts, shared) for parts, shared in splits]


@st.composite
def families(draw):
    """One workload's points under the partitions of one layout."""
    n = draw(st.integers(1, 10))
    phases = []
    for _ in range(n):
        phase = draw(st.sampled_from(PHASES))
        if draw(st.integers(0, 4)) == 0:
            cap = draw(st.floats(min_value=0.5, max_value=12.0))
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
    return [
        (tuple(phases), part, mba, prefetch)
        for part in draw(layout_partitions(n))
    ]


@st.composite
def mixed_batches(draw):
    drawn = draw(st.lists(families(), min_size=1, max_size=3))
    points = [point for family in drawn for point in family]
    theta = draw(st.sampled_from(THETAS))
    platform = dataclasses.replace(TABLE1_PLATFORM, pressure_theta=theta)
    return platform, draw(st.permutations(points))


def _feature_batch() -> list:
    mcf = _CATALOG["mcf1"].phases[0]
    lbm = _CATALOG["lbm1"].phases[0]
    table = PHASES[-1]
    ten = (mcf,) + (lbm,) * 9
    six = (table, mcf, PHASES[-2], lbm, table, mcf)
    three_groups = ((4, 0), (2,), (1, 5, 3))
    points = [
        (ten, PartitionSpec.hp_be(k, 10, TOTAL_WAYS)) for k in range(9, 0, -2)
    ]
    points += [
        (ten, PartitionSpec.hp_be(4, 10, TOTAL_WAYS, overlap_ways=3)),
        (
            six,
            PartitionSpec.unmanaged(6, TOTAL_WAYS),
            (1.0, 0.5, 0.9, 0.3, 1.0, 0.7),
        ),
        (
            six,
            PartitionSpec.hp_be(13, 6, TOTAL_WAYS),
            None,
            (0.0, 1.0, 0.5, 0.25, 0.0, 1.0),
        ),
        (six, split_ways(three_groups, (2, 1, 3), 0.0)),
        (six, split_ways(three_groups, (1, 4, 1), 2.5)),
        ((mcf,), PartitionSpec.unmanaged(1, TOTAL_WAYS)),
        ((FLOOD,) * 10, PartitionSpec.unmanaged(10, TOTAL_WAYS)),
    ]
    return points


#: One batch holding every feature the strategies draw, plus a point
#: that rations bandwidth.
FEATURE_BATCH = _feature_batch()


def _overlap_ladder() -> list:
    """Thirty-two rungs of one HP/BE layout, each with an overlap zone.

    Every rung takes a dozen rounds, so more than ``_FAST_LANE_CAP``
    lanes stay live in the head for most of them.
    """
    phases = (_CATALOG["omnetpp1"].phases[0],) + (
        _CATALOG["lbm1"].phases[0],
    ) * 9
    return [
        (phases, PartitionSpec.hp_be(k, 10, TOTAL_WAYS, overlap_ways=o))
        for k in range(16, 0, -1)
        for o in (1, 2)
    ]


# -- the oracle ----------------------------------------------------------


class TestFastKernelOracle:
    @pytest.mark.parametrize("theta", (1.0, 0.8))
    def test_feature_batch_bitwise(self, theta):
        platform = dataclasses.replace(TABLE1_PLATFORM, pressure_theta=theta)
        assert_matches_frozen(platform, FEATURE_BATCH)

    def test_feature_batch_rations_bandwidth(self):
        (state,) = solve_steady_state_batch(
            TABLE1_PLATFORM, FEATURE_BATCH[-1:], precision="fast"
        )
        assert state.utilisation == pytest.approx(1.0)

    def test_feature_batch_is_order_free(self):
        # Interleaved layouts: the same lanes in reverse order.
        assert_matches_frozen(TABLE1_PLATFORM, FEATURE_BATCH[::-1])

    @given(mixed_batches())
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_mixed_batches_bitwise(self, batch):
        assert_matches_frozen(*batch)


class TestHeadOracle:
    """Batches above the cap: the vectorised head, then the float core."""

    @pytest.mark.parametrize("theta", (1.0, 0.8))
    def test_feature_batch_and_ladder_bitwise(self, theta):
        platform = dataclasses.replace(TABLE1_PLATFORM, pressure_theta=theta)
        points = FEATURE_BATCH + _overlap_ladder()
        assert len(points) > _FAST_LANE_CAP
        assert_matches_frozen(platform, points)

    @given(mixed_batches())
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_mixed_batches_above_the_cap_bitwise(self, batch):
        platform, points = batch
        assert_matches_frozen(platform, list(points) + _overlap_ladder())


# -- the sharing step's work ----------------------------------------------


def _sharing_calls(points, monkeypatch) -> tuple[int, list[int]]:
    """Sharing calls of one vectorised solve, and each lane's head rounds.

    The head is the kernel's masked loop; a lane's head rounds are its
    iterations if it converged there, else the rounds it had run when
    the float core took it over.
    """
    assert len(points) > _FAST_LANE_CAP
    real = contention._solve_lanes_fast
    resumed: dict[int, int] = {}

    def spy(platform, parsed, *, starts=None, **solve):
        resumed.update({lane: start[-1] for lane, start in starts.items()})
        return real(platform, parsed, starts=starts, **solve)

    monkeypatch.setattr(contention, "_solve_lanes_fast", spy)
    before = solver_counters()["fast_sharing_calls"]
    states = _solve_batch_fast(
        TABLE1_PLATFORM, _parse_points(TABLE1_PLATFORM, points), **SOLVE
    )
    calls = solver_counters()["fast_sharing_calls"] - before
    rounds = [resumed.get(i, s.iterations) for i, s in enumerate(states)]
    return calls, rounds


class TestSharingWork:
    def test_ladder_makes_one_sharing_call_per_iteration(self, monkeypatch):
        # One call per head round, where grouping by partition made one
        # per rung.
        calls, rounds = _sharing_calls(_overlap_ladder(), monkeypatch)
        assert calls == max(rounds) > 1

    def test_one_call_per_layout_per_iteration(self, monkeypatch):
        points = FEATURE_BATCH + _overlap_ladder()
        calls, rounds = _sharing_calls(points, monkeypatch)
        layouts: dict[tuple, int] = {}
        for (_phases, part, *_), n in zip(points, rounds):
            layout = (part.n_cores, tuple(g.cores for g in part.groups))
            layouts[layout] = max(layouts.get(layout, 0), n)
        assert len(layouts) == 6
        assert calls == sum(layouts.values())
        assert max(rounds) > 1
