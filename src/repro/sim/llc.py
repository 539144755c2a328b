"""LLC way-sharing model.

Within a partition group, competing applications do not receive equal slices
of the group's ways: under LRU, steady-state occupancy is approximately
proportional to each competitor's LLC *access rate* (its insertion
pressure). This is the classic observation behind utility-based cache
partitioning — a streaming scan wins cache it cannot use, which is precisely
why UM underserves cache-sensitive applications (and why the paper's milc
example ends up holding ~26 % of the LLC despite a flat miss-ratio curve).

:func:`waterfill` implements pressure-proportional sharing with per-app
occupancy caps; :func:`effective_ways` applies it across a full
:class:`~repro.sim.partition.PartitionSpec`, including the optional shared
(overlapping) zone. Both validate their array inputs once and wrap
unvalidated float-list cores (:func:`_waterfill`, :func:`_effective_ways`),
which the exact solver and the fast solver's per-lane loop call directly
once per group per iteration.
:func:`waterfill_batch` and :func:`effective_ways_batch` are the
lane-batched forms, validated the same way around unvalidated NumPy cores
(:func:`_waterfill_batch`, :func:`_effective_ways_layout`) that the fast
solver calls once per core-group layout per iteration.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.sim.partition import PartitionSpec
from repro.util.stats import _reduce_sum

__all__ = [
    "waterfill",
    "effective_ways",
    "waterfill_batch",
    "effective_ways_batch",
]

_EPS = 1e-12


def _pressure_weights(pressures: list[float], theta: float) -> list[float]:
    """``np.power(np.maximum(pressures, 0.0), theta)`` as a float list.

    ``pow(x, 1)`` is exact, so at ``theta == 1`` the clamp alone carries
    the bits (``np.maximum`` keeps NaN and maps ``-0.0`` to ``0.0``, as
    the comprehension does). Any other exponent keeps ``np.power``: its
    SIMD path does not match Python's ``**`` in the last ulp.
    """
    if theta == 1.0:
        return [p if p > 0.0 or p != p else 0.0 for p in pressures]
    return np.power(np.maximum(np.array(pressures), 0.0), theta).tolist()


def _waterfill(
    total_ways: float, weights: list[float], caps: list[float]
) -> list[float]:
    """Unvalidated float-list core of :func:`waterfill`.

    The scalar solver calls it once per group per iteration on at most
    ten competitors, where float loops beat NumPy's per-call dispatch.
    A lone competitor (an HP group, most often) takes the loop's one pass
    without its lists: its weight sum ``0.0 + w`` is ``w`` itself.
    """
    n = len(weights)
    if n == 1:
        w = weights[0]
        cap = caps[0]
        if w > _EPS and cap > _EPS and not total_ways <= _EPS:
            share = total_ways * w / w
            return [cap if share >= cap - 1e-9 else share]
        return [0.0]
    result = [0.0] * n
    active = [i for i in range(n) if weights[i] > _EPS and caps[i] > _EPS]
    remaining = total_ways

    # Each pass either finishes or permanently retires >= 1 competitor, so
    # at most n passes run. An active competitor still holds 0.0, so a
    # capped one is granted its whole cap, and ``0.0 + share`` is
    # ``share`` (shares are positive or NaN): each pass computes a share
    # once, and the final pass stores it as it is.
    for _ in range(n):
        if remaining <= _EPS or not active:
            break
        weight_sum = 0.0
        for i in active:
            weight_sum += weights[i]
        shares = [remaining * weights[i] / weight_sum for i in active]
        capped = [
            i for i, share in zip(active, shares) if share >= caps[i] - 1e-9
        ]
        if not capped:
            for i, share in zip(active, shares):
                result[i] = share
            break
        granted = 0.0
        for i in capped:
            granted += caps[i]
            result[i] = caps[i]
        active = [
            i
            for i, share in zip(active, shares)
            if not share >= caps[i] - 1e-9
        ]
        remaining -= granted
    return result


def _effective_ways(
    partition: PartitionSpec,
    weights: list[float],
    caps: list[float],
    sum_terms: Callable[[list[float]], float] = _reduce_sum,
) -> list[float]:
    """Unvalidated float-list core of :func:`effective_ways`.

    Takes the pressure *weights* (see :func:`_pressure_weights`).
    ``sum_terms`` adds the group and total weights of the shared-zone
    split: :func:`_reduce_sum` (NumPy's pairwise order, the exact
    solver's) by default; the fast solver's lane loop passes the
    fixed-order sequential sum of :func:`_effective_ways_layout`.
    """
    groups = partition.groups
    zone_share = [0.0] * len(groups)
    shared_ways = partition.shared_ways
    if shared_ways > _EPS:
        group_weight = [
            sum_terms([weights[c] for c in g.cores]) for g in groups
        ]
        total_weight = sum_terms(group_weight)
        if total_weight > _EPS:
            zone_share = [
                shared_ways * gw / total_weight for gw in group_weight
            ]

    out = [0.0] * partition.n_cores
    for group, zone in zip(groups, zone_share):
        cores = group.cores
        capacity = group.ways + zone
        group_caps = [
            capacity if capacity < caps[c] else caps[c] for c in cores
        ]
        shares = _waterfill(capacity, [weights[c] for c in cores], group_caps)
        for c, share in zip(cores, shares):
            out[c] = share
    return out


def waterfill(
    total_ways: float,
    weights: np.ndarray,
    caps: np.ndarray,
) -> np.ndarray:
    """Split ``total_ways`` proportionally to ``weights``, capped by ``caps``.

    Iterative water-filling: proportional shares are assigned; any
    competitor whose share exceeds its cap is pinned at the cap and the
    surplus is redistributed among the rest. Competitors with zero weight
    receive zero. The result ``w`` satisfies ``0 <= w <= caps`` and
    ``sum(w) <= total_ways`` (strictly less only when every competitor is
    capped — leftover cache simply sits idle).
    """
    weights = np.asarray(weights, dtype=float)
    caps = np.asarray(caps, dtype=float)
    if weights.shape != caps.shape:
        raise ValueError("weights and caps must have the same shape")
    if np.isnan(weights).any() or np.isnan(caps).any():
        raise ValueError("weights and caps must not be NaN")
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    if np.any(caps < 0):
        raise ValueError("caps must be non-negative")
    if not total_ways >= 0:
        raise ValueError("total_ways must be non-negative")
    shares = _waterfill(
        float(total_ways), weights.ravel().tolist(), caps.ravel().tolist()
    )
    return np.asarray(shares, dtype=float)


def effective_ways(
    partition: PartitionSpec,
    pressures: np.ndarray,
    caps: np.ndarray,
    theta: float,
) -> np.ndarray:
    """Per-core effective LLC ways under ``partition``.

    ``pressures[i]`` is core *i*'s LLC access rate (accesses/second);
    ``caps[i]`` its occupancy cap in ways (``inf`` for unbounded);
    ``theta`` exponentiates pressures before sharing (``1.0`` =
    rate-proportional LRU).

    The optional shared zone is first divided between groups in proportion
    to their aggregate pressure, then each group's (exclusive + zone-share)
    capacity is water-filled among its member cores.
    """
    pressures = np.asarray(pressures, dtype=float)
    caps = np.asarray(caps, dtype=float)
    n = partition.n_cores
    if pressures.size != n:
        raise ValueError(f"expected {n} pressures, got {pressures.size}")
    if caps.size != n:
        raise ValueError(f"expected {n} caps, got {caps.size}")
    if np.isnan(pressures).any():
        raise ValueError("pressures must not be NaN")
    if np.isnan(caps).any() or np.any(caps < 0):
        raise ValueError("caps must be non-negative and not NaN")
    weights = _pressure_weights(pressures.ravel().tolist(), theta)
    shares = _effective_ways(partition, weights, caps.ravel().tolist())
    return np.asarray(shares, dtype=float)


def _waterfill_batch(
    total_ways: np.ndarray | float, weights: np.ndarray, caps: np.ndarray
) -> np.ndarray:
    """Unvalidated core of :func:`waterfill_batch`.

    The fast solver calls it once per group per sharing step (and once
    per core count when it rations bandwidth).
    """
    n_lanes, k = weights.shape
    remaining = np.broadcast_to(
        np.asarray(total_ways, dtype=float), (n_lanes,)
    ).copy()
    result = np.zeros((n_lanes, k))
    active = (weights > _EPS) & (caps > _EPS)
    # Each pass either finishes a lane or permanently retires >= 1 of its
    # competitors, so at most k passes run (as in the scalar loop).
    for _ in range(k):
        live = np.nonzero((remaining > _EPS) & active.any(axis=1))[0]
        if live.size == 0:
            break
        w_act = np.where(active[live], weights[live], 0.0)
        # Fixed-order accumulation (competitor 0, 1, ...): inactive slots
        # add exactly 0.0, matching the scalar sum over active entries.
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


def _effective_ways_layout(
    group_cores: tuple[tuple[int, ...], ...],
    group_ways: np.ndarray,
    shared_ways: np.ndarray,
    weights: np.ndarray,
    caps: np.ndarray,
) -> np.ndarray:
    """Unvalidated lane-batched core of :func:`effective_ways_batch`.

    Every lane shares one core-group *layout* — ``group_cores`` lists each
    group's cores, in partition order — but not its way counts:
    ``group_ways`` is ``(lanes, groups)`` and ``shared_ways`` is
    ``(lanes,)``. So the rungs of a DICER ladder, CT-k and an overlap
    variant of the same HP/BE split share one call. ``weights`` are the
    pressure weights (``max(pressure, 0) ** theta``) and ``caps`` the
    occupancy caps, both ``(lanes, n_cores)``.
    """
    n_lanes = weights.shape[0]

    # Split the shared zone between groups by aggregate pressure weight,
    # per lane (fixed-order sums over each group's member cores). Lanes
    # without a zone take exactly 0.0, as if the split never ran.
    zone_share = [0.0] * len(group_cores)
    has_zone = shared_ways > _EPS
    if has_zone.any():
        group_weight = []
        for cores in group_cores:
            gw = np.zeros(n_lanes)
            for core in cores:
                gw = gw + weights[:, core]
            group_weight.append(gw)
        total_weight = np.zeros(n_lanes)
        for gw in group_weight:
            total_weight = total_weight + gw
        live = has_zone & (total_weight > _EPS)
        safe = np.where(live, total_weight, 1.0)
        zone_share = [
            np.where(live, shared_ways * gw / safe, 0.0)
            for gw in group_weight
        ]

    out = np.zeros(weights.shape)
    for g, cores in enumerate(group_cores):
        idx = list(cores)
        capacity = group_ways[:, g] + zone_share[g]
        group_caps = np.minimum(caps[:, idx], capacity[:, None])
        out[:, idx] = _waterfill_batch(capacity, weights[:, idx], group_caps)
    return out


def waterfill_batch(
    total_ways: np.ndarray | float,
    weights: np.ndarray,
    caps: np.ndarray,
) -> np.ndarray:
    """Lane-batched :func:`waterfill`: row ``i`` splits ``total_ways[i]``.

    ``weights`` and ``caps`` are ``(lanes, k)``; ``total_ways`` is a
    scalar or one value per lane. Each lane walks exactly the scalar
    water-filling decision sequence (proportional shares, overflow
    detection with the same ``1e-9`` cap slack, pin-and-redistribute),
    with every reduction accumulated in fixed competitor order — so a
    lane's result depends only on that lane's inputs, never on which
    other lanes share the batch. Inputs are validated as
    :func:`waterfill` validates them; the fast solver calls the
    unvalidated :func:`_waterfill_batch` directly.
    """
    weights = np.asarray(weights, dtype=float)
    caps = np.asarray(caps, dtype=float)
    if weights.shape != caps.shape:
        raise ValueError("weights and caps must have the same shape")
    if weights.ndim != 2:
        raise ValueError("weights and caps must be (lanes, k) arrays")
    if np.isnan(weights).any() or np.isnan(caps).any():
        raise ValueError("weights and caps must not be NaN")
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    if np.any(caps < 0):
        raise ValueError("caps must be non-negative")
    total = np.asarray(total_ways, dtype=float)
    n_lanes = weights.shape[0]
    if total.ndim > 1 or total.size not in (1, n_lanes):
        raise ValueError(
            f"expected a scalar or {n_lanes} total_ways, got {total.shape}"
        )
    if not np.all(total >= 0):
        raise ValueError("total_ways must be non-negative")
    return _waterfill_batch(total, weights, caps)


def effective_ways_batch(
    partition: PartitionSpec,
    pressures: np.ndarray,
    caps: np.ndarray,
    theta: float,
) -> np.ndarray:
    """Lane-batched :func:`effective_ways` under one ``partition``.

    ``pressures`` is ``(lanes, n_cores)``; ``caps`` is the same or a
    single ``(n_cores,)`` row, broadcast over lanes. Inputs are validated
    as :func:`effective_ways` validates them, then the call runs the
    layout core :func:`_effective_ways_layout` with the partition's way
    counts repeated on every lane. The fast solver calls that core
    directly, once per core-group layout per iteration, so lanes under
    different partitions of one layout share it. Per-lane semantics mirror
    the scalar function decision for decision with fixed-order
    reductions, so lane results are independent of batch composition.
    """
    pressures = np.asarray(pressures, dtype=float)
    caps = np.asarray(caps, dtype=float)
    n = partition.n_cores
    if pressures.ndim != 2 or pressures.shape[1] != n:
        raise ValueError(
            f"expected (lanes, {n}) pressures, got {pressures.shape}"
        )
    n_lanes = pressures.shape[0]
    if caps.ndim == 1 and caps.size != n:
        raise ValueError(f"expected {n} caps, got {caps.size}")
    if caps.ndim != 1 and caps.shape != pressures.shape:
        raise ValueError(
            f"expected {n} or ({n_lanes}, {n}) caps, got {caps.shape}"
        )
    if np.isnan(pressures).any():
        raise ValueError("pressures must not be NaN")
    if np.isnan(caps).any() or np.any(caps < 0):
        raise ValueError("caps must be non-negative and not NaN")
    groups = partition.groups
    return _effective_ways_layout(
        tuple(g.cores for g in groups),
        np.tile([g.ways for g in groups], (n_lanes, 1)),
        np.full(n_lanes, partition.shared_ways),
        np.power(np.maximum(pressures, 0.0), theta),
        np.broadcast_to(caps, (n_lanes, n)),
    )
