"""Fixed-point contention solver.

For a set of co-running phases and a cache partition, the per-core IPCs,
memory-bandwidth demands, LLC shares and the shared memory latency are
mutually dependent:

* more effective ways -> fewer misses -> higher IPC;
* higher IPCs -> more aggregate bandwidth -> higher link utilisation;
* higher utilisation -> higher memory latency -> lower IPCs;
* higher IPC also means higher LLC access *pressure* -> bigger way share.

:func:`solve_steady_state` resolves the loop by damped fixed-point iteration
over (ways, latency). The map is a contraction for the model's parameter
ranges (latency rises when IPC rises, which pushes IPC back down); damping
makes it robust near the saturation knee. Tests assert convergence across
the entire catalog pair population.

:func:`solve_steady_state_batch` solves many operating points in one call.

Both solvers take ``precision`` (DESIGN.md §10). ``"exact"`` (the library
default) solves one point at a time, so every exact result is
bit-reproducible. ``"fast"`` trades that for a *tolerance* contract —
results agree with the exact solver to within :data:`FAST_REL_TOL` /
:data:`FAST_WAYS_ATOL` — in exchange for a vectorised batch kernel that
advances B points through the same iteration with masked NumPy lanes (see
DESIGN.md §7): ``np.power`` queue tails, vectorised transcendental MRC
evaluation, and lane-batched pressure sharing.

One fixed-point loop on Python floats, :func:`_solve_floats`, solves every
exact point and every fast lane the vectorised kernel leaves (all of a
small batch), so it alone decides when a lane has failed. Its ``fast``
flag picks the few per-precision choices once per solve: the miss-ratio
evaluation (curve calls, or the fused ``np.exp`` row of the vectorised
kernel), the queue-tail power (``**`` or ``np.power``), the intermediate
roots' bracket gap (1e-7 or 1e-4) and the sum order (NumPy's pairwise
order or the kernel's fixed core order). In its fast mode a lane is
bit-identical to the vectorised kernel's. Fast results are still *pure per
lane*: a lane's bits depend only on its own operating point, never on
batch composition, so fused cross-cell batches, memoisation and the
serial-vs-parallel determinism audit all keep working. Set
``REPRO_FAST_CHECK=1`` to shadow every fast solve with an exact solve and
assert the contract at runtime.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.obs import get_registry
from repro.sim.llc import (
    _effective_ways,
    _effective_ways_layout,
    _pressure_weights,
    _waterfill,
    _waterfill_batch,
)
from repro.sim.membus import MemoryLink
from repro.sim.partition import PartitionSpec
from repro.sim.platform import PlatformConfig
from repro.util.stats import _reduce_sum
from repro.workloads.app import Phase

__all__ = [
    "SteadyState",
    "ConvergenceError",
    "FastContractError",
    "PRECISIONS",
    "FAST_REL_TOL",
    "FAST_WAYS_ATOL",
    "solve_steady_state",
    "solve_steady_state_batch",
    "SteadyStateCache",
    "solver_counters",
    "reset_solver_counters",
]

#: The solver's precision modes (DESIGN.md §10).
PRECISIONS = ("exact", "fast")

#: Accuracy contract of ``precision="fast"`` against ``"exact"``, per lane:
#: relative bound on ipc / bandwidth / latency / utilisation, and an
#: absolute bound (in ways) on allocations and miss ratios. Derived
#: empirically — the full-catalog sweep in tests/sim/test_fastmath.py
#: measures the worst observed divergence (different damping trajectories
#: may stop at different points within the fixed-point tolerance ball, plus
#: ulp-level ``np.exp``/``np.power`` vs ``math``/Python differences) and
#: these bounds sit an order of magnitude above it. Enforced by the
#: property tests and, when ``REPRO_FAST_CHECK=1``, at runtime.
FAST_REL_TOL = 1e-3
FAST_WAYS_ATOL = 0.05

#: Process-wide solver instrumentation, always on (plain dict increments are
#: ~free next to a solve). ``scalar_solves`` counts exact points, each
#: solved by the scalar solver; ``fast_solves`` counts calls into the
#: fast kernel and ``fast_points`` the points they carried, whether the
#: vectorised kernel or the per-lane loop finished them
#: (``fast_lane_points`` counts the latter's share). The benchmark
#: reports the same split per layer as the ``sim.solver.*`` metrics of
#: ``bench/`` (calls, points, iterations and us_per_point for each
#: precision and singleton/batch path).
SOLVER_COUNTERS: dict[str, int] = {
    "scalar_solves": 0,
    "scalar_iterations": 0,
    "fast_solves": 0,
    "fast_points": 0,
    "fast_iterations": 0,
    # Sharing-step calls made by the vectorised fast kernel: one per
    # core-group layout with live lanes per round.
    "fast_sharing_calls": 0,
    # Fast points the per-lane loop finished, cold (a small batch) or
    # resumed from the vectorised kernel (also counted in fast_points).
    "fast_lane_points": 0,
    # _PARAMS_MEMO parse-cache effectiveness (bounded LRU, see below).
    "params_memo_hits": 0,
    "params_memo_misses": 0,
    "params_memo_evictions": 0,
}


@functools.lru_cache(maxsize=16)
def _memory_link(platform: PlatformConfig) -> MemoryLink:
    """The platform's link model, built once per platform (it is frozen)."""
    return MemoryLink.from_platform(platform)


def _check_precision(precision: str) -> str:
    if precision not in PRECISIONS:
        raise ValueError(
            f"precision must be one of {PRECISIONS}, got {precision!r}"
        )
    return precision


def _check_iteration(tol: float, max_iter: int, damping: float) -> None:
    """Reject iteration settings the fixed point cannot honour.

    ``damping=0`` freezes the iterate, so the cold start would come back
    as "converged" after one iteration; a damping outside ``(0, 1]`` or a
    non-positive or NaN ``tol`` fails deep in the sharing step or burns
    the whole budget before saying so.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    if not 0.0 < damping <= 1.0:
        raise ValueError(f"damping must be in (0, 1], got {damping!r}")
    if (
        isinstance(max_iter, bool)
        or not isinstance(max_iter, (int, np.integer))
        or max_iter < 1
    ):
        raise ValueError(f"max_iter must be an int >= 1, got {max_iter!r}")


def solver_counters() -> dict:
    """A snapshot of the process-wide solver call/iteration counters.

    The flat keys are the raw counters. ``by_kernel`` is a derived view
    attributing work to the solver that did it (``exact`` is the scalar
    solver, one solve per point; ``fast`` is the tolerance-contracted
    fast kernel, vectorised or per-lane), so ``report --metrics`` can
    say which precision solved what.
    """
    snap: dict = dict(SOLVER_COUNTERS)
    snap["by_kernel"] = {
        "exact": {
            "solves": snap["scalar_solves"],
            "points": snap["scalar_solves"],
            "iterations": snap["scalar_iterations"],
        },
        "fast": {
            "solves": snap["fast_solves"],
            "points": snap["fast_points"],
            "iterations": snap["fast_iterations"],
        },
    }
    return snap


def reset_solver_counters() -> None:
    """Zero the solver counters (benchmark harnesses call this at start)."""
    for key in SOLVER_COUNTERS:
        SOLVER_COUNTERS[key] = 0


class ConvergenceError(RuntimeError):
    """The fixed-point iteration failed to settle within the budget."""


@dataclass(frozen=True)
class SteadyState:
    """Converged per-core operating point for one phase combination.

    All arrays are indexed by core. ``latency_cycles`` and ``utilisation``
    are scalars (one shared link). ``bw_bytes`` is the achieved per-core
    memory traffic in bytes/second.
    """

    ipc: np.ndarray
    ways: np.ndarray
    miss_ratio: np.ndarray
    bw_bytes: np.ndarray
    latency_cycles: float
    utilisation: float
    iterations: int

    @property
    def total_bw_bytes(self) -> float:
        """Aggregate achieved memory traffic (bytes/second)."""
        return float(self.bw_bytes.sum())


#: Types a phase field or knob level keeps in the parameter lists.
_PLAIN = frozenset((float, int))


def _column(values: list) -> list:
    """``np.array(values).tolist()`` of one per-core column.

    Python floats and ints stay as they are: the arithmetic downstream
    converts an int exactly as a float64 array would have. Anything else
    (NumPy scalars, bools) goes through the array, so it enters the float
    loops as the Python scalar NumPy gives back.
    """
    if _PLAIN.issuperset(map(type, values)):
        return values
    return np.array(values).tolist()


def _knob_levels(values, n: int, name: str) -> list:
    """Per-core knob levels, read and shape-checked as a float array."""
    levels = np.asarray(values, dtype=float)
    if levels.shape != (n,):
        raise ValueError(f"{name} must have length {n}")
    return levels.tolist()


def _point_params(
    platform: PlatformConfig,
    phases: Sequence[Phase],
    partition: PartitionSpec,
    mba_scale: Sequence[float] | None,
    prefetch: Sequence[float] | None = None,
) -> tuple[list, ...]:
    """Per-core parameter lists for one operating point.

    Shared by the scalar solver and the fast kernel so both see the same
    inputs (same construction, same op order). The prefetch-throttle axis
    folds into the parameter lists here — effective blocking grows by the
    re-exposed stall, bytes-per-miss shrinks by the suppressed waste — so
    both solvers pick it up without any change to their iteration
    bodies. ``prefetch=None`` skips the
    transform entirely, and a level of exactly ``0.0`` multiplies by
    ``1.0`` (a bitwise identity), so unthrottled points stay byte-for-byte
    what they were before the axis existed.

    The lists hold the values NumPy arrays of the same expressions would
    (Python float arithmetic is the same IEEE double arithmetic), and the
    checks raise the messages the array form raised, in its order. NaN
    levels pass them, as they pass NumPy's comparisons.
    """
    n = partition.n_cores
    if len(phases) != n:
        raise ValueError(f"expected {n} phases, got {len(phases)}")
    cpi_exe = _column([p.cpi_exe for p in phases])
    apki = [a / 1000.0 for a in _column([p.apki for p in phases])]
    blocking = _column([p.blocking for p in phases])
    line = float(platform.line_bytes)
    bytes_per_miss = [
        line * (1.0 + w) for w in _column([p.write_frac for p in phases])
    ]
    caps = _column(
        [
            p.occupancy_ways if p.occupancy_ways is not None else math.inf
            for p in phases
        ]
    )
    if prefetch is not None:
        level = _knob_levels(prefetch, n, "prefetch")
        for x in level:
            if x < 0.0 or x > 1.0:
                raise ValueError("prefetch levels must be in [0, 1]")
        hide = _column([p.prefetch_hide for p in phases])
        waste = _column([p.prefetch_waste for p in phases])
        blocking = [
            b * (1.0 + h * x) for b, h, x in zip(blocking, hide, level)
        ]
        bytes_per_miss = [
            q * (1.0 - w * x) for q, w, x in zip(bytes_per_miss, waste, level)
        ]
    if mba_scale is None:
        throttle = [1.0] * n
    else:
        throttle = _knob_levels(mba_scale, n, "mba_scale")
        for t in throttle:
            if t <= 0 or t > 1.0:
                raise ValueError("mba_scale entries must be in (0, 1]")
    return cpi_exe, apki, blocking, bytes_per_miss, caps, throttle


def _initial_ways(partition: PartitionSpec, caps: list[float]) -> list[float]:
    """Cold-start iterate: equal split per group plus the shared zone.

    The shared zone is distributed once across ALL cores, not once per
    group, or the guess double-counts it and the damped path can carry the
    surplus into the converged allocation.
    """
    ways = [0.0] * partition.n_cores
    for group in partition.groups:
        share = group.ways / len(group.cores)
        for core in group.cores:
            ways[core] = share
    zone = partition.shared_ways / partition.n_cores
    out = []
    for w, cap in zip(ways, caps):
        w += zone
        out.append(cap if cap < w else w)
    return out


def _illinois_root(
    excess,
    guess: float,
    lat_floor: float,
    lat_ceil: float,
    gap_rtol: float = 1e-7,
) -> float:
    """Root of a strictly decreasing ``excess`` on ``[lat_floor, lat_ceil]``.

    Brackets the root around ``guess`` by geometric expansion, then closes
    in with the Illinois variant of regula falsi: guaranteed convergence,
    superlinear in practice (~6-10 evaluations vs ~50 for plain bisection).
    The expansion loops carry the previously evaluated endpoint forward, so
    no point is ever evaluated twice (the pre-refactor code re-evaluated
    ``excess`` at the step before the sign flip). ``gap_rtol`` is the
    relative bracket-gap stop, as in :func:`_illinois_root_batch`, whose
    per-lane decision sequence this is.

    The decisions are those of checking both boundaries before the
    guess, but this order, which the batched form walks lane by lane,
    evaluates the clamped guess first and checks a boundary only where
    its answer is not yet known. ``excess`` is non-increasing, so a sign
    change found inside the bracket already decides the boundary check
    on that side: the ceiling is checked when the upward expansion
    reaches it, the floor when the downward one does, and the far
    boundary only when a value reads exactly ``0.0`` (a flat zero up to
    the ceiling still returns the ceiling, as the boundaries-first order
    does).
    """
    # Bracket around the warm start: expand geometrically until signs
    # differ. Either loop reaches its boundary within its 60-step budget,
    # and returns there if the boundary check would have.
    lo = max(lat_floor, min(guess, lat_ceil))
    f_lo = excess(lo)
    if f_lo > 0.0:
        if lo == lat_ceil:
            return lat_ceil
        hi, f_hi = lo, f_lo
        for _ in range(60):
            lo, f_lo = hi, f_hi
            hi = min(hi * 1.5, lat_ceil)
            f_hi = excess(hi)
            if hi == lat_ceil:
                if f_hi >= 0.0:
                    return lat_ceil
            elif f_hi == 0.0 and excess(lat_ceil) >= 0.0:
                return lat_ceil
            if f_hi <= 0.0:
                break
    else:
        f_floor = None
        if f_lo == 0.0 or lo == lat_floor:
            f_floor = f_lo if lo == lat_floor else excess(lat_floor)
            if f_floor <= 0.0:
                return lat_floor
            if f_lo == 0.0 and (lo == lat_ceil or excess(lat_ceil) >= 0.0):
                return lat_ceil
        hi, f_hi = lo, f_lo
        for _ in range(60):
            hi, f_hi = lo, f_lo
            lo = max(lo / 1.5, lat_floor)
            if lo == lat_floor and f_floor is not None:
                f_lo = f_floor
            else:
                f_lo = excess(lo)
            if lo == lat_floor:
                if f_lo <= 0.0:
                    return lat_floor
            elif f_lo == 0.0 and excess(lat_floor) <= 0.0:
                return lat_floor
            if f_lo >= 0.0:
                break

    # Illinois regula falsi on the strictly decreasing excess().
    for _ in range(60):
        if hi - lo < gap_rtol * hi:
            break
        mid = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if not lo < mid < hi:
            mid = 0.5 * (lo + hi)
        f_mid = excess(mid)
        if f_mid > 0.0:
            lo, f_lo = mid, f_mid
            f_hi *= 0.5  # Illinois: damp the stale endpoint.
        elif f_mid < 0.0:
            hi, f_hi = mid, f_mid
            f_lo *= 0.5
        else:
            return mid
    return 0.5 * (lo + hi)


def solve_steady_state(
    platform: PlatformConfig,
    phases: Sequence[Phase],
    partition: PartitionSpec,
    *,
    mba_scale: Sequence[float] | None = None,
    prefetch: Sequence[float] | None = None,
    tol: float = 1e-6,
    max_iter: int = 800,
    damping: float = 0.5,
    precision: str = "exact",
) -> SteadyState:
    """Solve the contention fixed point for one phase combination.

    Parameters
    ----------
    phases:
        One phase per core (``len(phases) == partition.n_cores``).
    partition:
        LLC partitioning in effect.
    mba_scale:
        Optional per-core Memory Bandwidth Allocation throttle in (0, 1]:
        1.0 = unthrottled. Models Intel MBA's request-rate throttling as a
        proportional increase in per-request effective latency (and hence a
        proportional cut in achievable bandwidth) for the throttled core.
    prefetch:
        Optional per-core prefetch-throttle level in [0, 1]: 0.0 = the
        prefetcher fully on (the default behaviour before this axis
        existed). Level ``l`` re-exposes hidden stall (effective blocking
        × ``1 + prefetch_hide*l``) and suppresses wasted traffic
        (bytes-per-miss × ``1 - prefetch_waste*l``) per the phase's
        prefetch parameters; see :class:`~repro.workloads.app.Phase`.
        ``None`` and all-zero levels are bitwise-identical.
    precision:
        ``"exact"`` (default) runs the bitwise-reproducible scalar solver;
        ``"fast"`` routes the point through the tolerance-contracted
        vectorised kernel (DESIGN.md §10). Either way the result is a
        pure function of the operating point, so it is safe to memoise.
    """
    _check_iteration(tol, max_iter, damping)
    if _check_precision(precision) == "fast":
        return _solve_fast(
            platform,
            [(phases, partition, mba_scale, prefetch)],
            tol=tol,
            max_iter=max_iter,
            damping=damping,
        )[0]
    params = _point_params(platform, phases, partition, mba_scale, prefetch)
    calls = [p.mrc.__call__ for p in phases]

    def miss_ratios(ways: list[float]) -> list[float]:
        return [call(w) for call, w in zip(calls, ways)]

    state, iterations, latency = _solve_floats(
        platform,
        _memory_link(platform),
        partition,
        params,
        miss_ratios,
        fast=False,
        tol=tol,
        max_iter=max_iter,
        damping=damping,
    )
    if state is None:
        raise ConvergenceError(
            f"no convergence after {iterations} iterations "
            f"(latency={latency:.1f} cy)"
        )
    SOLVER_COUNTERS["scalar_solves"] += 1
    SOLVER_COUNTERS["scalar_iterations"] += iterations
    return state


def _ordered_sum(values: list[float]) -> float:
    """Sum in list order from ``0.0``: the fast kernel's fixed-order sums."""
    total = 0.0
    for v in values:
        total += v
    return total


def _solve_floats(
    platform: PlatformConfig,
    link: MemoryLink,
    partition: PartitionSpec,
    params: tuple[list, ...],
    miss_ratios,
    *,
    fast: bool,
    tol: float,
    max_iter: int,
    damping: float,
    stop_at: int | None = None,
    start: tuple | None = None,
) -> tuple[SteadyState | None, int, float]:
    """The damped fixed point of one operating point on Python floats.

    The exact solver and the fast lane loop share this loop (DESIGN.md
    §7, §10). ``link`` is the platform's :class:`MemoryLink`, built once
    per batch; ``params`` are the six per-core lists of
    :func:`_point_params`; ``miss_ratios(ways)`` is the precision's curve
    evaluation. ``fast`` picks the rest once, here: the queue-tail power
    (``**`` or ``np.power``), the intermediate roots' bracket gap (1e-7 or
    the vectorised kernel's 1e-4) and the sum order of the sharing step
    and link demand (:func:`_reduce_sum`, NumPy's pairwise order, or the
    kernel's fixed-order :func:`_ordered_sum`).

    For at most ten cores, float loops beat NumPy's per-call dispatch
    several times over. Every per-element expression keeps the NumPy
    evaluation order of the vectorised form ((mpi*blocking)*(latency/
    throttle), (freq*ipc)*mpi, ...), so results are bit-identical to it.

    ``start`` resumes a lane the vectorised kernel left before any
    escalation, ``(ways, latency, step, prev_delta, iterations)`` after
    its last round; ``None`` is the cold start.

    Returns ``(state, iterations, latency)``. ``state`` is ``None`` when
    the iteration overran its budget, or reached round ``stop_at`` first;
    ``iterations`` and ``latency`` then say where it stopped, and the
    caller words the failure.
    """
    cpi, apki, blk, bpm, caps, thr = params
    freq = platform.freq_hz
    theta = platform.pressure_theta
    lat_floor = link.base_latency_cycles
    lat_ceil = link.max_latency_cycles
    capacity = link.capacity_bytes
    inv_capacity = 1.0 / capacity
    u_cap = link.utilisation_cap
    gain = link.queue_gain
    q_exp = link.queue_exponent
    delta_tol = tol * platform.llc_ways
    # The link curve is inlined: excess() dominates the solver's profile.
    # Demand adds in core order, as make_excess does, over the per-core
    # triples (freq*mpi*bpm, cpi, mpi*blk/thr) that solve_latency sets.
    triples: list[tuple[float, float, float]] = []
    if fast:
        # np.power, not **: the two differ in the last ulp, and the lane
        # loop must match the vectorised kernel's power tail bit for bit.
        power = np.power
        gap_rtol = 1e-4
        sum_terms = _ordered_sum

        def excess(lat: float) -> float:
            demand = 0.0
            for c, e, s in triples:
                demand += c / (e + s * lat)
            u = demand * inv_capacity
            if u > u_cap:
                u = u_cap
            tail = float(power(u / (1.0 - u), q_exp))
            return lat_floor * (1.0 + gain * tail) - lat

    else:
        gap_rtol = 1e-7
        sum_terms = _reduce_sum

        def excess(lat: float) -> float:
            demand = 0.0
            for c, e, s in triples:
                demand += c / (e + s * lat)
            u = demand * inv_capacity
            if u > u_cap:
                u = u_cap
            return lat_floor * (1.0 + gain * (u / (1.0 - u)) ** q_exp) - lat

    def solve_latency(mpi: list[float], guess: float, gap: float) -> float:
        """Inner 1-D fixed point: latency consistent with its own demand.

        For fixed per-core miss rates, the map
        ``L -> link.latency(total_bw(L))`` is monotone *decreasing* in L
        (higher latency -> lower IPC -> less traffic -> lower latency), so
        ``excess(L) = g(L) - L`` is strictly decreasing with a unique root,
        found by :func:`_illinois_root` warm-started near ``guess`` (across
        outer iterations the latency barely moves).
        """
        nonlocal triples
        triples = [
            (freq * m * q, e, m * b / t)
            for m, q, e, b, t in zip(mpi, bpm, cpi, blk, thr)
        ]
        return _illinois_root(excess, guess, lat_floor, lat_ceil, gap)

    if start is None:
        ways = _initial_ways(partition, caps)
        latency = lat_floor
        step = damping
        prev_delta = math.inf
        iterations = 0
    else:
        ways, latency, step, prev_delta, iterations = start
    budget = max_iter
    while True:
        iterations += 1
        mpi = [a * m for a, m in zip(apki, miss_ratios(ways))]
        # Intermediate roots at the precision's bracket gap; the final
        # root below always runs at full precision.
        latency = solve_latency(mpi, latency, gap_rtol)
        # Insertion pressure: under LRU only MISSES insert lines (hits
        # refresh recency and protect the resident set), so steady-state
        # occupancy tracks each competitor's miss rate, not its access
        # rate. pressure = freq * ipc * mpi.
        pressure = [
            freq * (1.0 / (e + m * b * (latency / t))) * m
            for m, e, b, t in zip(mpi, cpi, blk, thr)
        ]
        target = _effective_ways(
            partition, _pressure_weights(pressure, theta), caps, sum_terms
        )
        # Damped update and max |ways_next - ways| (NaN-sticky, as np.max).
        keep = 1 - step
        ways_next = []
        delta = 0.0
        for w, t in zip(ways, target):
            nxt = keep * w + step * t
            d = abs(nxt - w)
            if d > delta or d != d:
                delta = d
            ways_next.append(nxt)
        ways = ways_next
        converged = delta < delta_tol
        if not converged:
            # Adaptive damping: near mr(0)=1 the pressure feedback is
            # steep (fewer ways -> more misses -> more insertion pressure
            # -> more ways), which limit-cycles at fixed step size. A
            # non-shrinking delta means we are orbiting the fixed point:
            # tighten the step.
            if delta >= prev_delta:
                if step > 0.021:
                    step = max(step * 0.7, 0.02)
                else:
                    # Already at the floor step: grant a larger budget —
                    # the remaining error shrinks slowly but monotonically.
                    budget = max_iter * 10
            prev_delta = delta
        if iterations >= budget or iterations == stop_at:
            return None, iterations, latency
        if converged:
            break

    # Final consistent evaluation at the converged operating point. The
    # damped iterate can sit an epsilon above an occupancy cap (it converges
    # onto the cap from above); clamp so the invariant holds exactly.
    ways = [c if c < w else w for w, c in zip(ways, caps)]
    mr = miss_ratios(ways)
    mpi = [a * m for a, m in zip(apki, mr)]
    latency = solve_latency(mpi, latency, 1e-7)
    ipc = [
        1.0 / (e + m * b * (latency / t))
        for m, e, b, t in zip(mpi, cpi, blk, thr)
    ]
    bw = [freq * i * m * q for i, m, q in zip(ipc, mpi, bpm)]
    demand = sum_terms(bw)
    if demand > capacity:
        # The latency curve is capped (utilisation_cap), so under extreme
        # overload the latency equilibrium alone can leave aggregate
        # demand above the physical link capacity. The link then becomes
        # a throughput bottleneck: achieved bandwidth is rationed
        # *equal-share* across demanders (light consumers keep their full
        # demand, heavy ones split the remainder — approximating the
        # fairness of FR-FCFS memory scheduling), and each throttled
        # core's IPC drops in proportion to its granted fraction.
        granted = _waterfill(capacity, [1.0] * len(bw), bw)
        ipc = [
            i * (g / (b if b > 1e-30 else 1e-30) if b > 0.0 else 1.0)
            for i, g, b in zip(ipc, granted, bw)
        ]
        bw = granted
        demand = sum_terms(bw)
    state = SteadyState(
        ipc=np.array(ipc),
        ways=np.array(ways),
        miss_ratio=np.array(mr),
        bw_bytes=np.array(bw),
        latency_cycles=float(latency),
        # True achieved utilisation (rationing guarantees <= 1); the capped
        # MemoryLink.utilisation is only for the latency curve's domain.
        utilisation=demand / capacity,
        iterations=iterations,
    )
    return state, iterations, latency


def _illinois_root_batch(excess_b, guess, lat_floor, lat_ceil, gap_rtol=1e-7):
    """Vectorised :func:`_illinois_root`: one root per lane.

    ``excess_b(lat, lanes)`` evaluates the per-lane excess at ``lat[k]``
    for lane ``lanes[k]``. Every lane walks exactly the decision sequence
    of the scalar root finder, in its order: the clamped guess first, a
    boundary checked only where its answer is not yet known (where the
    expansion reaches it, or a value reads exactly ``0.0``), the same
    expansion steps and the same Illinois updates, via shrinking index
    sets. So each lane evaluates the points a scalar solve of that lane
    evaluates, and its root is bit-identical to it. Lanes that finish
    (boundary hit, bracket gap closed, exact root) are dropped from the
    index sets and their state freezes.

    ``gap_rtol`` is the relative bracket-gap stop; the default matches the
    scalar root finder. The fast kernel loosens it for *intermediate*
    fixed-point iterations only — the final consistency root always runs
    at full precision.
    """
    n_lanes = guess.size
    out = np.empty(n_lanes)
    lanes = np.arange(n_lanes)
    # The lanes whose root is still open.
    open_ = np.ones(n_lanes, dtype=bool)

    def settle(idx: np.ndarray, value) -> None:
        out[idx] = value
        open_[idx] = False

    lo = np.maximum(lat_floor, np.minimum(guess, lat_ceil))
    f_lo = excess_b(lo, lanes)
    up = f_lo > 0.0
    settle(lanes[up & (lo == lat_ceil)], lat_ceil)
    # Downward lanes whose guess reads 0.0 or sits on the floor check the
    # floor now (reusing the guess's value there); those that read 0.0
    # and stay open then check the ceiling.
    f_floor = np.full(n_lanes, np.nan)
    has_floor = ~up & ((f_lo == 0.0) | (lo == lat_floor))
    if has_floor.any():
        on_floor = has_floor & (lo == lat_floor)
        f_floor[on_floor] = f_lo[on_floor]
        probe = lanes[has_floor & ~on_floor]
        if probe.size:
            f_floor[probe] = excess_b(np.full(probe.size, lat_floor), probe)
        settle(lanes[has_floor & (f_floor <= 0.0)], lat_floor)
        zero = open_ & has_floor & (f_lo == 0.0)
        settle(lanes[zero & (lo == lat_ceil)], lat_ceil)
        probe = lanes[zero & (lo != lat_ceil)]
        if probe.size:
            f_ceil = excess_b(np.full(probe.size, lat_ceil), probe)
            settle(probe[f_ceil >= 0.0], lat_ceil)

    # Bracket around each lane's warm start by geometric expansion; a
    # lane that reaches its boundary, or reads 0.0 where the boundary
    # beyond it does too, returns there. Either loop reaches its boundary
    # within its 60-step budget.
    hi = lo.copy()
    f_hi = f_lo.copy()
    expanding = lanes[open_ & up]
    for _ in range(60):
        if expanding.size == 0:
            break
        lo[expanding] = hi[expanding]
        f_lo[expanding] = f_hi[expanding]
        step = np.minimum(hi[expanding] * 1.5, lat_ceil)
        f_step = excess_b(step, expanding)
        hi[expanding] = step
        f_hi[expanding] = f_step
        at_ceil = step == lat_ceil
        done = at_ceil & (f_step >= 0.0)
        zero = ~at_ceil & (f_step == 0.0)
        if zero.any():
            probe = expanding[zero]
            done[zero] = excess_b(np.full(probe.size, lat_ceil), probe) >= 0.0
        settle(expanding[done], lat_ceil)
        expanding = expanding[~(done | (f_step <= 0.0))]
    shrinking = lanes[open_ & ~up]
    for _ in range(60):
        if shrinking.size == 0:
            break
        hi[shrinking] = lo[shrinking]
        f_hi[shrinking] = f_lo[shrinking]
        step = np.maximum(lo[shrinking] / 1.5, lat_floor)
        at_floor = step == lat_floor
        # A floor already evaluated is not evaluated again.
        known = at_floor & has_floor[shrinking]
        f_step = np.where(known, f_floor[shrinking], 0.0)
        fresh = ~known
        if fresh.any():
            f_step[fresh] = excess_b(step[fresh], shrinking[fresh])
        lo[shrinking] = step
        f_lo[shrinking] = f_step
        done = at_floor & (f_step <= 0.0)
        zero = ~at_floor & (f_step == 0.0)
        if zero.any():
            probe = shrinking[zero]
            done[zero] = (
                excess_b(np.full(probe.size, lat_floor), probe) <= 0.0
            )
        settle(shrinking[done], lat_floor)
        shrinking = shrinking[~(done | (f_step >= 0.0))]

    # Masked Illinois regula falsi on the strictly decreasing excess().
    running = lanes[open_]
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
        f_mid = excess_b(mid, running)
        pos = f_mid > 0.0
        neg = f_mid < 0.0
        zero = ~(pos | neg)
        settle(running[zero], mid[zero])
        pi = running[pos]
        lo[pi] = mid[pos]
        f_lo[pi] = f_mid[pos]
        f_hi[pi] *= 0.5  # Illinois: damp the stale endpoint.
        ni = running[neg]
        hi[ni] = mid[neg]
        f_hi[ni] = f_mid[neg]
        f_lo[ni] *= 0.5
        running = running[~zero]
    rest = lanes[open_]
    out[rest] = 0.5 * (lo[rest] + hi[rest])
    return out


#: Bounded LRU over :func:`_point_params` columns, held as tuples and
#: keyed ``(platform, phases, mba, prefetch)``. The columns are
#: construction-identical on every rebuild and never mutated downstream
#: (the fast kernel shares them across lanes within a call), so
#: cross-call reuse cannot change a single bit of any solve. Long-running
#: queue workers revisit phase tuples across thousands of solver calls;
#: at the cap the oldest entry goes (counted in
#: ``solver_counters()["params_memo_evictions"]``), so the cache stays
#: bounded and keeps its hot working set. The cap is the next power of
#: two at or above twice the largest measured working set: 4,475 entries
#: after a fast 3481-pair classification plus a 25-pair grid, 5,579 after
#: the 120-workload paper grid at cores 2-10 (a ten-core entry is about
#: 1.2 KB, so a full memo holds about 20 MB). The lock guards it against
#: serve's heartbeat, whose node probes sample the simulated RDT boundary
#: on a worker thread (``asyncio.to_thread``).
_PARAMS_MEMO: OrderedDict[tuple, tuple] = OrderedDict()
_PARAMS_MEMO_MAX = 16_384
_PARAMS_MEMO_LOCK = threading.Lock()


def _split_point(point: Sequence) -> tuple:
    """``(phases, partition, mba_scale, prefetch)`` of one batch point.

    A point is ``(phases, partition[, mba_scale[, prefetch]])``; the
    missing trailing fields are ``None``.
    """
    if len(point) == 4:
        return tuple(point)
    if len(point) == 3:
        return (*point, None)
    if len(point) == 2:
        return (*point, None, None)
    raise ValueError(
        "points must be (phases, partition[, mba_scale[, prefetch]]) tuples"
    )


def _parse_points(
    platform: PlatformConfig, points: Sequence[tuple]
) -> list[tuple]:
    """Normalise batch points into ``(phases, partition, mba, params)``.

    The fast kernel's input. Parameter columns are memoised per
    ``(platform, phases, mba, prefetch)`` in a bounded module-level cache
    — campaign populations reuse one phase tuple across many partitions
    and many solver calls, so most points share already-built
    (never-mutated) columns. The prefetch axis lives
    entirely inside the params (see :func:`_point_params`), so parsed
    tuples stay 4-long and the kernel bodies never see it.
    """
    parsed = []
    memo = _PARAMS_MEMO
    # Identity-first memo: campaign populations overwhelmingly reuse the
    # *same tuple object* for phases across partitions (tuple() of a tuple
    # is the identity; the fused prewarm builds one tuple per phase
    # combination and shares it across every partition of a pair, UM and
    # CT alike), and id-keyed hits skip hashing and comparing ten-Phase
    # tuples. Values pin the phases object so ids stay valid for the
    # duration of the call; the equality-keyed module memo remains the
    # fallback for equal-but-distinct tuples (a Server's per-call products,
    # prefetch ladders across calls).
    id_memo: dict[tuple, tuple] = {}
    id_memo_get = id_memo.get
    parsed_append = parsed.append
    for point in points:
        phases, partition, mba, prefetch = _split_point(point)
        phases = tuple(phases)
        mba = None if mba is None else tuple(float(x) for x in mba)
        prefetch = (
            None if prefetch is None else tuple(float(x) for x in prefetch)
        )
        # Memo hits skip _point_params, so the shape check runs here.
        if len(phases) != partition.n_cores:
            raise ValueError(
                f"expected {partition.n_cores} phases, got {len(phases)}"
            )
        hit = id_memo_get((id(phases), mba, prefetch))
        if hit is not None:
            _ref, params = hit
        else:
            key = (platform, phases, mba, prefetch)
            with _PARAMS_MEMO_LOCK:
                params = memo.get(key)
                if params is not None:
                    memo.move_to_end(key)
                    SOLVER_COUNTERS["params_memo_hits"] += 1
            if params is None:
                # Tuples: no spare capacity, and the entry is shared.
                params = tuple(
                    map(tuple, _point_params(
                        platform, phases, partition, mba, prefetch
                    ))
                )
                with _PARAMS_MEMO_LOCK:
                    SOLVER_COUNTERS["params_memo_misses"] += 1
                    memo[key] = params
                    while len(memo) > _PARAMS_MEMO_MAX:
                        memo.popitem(last=False)
                        SOLVER_COUNTERS["params_memo_evictions"] += 1
            id_memo[(id(phases), mba, prefetch)] = (phases, params)
        parsed_append((phases, partition, mba, params))
    return parsed


def solve_steady_state_batch(
    platform: PlatformConfig,
    points: Sequence[tuple],
    *,
    tol: float = 1e-6,
    max_iter: int = 800,
    damping: float = 0.5,
    precision: str = "exact",
) -> list[SteadyState]:
    """Solve many operating points in one call.

    ``points`` is a sequence of ``(phases, partition)``, ``(phases,
    partition, mba_scale)`` or ``(phases, partition, mba_scale,
    prefetch)`` tuples sharing one ``platform``; one
    :class:`SteadyState` is returned per point, in order.

    ``precision="exact"`` solves each point with the scalar
    :func:`solve_steady_state`, so result ``i`` is byte-identical to
    ``solve_steady_state(platform, *points[i])``; a point that does not
    converge raises ``ConvergenceError("lane i: ...")``.

    ``precision="fast"`` runs the tolerance-contracted vectorised kernel
    (DESIGN.md §10) over all points at once. Points may have different
    core counts — lanes are padded to the widest point with neutral
    parameters (zero access rate, zero bytes per miss) that contribute
    exactly ``0.0`` to shared-link demand. Results agree with exact
    solves to within :data:`FAST_REL_TOL`/:data:`FAST_WAYS_ATOL` and
    remain pure per lane, but are not bitwise-reproducible against the
    scalar solver.
    """
    _check_precision(precision)
    _check_iteration(tol, max_iter, damping)
    if len(points) == 0:
        return []
    if precision == "fast":
        return _solve_fast(
            platform, points, tol=tol, max_iter=max_iter, damping=damping
        )
    states = []
    split = [_split_point(point) for point in points]
    for i, (phases, partition, mba, prefetch) in enumerate(split):
        try:
            states.append(
                solve_steady_state(
                    platform, phases, partition, mba_scale=mba,
                    prefetch=prefetch, tol=tol, max_iter=max_iter,
                    damping=damping,
                )
            )
        except ConvergenceError as exc:
            raise ConvergenceError(f"lane {i}: {exc}") from None
    return states


#: The vectorised kernel iterates only while more than this many lanes
#: are live; fewer run faster one at a time (measured in DESIGN.md §10).
_FAST_LANE_CAP = 24


def _solve_fast(
    platform: PlatformConfig,
    points: Sequence[tuple],
    *,
    tol: float,
    max_iter: int,
    damping: float,
) -> list[SteadyState]:
    """Fast-kernel solve of raw points, shadowed under REPRO_FAST_CHECK."""
    states = _solve_batch_fast(
        platform, _parse_points(platform, points),
        tol=tol, max_iter=max_iter, damping=damping,
    )
    SOLVER_COUNTERS["fast_solves"] += 1
    SOLVER_COUNTERS["fast_points"] += len(states)
    SOLVER_COUNTERS["fast_iterations"] += sum(s.iterations for s in states)
    if _fast_check_enabled():
        _assert_fast_contract(
            platform, points, states,
            tol=tol, max_iter=max_iter, damping=damping,
        )
    return states


class FastContractError(AssertionError):
    """A ``precision="fast"`` result left the documented tolerance band.

    Raised only in the ``REPRO_FAST_CHECK=1`` debug assertion mode, which
    shadows every fast solve with an exact solve of the same points.
    """


def _fast_check_enabled() -> bool:
    return os.environ.get("REPRO_FAST_CHECK", "") not in ("", "0")


def _fast_contract_violations(
    fast: SteadyState, exact: SteadyState
) -> list[str]:
    """Contract violations of one fast lane against its exact twin.

    Empty list = within contract. Relative bounds use :data:`FAST_REL_TOL`;
    quantities with a natural absolute scale (ways, miss ratios in [0, 1],
    bandwidth in bytes) additionally get a small absolute allowance so
    near-zero exact values do not demand impossible relative precision.
    """
    checks = [
        ("ipc", fast.ipc, exact.ipc, FAST_REL_TOL, 0.0),
        ("ways", fast.ways, exact.ways, FAST_REL_TOL, FAST_WAYS_ATOL),
        (
            "miss_ratio",
            fast.miss_ratio,
            exact.miss_ratio,
            FAST_REL_TOL,
            FAST_REL_TOL,
        ),
        ("bw_bytes", fast.bw_bytes, exact.bw_bytes, FAST_REL_TOL, 1.0),
        (
            "latency_cycles",
            np.asarray(fast.latency_cycles),
            np.asarray(exact.latency_cycles),
            FAST_REL_TOL,
            0.0,
        ),
        (
            "utilisation",
            np.asarray(fast.utilisation),
            np.asarray(exact.utilisation),
            FAST_REL_TOL,
            1e-9,
        ),
    ]
    problems = []
    for name, a, b, rtol, atol in checks:
        overshoot = np.abs(a - b) - (atol + rtol * np.abs(b))
        worst = float(overshoot.max()) if overshoot.size else 0.0
        if worst > 0.0:
            problems.append(
                f"{name} exceeds rtol={rtol:g}/atol={atol:g} by {worst:.2e}"
            )
    return problems


def _assert_fast_contract(
    platform: PlatformConfig,
    points: Sequence[tuple],
    fast_states: list[SteadyState],
    *,
    tol: float,
    max_iter: int,
    damping: float,
) -> None:
    """REPRO_FAST_CHECK shadow: exact-solve the points, assert the contract."""
    exact_states = solve_steady_state_batch(
        platform, points, tol=tol, max_iter=max_iter, damping=damping
    )
    for i, (fast, exact) in enumerate(zip(fast_states, exact_states)):
        problems = _fast_contract_violations(fast, exact)
        if problems:
            raise FastContractError(
                f"fast solve of lane {i} left the tolerance contract: "
                + "; ".join(problems)
            )


def _layout_lanes(
    parsed: list[tuple], caps2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[tuple]]:
    """The fast kernel's cold-start iterate and its sharing-step groups.

    Lanes sharing a core-group layout (core count plus each group's
    cores) run their pressure-sharing step as one batched call.
    Campaigns have few layouts (UM and HP/BE per core count) across
    thousands of lanes; the rungs of a DICER ladder, CT-k and overlap
    variants of one split differ only in their way counts, which the
    sharing step gathers per lane. Returns the ``(lanes, width)``
    cold-start ways; each lane's distinct-partition index; the group
    ways (one zero-padded row per distinct partition) and shared ways
    tables it indexes; and one ``(group cores, n_cores, lanes)`` tuple
    per layout, lanes in ascending order.

    Partitions are deduplicated by key (id first: batches reuse
    partition objects) into one row each of group ways, shared ways and
    cold-start iterate: equal split per group plus the shared zone, as
    :func:`_initial_ways` builds it, with pad columns at exactly 0.0.
    The rows are gathered per lane and clamped by ``caps2`` in place.
    """
    slot_of_id: dict[int, int] = {}
    slot_of_key: dict[tuple, int] = {}
    parts: list[PartitionSpec] = []
    pidx = np.empty(len(parsed), dtype=np.int64)
    for i, (_phases, partition, _mba, _params) in enumerate(parsed):
        j = slot_of_id.get(id(partition))
        if j is None:
            j = slot_of_key.setdefault(partition.key(), len(parts))
            if j == len(parts):
                parts.append(partition)
            slot_of_id[id(partition)] = j
        pidx[i] = j
    # Rows are built as float lists (Python float arithmetic is the same
    # IEEE double arithmetic NumPy would do) and converted once.
    width = caps2.shape[1]
    n_groups = max(len(p.groups) for p in parts)
    group_ways_rows = []
    start_rows = []
    layout_of: dict[tuple, int] = {}
    part_layout = []
    for partition in parts:
        nc = partition.n_cores
        layout = (nc, tuple(g.cores for g in partition.groups))
        part_layout.append(layout_of.setdefault(layout, len(layout_of)))
        ways = [g.ways for g in partition.groups]
        group_ways_rows.append(ways + [0.0] * (n_groups - len(ways)))
        start = [0.0] * width
        for group in partition.groups:
            share = group.ways / len(group.cores)
            for core in group.cores:
                start[core] = share
        zone = partition.shared_ways / nc
        for core in range(nc):
            start[core] += zone
        start_rows.append(start)
    ways2 = np.array(start_rows)[pidx]
    np.minimum(ways2, caps2, out=ways2)

    u_group_ways = np.array(group_ways_rows)
    u_shared = np.array([p.shared_ways for p in parts])
    if len(layout_of) == 1:  # ladders and serve warm-ups: skip the sort
        layout_rows = [np.arange(len(parsed))]
    else:
        lane_layout = np.array(part_layout)[pidx]
        layout_rows = np.split(
            np.argsort(lane_layout, kind="stable"),
            np.cumsum(np.bincount(lane_layout))[:-1],
        )
    layouts = [
        (cores, nc, rows) for ((nc, cores), rows) in zip(layout_of, layout_rows)
    ]
    return ways2, pidx, u_group_ways, u_shared, layouts


def _compact_planes(
    compact: list[tuple], width: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[tuple[int, int, object]]]:
    """The fast kernel's parameter planes, one row per distinct params.

    ``compact`` holds ``(phases, params)`` per distinct params object.
    Returns one stacked solver plane — zones [cpi | apki | blk | bpm |
    thr] — the caps plane, one stacked curve plane — zones [knee | sharp
    | blend | scale | floor | span | at1] (see
    MissRatioCurve.fused_fast_params) — and the ``(row, core, curve)``
    slots whose curve cannot be fused, which fall back to per-curve
    eval_many_fast calls. Stacking means one gather per expansion / per
    masked evaluation instead of a dozen. Pads are neutral: cpi and
    throttle 1.0, zero access rate and zero bytes per miss (exactly 0.0
    of link demand), unbounded caps, and unit-scale curve coefficients
    with a flat zero floor and span, which keep the fused evaluation
    finite.

    The solver and caps rows stream, as float tuples (the params columns
    are tuples), into one array each. The curve coefficients are one row
    per distinct fused curve, gathered per slot: fused_fast_params is
    pure per curve object, and the catalog reuses a handful of curve
    instances across thousands of slots. (The phases in ``compact`` pin
    the curves, so their ids stay valid.)
    """
    n_u = len(compact)
    ones = [(1.0,) * pad for pad in range(width + 1)]
    zeros = [(0.0,) * pad for pad in range(width + 1)]
    unbounded = [(math.inf,) * pad for pad in range(width + 1)]
    pads = [width - len(phases) for phases, _params in compact]
    u_solver = np.fromiter(
        itertools.chain.from_iterable(
            cpi + ones[pad] + apki + zeros[pad] + blk + zeros[pad]
            + bpm + zeros[pad] + thr + ones[pad]
            for (_phases, (cpi, apki, blk, bpm, _caps, thr)), pad in zip(
                compact, pads
            )
        ),
        dtype=float,
        count=n_u * 5 * width,
    ).reshape(n_u, 5 * width)
    u_caps = np.fromiter(
        itertools.chain.from_iterable(
            params[4] + unbounded[pad]
            for (_phases, params), pad in zip(compact, pads)
        ),
        dtype=float,
        count=n_u * width,
    ).reshape(n_u, width)
    u_curve = np.ones((n_u, 7 * width))
    u_curve[:, 4 * width : 6 * width] = 0.0  # pad floor/span: flat zero
    tab_slots: list[tuple[int, int, object]] = []
    fused_rows: list[int] = []
    fused_cols: list[int] = []
    curve_row: dict[int, int] = {}
    curve_params: list[tuple] = []
    fused_curves: list[int] = []
    for j, (phases, _params) in enumerate(compact):
        for c, phase in enumerate(phases):
            curve = phase.mrc
            r = curve_row.get(id(curve))
            if r is None:
                fp = curve.fused_fast_params()
                r = curve_row[id(curve)] = -1 if fp is None else len(
                    curve_params
                )
                if fp is not None:
                    curve_params.append(fp)
            if r < 0:
                tab_slots.append((j, c, curve))
            else:
                fused_rows.append(j)
                fused_cols.append(c)
                fused_curves.append(r)
    if fused_curves:
        # Scatter all fused coefficients at once; fp order is
        # (floor, span, blend, scale, knee, sharpness, at_one).
        fv = np.array(curve_params)[fused_curves]
        jj = np.array(fused_rows)
        cc = np.array(fused_cols)
        u_curve[jj, cc] = fv[:, 4]  # knee
        u_curve[jj, width + cc] = fv[:, 5]  # sharpness
        u_curve[jj, 2 * width + cc] = fv[:, 2]  # blend
        u_curve[jj, 3 * width + cc] = fv[:, 3]  # scale
        u_curve[jj, 4 * width + cc] = fv[:, 0]  # floor
        u_curve[jj, 5 * width + cc] = fv[:, 1]  # span
        u_curve[jj, 6 * width + cc] = fv[:, 6]  # at_one
    return u_solver, u_caps, u_curve, tab_slots


def _solve_batch_fast(
    platform: PlatformConfig,
    parsed: list[tuple],
    *,
    tol: float,
    max_iter: int,
    damping: float,
) -> list[SteadyState]:
    """Tolerance-contracted vectorised kernel behind ``precision="fast"``.

    The damped fixed point of the float core over masked NumPy lanes, as
    a head for :func:`_solve_lanes_fast`: converged lanes freeze, and the
    rest iterate while more than :data:`_FAST_LANE_CAP` are live. A lane
    leaves for the float core, which resumes it, when its step reaches
    the 0.02 floor (before the escalation rule could apply), when at most
    :data:`_FAST_LANE_CAP` lanes remain live, or at the latest before
    round ``max_iter``; so the head neither escalates nor fails a lane.
    A batch of at most :data:`_FAST_LANE_CAP` points goes to the float
    core before any parameter plane is built. MRC curves evaluate through
    one fused expression (tabulated ones through ``eval_many_fast``), the
    queue tail is one ``np.power`` call, and the sharing step runs once
    per core-group layout (core count plus each group's cores) and round:
    :func:`~repro.sim.llc._effective_ways_layout` takes each lane's group
    ways and shared ways as arrays, so a k-rung DICER ladder makes one
    call, not k (``solver_counters()["fast_sharing_calls"]``).

    Lane purity (load-bearing for memoisation and the serial-vs-parallel
    determinism audit): a lane's result depends only on its own operating
    point, never on batch composition. Every cross-core reduction runs in
    fixed core order (pad columns contribute exactly ``0.0``), batched
    sharing walks the scalar decision sequence per lane, and NumPy's
    elementwise transcendental kernels are value-deterministic regardless
    of array position — guarded by a property test in
    tests/sim/test_fastmath.py.
    """
    n_points = len(parsed)
    if n_points <= _FAST_LANE_CAP:
        return _solve_lanes_fast(
            platform, parsed, tol=tol, max_iter=max_iter, damping=damping
        )
    n_cores = np.array([partition.n_cores for _, partition, _, _ in parsed])
    width = int(n_cores.max())

    # Build padded parameter planes by gather: parameters (and curve
    # coefficients) depend only on (phases, mba), which campaign
    # populations share across many partitions — compute one compact row
    # per distinct tuple (_compact_planes), then index. Its temporaries
    # die before the head allocates its arrays. _parse_points memoises
    # one params object per distinct (phases, mba), so object identity
    # is the dedup key — no re-hashing of phase tuples. (parsed holds
    # the references, so ids are stable for this call.)
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
    u_solver, u_caps, u_curve, tab_slots = _compact_planes(compact, width)
    solver_plane = u_solver[uidx]
    caps2 = u_caps[uidx]
    curve_plane = u_curve[uidx]
    cpi2 = solver_plane[:, :width]
    apki2 = solver_plane[:, width : 2 * width]
    blk2 = solver_plane[:, 2 * width : 3 * width]
    bpm2 = solver_plane[:, 3 * width : 4 * width]
    thr2 = solver_plane[:, 4 * width :]

    # Expand non-fused slots to per-point (curve, rows, cols) groups.
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

    link = _memory_link(platform)
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
        """Fused curve evaluation over every slot of the masked lanes.

        One elementwise expression covers constant, exponential, knee and
        blended curves (see MissRatioCurve.fused_fast_params); the rare
        non-fused (tabulated) slots are overwritten afterwards through
        their own vectorised paths. Elementwise-only, so each slot's
        result is independent of batch composition. ``lane_mask=None``
        means "all lanes" and skips the boolean gathers entirely.
        """
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
        # Stack the three parameter matrices so each inner evaluation
        # gathers its (shrinking) lane subset once and slices views,
        # instead of paying three separate fancy-index copies.
        w = c2.shape[1]
        stacked = np.concatenate((c2, e2, s2), axis=1)

        def excess_b(lat: np.ndarray, sub: np.ndarray) -> np.ndarray:
            p = stacked[sub]
            # One 2-D divide for all per-core contributions (elementwise,
            # so per-lane values are batch-independent) ...
            contrib = p[:, :w] / (p[:, w : 2 * w] + p[:, 2 * w :] * lat[:, None])
            demand = np.zeros(lat.size)
            # ... then fixed core-order accumulation: pad slots add
            # exactly 0.0 and the order never depends on which lanes
            # share the batch, so lane demand is composition-independent.
            # (An einsum/pairwise reduction would be marginally faster
            # but order-dependent.)
            for j in range(width):
                demand = demand + contrib[:, j]
            u = np.minimum(demand * inv_capacity, u_cap)
            ratio = u / (1.0 - u)
            return lat_floor * (1.0 + gain * np.power(ratio, q_exp)) - lat

        return excess_b

    ways2, part_of, group_ways, shared_ways, layouts = _layout_lanes(
        parsed, caps2
    )
    sharing_calls = 0

    latency = np.full(n_points, lat_floor)
    step = np.full(n_points, damping)
    prev_delta = np.full(n_points, np.inf)
    iterations = np.zeros(n_points, dtype=np.int64)
    # Live lanes: not converged, step above the floor. Lanes that leave
    # unconverged keep their state here for the float core to resume.
    active = np.full(n_points, damping > 0.021)
    done = np.zeros(n_points, dtype=bool)
    row_of = np.empty(n_points, dtype=np.int64)

    for _ in range(max_iter - 1):
        act = np.nonzero(active)[0]
        if act.size <= _FAST_LANE_CAP:
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
        # Intermediate latency roots run at a loosened bracket gap: the
        # damped outer fixed point swamps the difference, and the final
        # consistency root below runs at full precision (the tolerance
        # contract is asserted on end-state outputs).
        lat_a = _illinois_root_batch(
            excess_b, latency[act], lat_floor, lat_ceil, gap_rtol=1e-4
        )
        latency[act] = lat_a
        ipc_a = 1.0 / (cpi_a + mpi_a * blk_a * (lat_a[:, None] / thr_a))

        # Insertion pressure (see the scalar loop) as sharing weights,
        # shared lane-batched per core-group layout. Pad slots keep their
        # current ways so the damped update leaves them at exactly 0.0.
        weights_a = np.power(np.maximum(freq * ipc_a * mpi_a, 0.0), theta)
        ways_a = ways2[act]
        target_a = ways_a.copy()
        row_of[act] = np.arange(act.size)
        for cores, nc, rows in layouts:
            sel = rows[active[rows]]
            if sel.size == 0:
                continue
            p = part_of[sel]
            r = row_of[sel]
            target_a[r, :nc] = _effective_ways_layout(
                cores,
                group_ways[p, : len(cores)],
                shared_ways[p],
                weights_a[r, :nc],
                caps2[sel, :nc],
            )
            sharing_calls += 1
        step_a = step[act]
        ways_next = (1 - step_a[:, None]) * ways_a + step_a[:, None] * target_a
        delta_a = np.max(np.abs(ways_next - ways_a), axis=1)
        ways2[act] = ways_next

        conv = delta_a < delta_tol
        ncv = ~conv
        # Adaptive damping as in the float core (live steps: above floor).
        worse = ncv & (delta_a >= prev_delta[act])
        new_step = step_a.copy()
        new_step[worse] = np.maximum(step_a[worse] * 0.7, 0.02)
        step[act] = new_step
        pd = prev_delta[act]
        pd[ncv] = delta_a[ncv]
        prev_delta[act] = pd
        done[act[conv]] = True
        active[act[conv | (new_step <= 0.021)]] = False

    # The float core finishes every unconverged lane from its state here,
    # and raises for the batch if one of them fails.
    starts = {
        i: (ways2[i, : n_cores[i]].tolist(), float(latency[i]),
            float(step[i]), float(prev_delta[i]), int(iterations[i]))
        for i in np.nonzero(~done)[0].tolist()
    }
    tail = _solve_lanes_fast(
        platform, parsed, tol=tol, max_iter=max_iter, damping=damping,
        starts=starts,
    )

    # Final consistent evaluation on every row; the float core's are dropped.
    np.minimum(ways2, caps2, out=ways2)
    eval_mrc(None)
    mpi2 = apki2 * mr2
    excess_b = make_excess(
        (freq * mpi2) * bpm2, cpi2, (mpi2 * blk2) / thr2
    )
    latency = _illinois_root_batch(excess_b, latency, lat_floor, lat_ceil)
    ipc2 = 1.0 / (cpi2 + mpi2 * blk2 * (latency[:, None] / thr2))
    bw2 = freq * ipc2 * mpi2 * bpm2

    # Bandwidth rationing under extreme overload (see the scalar
    # epilogue), batched: per-lane aggregate demand in fixed core order
    # (pad slots add exactly 0.0), then equal-share waterfilling grouped
    # by core count so pad columns never enter the split.
    demand = np.zeros(n_points)
    for j in range(width):
        demand = demand + bw2[:, j]
    over = np.nonzero(demand > link.capacity_bytes)[0]
    if over.size:
        for nc in np.unique(n_cores[over]):
            sel = over[n_cores[over] == nc]
            bw_sel = bw2[sel, :nc]
            granted = _waterfill_batch(
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

    SOLVER_COUNTERS["fast_sharing_calls"] += sharing_calls

    # Per-lane link utilisation from the fixed-order demand sums above
    # (post-rationing): trailing pad columns add exactly 0.0, so the value
    # depends only on the lane's own bandwidth vector.
    util = demand / link.capacity_bytes
    lat_list = latency.tolist()
    util_list = util.tolist()
    iter_list = iterations.tolist()

    # Each plane is row-sliced into per-point views, not copied: the
    # kernel owns the planes and never touches them again. The views pin
    # their (n_points, width) base arrays, which is at most a few MB per
    # batch and dies with the returned states.
    finished = dict(zip(starts, tail))
    return [
        finished[i]
        if i in finished
        else SteadyState(
            ipc=ipc2[i, :nc],
            ways=ways2[i, :nc],
            miss_ratio=mr2[i, :nc],
            bw_bytes=bw2[i, :nc],
            latency_cycles=lat_list[i],
            utilisation=util_list[i],
            iterations=iter_list[i],
        )
        for i, nc in enumerate(n_cores.tolist())
    ]


#: Curve coefficients of a slot the fused expression cannot evaluate, as
#: the vectorised kernel pads them: (floor, span, blend, scale, knee,
#: sharpness, at_one). The slot's own ``eval_many_fast`` overwrites it.
_UNFUSED_SLOT = (0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0)


def _lane_spec(phases: tuple, params: tuple) -> tuple:
    """One lane's float-list parameters and fused miss-ratio function.

    Returns the six parameter lists of :func:`_point_params` and
    ``miss_ratios(ways)``, the vectorised kernel's fused curve expression
    on one lane's row. The fused coefficients sit in seven per-core lists
    (the zones of the kernel's curve plane); a slot whose curve cannot be
    fused is padded and overwritten by its own ``eval_many_fast``.

    Every operation repeats ``eval_mrc``'s per-element order on Python
    floats (``np.clip`` and ``np.where`` as comparisons, so NaN and
    ``-0.0`` pass through as they do there). Both exponentials go through
    one ``np.exp`` call: ``math.exp`` differs from it in the last ulp.
    """
    cols: tuple[list, ...] = ([], [], [], [], [], [], [])
    unfused = []
    for core, phase in enumerate(phases):
        fp = phase.mrc.fused_fast_params()
        if fp is None:
            unfused.append((core, phase.mrc))
            fp = _UNFUSED_SLOT
        for col, value in zip(cols, fp):
            col.append(value)
    floor, span, blend, scale, knee, sharp, at_one = cols
    n = len(phases)

    def miss_ratios(ways: list[float]) -> list[float]:
        z = [(w - k) / s for w, k, s in zip(ways, knee, sharp)]
        args = [-(-40.0 if x < -40.0 else 40.0 if x > 40.0 else x) for x in z]
        args += [-w / c for w, c in zip(ways, scale)]
        ex = np.exp(np.array(args)).tolist()
        out = []
        for c in range(n):
            x = z[c]
            if x > 40.0:
                kp = 0.0
            elif x < -40.0:
                kp = 1.0
            else:
                kp = 1.0 - 1.0 / (1.0 + ex[c])
            b = blend[c]
            value = floor[c] + span[c] * (b * ex[n + c] + (1.0 - b) * kp)
            w = ways[c]
            if w < 1.0:
                value = 1.0 + (at_one[c] - 1.0) * w
            out.append(0.0 if value < 0.0 else 1.0 if value > 1.0 else value)
        for c, curve in unfused:
            out[c] = float(curve.eval_many_fast(np.array([ways[c]]))[0])
        return out

    return params, miss_ratios


def _solve_lanes_fast(
    platform: PlatformConfig,
    parsed: list[tuple],
    *,
    tol: float,
    max_iter: int,
    damping: float,
    starts: dict[int, tuple | None] | None = None,
) -> list[SteadyState]:
    """The fast kernel's tail: one lane at a time on floats.

    The vectorised kernel's fixed cost per round dominates a few lanes
    (DESIGN.md §10). This loop solves each lane with :func:`_solve_floats`
    in its fast mode, bit-identical to the vectorised kernel. ``starts``
    maps the lanes to solve, in ascending order, to their start states
    (``None`` is a cold start); by default every lane starts cold.

    The one place a fast lane fails: the lane that overruns its budget in
    the earliest round, the lowest index on a tie, raises. Once a lane
    has overrun, later lanes run only as long as they could overrun first.
    """
    link = _memory_link(platform)
    specs: dict[int, tuple] = {}
    fail = None  # (round, lane, latency) of the earliest budget overrun
    states = []
    for lane in range(len(parsed)) if starts is None else sorted(starts):
        phases, partition, _mba, params = parsed[lane]
        spec = specs.get(id(params))
        if spec is None:
            spec = specs[id(params)] = _lane_spec(phases, params)
        lists, miss_ratios = spec
        state, iterations, latency = _solve_floats(
            platform,
            link,
            partition,
            lists,
            miss_ratios,
            fast=True,
            tol=tol,
            max_iter=max_iter,
            damping=damping,
            stop_at=None if fail is None else fail[0],
            start=None if starts is None else starts[lane],
        )
        if state is None:
            if fail is None or iterations < fail[0]:
                fail = (iterations, lane, latency)
        else:
            states.append(state)
    if fail is not None:
        rounds, lane, latency = fail
        raise ConvergenceError(
            f"fast lane {lane}: no convergence after {rounds} "
            f"iterations (latency={latency:.1f} cy, precision=fast)"
        )
    SOLVER_COUNTERS["fast_lane_points"] += len(states)
    return states


class SteadyStateCache(dict):
    """Memo of cold steady-state solves: ``make_key`` -> :class:`SteadyState`.

    Each :class:`~repro.sim.server.Server` keeps one: a run re-requests
    the same operating point every monitoring period and between events,
    and re-visits the partitions of DICER's sampling grid and descent
    ladders. The solo baselines use a fresh instance for one
    :meth:`solve_many`, which dedups within the call; the campaign
    prewarm (:func:`~repro.sim.server.stage_phase_products`) keys its
    runs itself, so its points are distinct, and calls
    :func:`solve_steady_state_batch` directly.

    Every entry is a cold solve of its key, a pure function of the
    operating point, so a hit is byte-identical to re-solving. Keys carry
    the ``precision`` (DESIGN.md §10): an exact entry is a bitwise scalar
    solve, a fast one a fast-kernel lane, and the two never cross. Cold
    solves count ``steady_cache.misses`` and time
    ``steady_cache.solve_seconds`` (DESIGN.md §6).
    """

    @staticmethod
    def make_key(
        platform: PlatformConfig,
        phases: Sequence[Phase],
        partition: PartitionSpec,
        mba_scale: Sequence[float] | None,
        precision: str = "exact",
        *,
        prefetch: Sequence[float] | None = None,
    ) -> tuple:
        """Hashable identity of one operating point under one contract.

        ``mba_scale`` and ``prefetch`` enter as tuples, ``None`` when
        absent.
        """
        return (
            tuple(phases),
            partition.key(),
            None if mba_scale is None else tuple(mba_scale),
            platform,
            _check_precision(precision),
            None if prefetch is None else tuple(prefetch),
        )

    def solve(
        self,
        platform: PlatformConfig,
        phases: Sequence[Phase],
        partition: PartitionSpec,
        *,
        mba_scale: Sequence[float] | None = None,
        prefetch: Sequence[float] | None = None,
        precision: str = "exact",
        key: tuple | None = None,
    ) -> SteadyState:
        """Fetch (or cold-solve and memoise) one operating point.

        ``key`` is the point's :meth:`make_key`, for a caller that has
        already built it.
        """
        if key is None:
            key = self.make_key(
                platform, phases, partition, mba_scale, precision,
                prefetch=prefetch,
            )
        state = self.get(key)
        if state is None:
            registry = get_registry()
            registry.counter("steady_cache.misses").inc()
            t0 = time.perf_counter()
            state = solve_steady_state(
                platform, phases, partition,
                mba_scale=mba_scale, prefetch=prefetch, precision=precision,
            )
            registry.histogram("steady_cache.solve_seconds").observe(
                time.perf_counter() - t0
            )
            self[key] = state
        return state

    def solve_many(
        self,
        platform: PlatformConfig,
        points: Sequence[tuple],
        *,
        precision: str = "exact",
    ) -> list[SteadyState]:
        """Fetch (or cold-solve and memoise) many operating points.

        ``points`` entries are ``(phases, partition)``, ``(phases,
        partition, mba_scale)`` or ``(phases, partition, mba_scale,
        prefetch)`` tuples. The distinct points not yet memoised go to
        the kernel that is cheap for their precision (DESIGN.md §7):

        * ``precision="fast"``: ONE fast
          :func:`solve_steady_state_batch` call, even for a single point.
          Fast lanes are pure per lane, so the entry is the same whichever
          batch solved it.
        * ``precision="exact"``: one scalar :func:`solve_steady_state`
          per point.

        A batch that raises memoises nothing. New entries are appended in
        the order their points first appear.
        """
        _check_precision(precision)
        keys = []
        pending: dict[tuple, tuple] = {}
        for point in points:
            phases, partition, mba, prefetch = _split_point(point)
            key = self.make_key(
                platform, phases, partition, mba, precision,
                prefetch=prefetch,
            )
            keys.append(key)
            if key not in self:
                pending.setdefault(key, point)
        if pending:
            registry = get_registry()
            registry.counter("steady_cache.misses").inc(len(pending))
            cold = list(pending.values())
            t0 = time.perf_counter()
            if precision == "fast":
                states = solve_steady_state_batch(
                    platform, cold, precision=precision
                )
            else:
                states = [
                    solve_steady_state(
                        platform, phases, partition, mba_scale=mba,
                        prefetch=prefetch, precision=precision,
                    )
                    for phases, partition, mba, prefetch in map(
                        _split_point, cold
                    )
                ]
            if registry.enabled:
                # One observation per point at the call's amortised cost.
                per_point = (time.perf_counter() - t0) / len(cold)
                histogram = registry.histogram("steady_cache.solve_seconds")
                for _ in cold:
                    histogram.observe(per_point)
            self.update(zip(pending, states))
        return [self[key] for key in keys]
