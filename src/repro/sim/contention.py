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

:func:`solve_steady_state_batch` advances B operating points through the
same iteration simultaneously with masked NumPy lanes (see DESIGN.md §7):
converged lanes freeze, stragglers keep iterating, and every elementwise
operation reproduces the scalar solver's op sequence so each lane's result
is byte-identical to a scalar cold solve of the same point.

Both solvers take ``precision`` (DESIGN.md §10). ``"exact"`` (the library
default) is the bitwise contract above. ``"fast"`` trades it for a
*tolerance* contract — results agree with the exact kernel to within
:data:`FAST_REL_TOL` / :data:`FAST_WAYS_ATOL` — in exchange for a fully
vectorised kernel: ``np.power`` queue tails, vectorised transcendental MRC
evaluation, and lane-batched pressure sharing, with no masked-scalar tail.
Fast results are still *pure per lane*: a lane's bits depend only on its
own operating point, never on batch composition, so fused cross-cell
batches, memoisation and the serial-vs-parallel determinism audit all keep
working. Set ``REPRO_FAST_CHECK=1`` to shadow every fast solve with an
exact solve and assert the contract at runtime.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.obs import get_registry
from repro.sim.llc import (
    effective_ways,
    effective_ways_batch,
    waterfill,
    waterfill_batch,
)
from repro.sim.membus import MemoryLink
from repro.sim.partition import PartitionSpec
from repro.sim.platform import PlatformConfig
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
    "GLOBAL_STEADY_CACHE",
    "solver_counters",
    "reset_solver_counters",
    "record_solver_points",
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
#: ~free next to a solve). ``scalar_solves`` counts calls into the Python
#: solver, ``batch_points`` counts operating points that went through the
#: bitwise-exact vectorised kernel, ``fast_points`` the points solved by
#: the tolerance-contracted fast kernel; ``scalar + batch + fast`` points
#: over Python-level calls is the headline "fewer per-point Python solver
#: calls" metric in BENCH_headline.json.
SOLVER_COUNTERS: dict[str, int] = {
    "scalar_solves": 0,
    "scalar_iterations": 0,
    "batch_solves": 0,
    "batch_points": 0,
    "batch_iterations": 0,
    "fast_solves": 0,
    "fast_points": 0,
    "fast_iterations": 0,
    # _PARAMS_MEMO parse-cache effectiveness (bounded LRU, see below).
    "params_memo_hits": 0,
    "params_memo_misses": 0,
    "params_memo_evictions": 0,
}


def _check_precision(precision: str) -> str:
    if precision not in PRECISIONS:
        raise ValueError(
            f"precision must be one of {PRECISIONS}, got {precision!r}"
        )
    return precision


#: Active point recorder (see :func:`record_solver_points`); ``None`` when
#: recording is off.
_POINT_RECORDER: list | None = None


@contextmanager
def record_solver_points():
    """Capture every cold operating point the solvers see while active.

    Yields a list that accumulates ``(phases, partition, mba_scale,
    prefetch)`` tuples — one per point entering
    :func:`solve_steady_state` or a batch kernel (memo hits are not
    recorded; they never reach the kernels). Recorded tuples feed straight
    back into :func:`solve_steady_state_batch` as points.
    Benchmarks use this to harvest a campaign's exact solve population and
    re-solve it under both precision modes for an apples-to-apples kernel
    speedup (``make bench-fast``).
    """
    global _POINT_RECORDER
    previous = _POINT_RECORDER
    _POINT_RECORDER = [] if previous is None else previous
    try:
        yield _POINT_RECORDER
    finally:
        _POINT_RECORDER = previous


def _record_point(
    phases: tuple,
    partition: PartitionSpec,
    mba_scale,
    prefetch=None,
) -> None:
    if _POINT_RECORDER is not None:
        _POINT_RECORDER.append(
            (
                phases,
                partition,
                None if mba_scale is None else tuple(mba_scale),
                None if prefetch is None else tuple(prefetch),
            )
        )


def solver_counters() -> dict:
    """A snapshot of the process-wide solver call/iteration counters.

    The flat keys are the raw counters. ``by_kernel`` is a derived view
    attributing work to the solver that did it (``exact`` combines the
    scalar and exact-batch paths; ``fast`` is the vectorised
    tolerance-contracted solver), so ``report --metrics`` and bench
    artefacts can say which precision solved what.
    """
    snap: dict = dict(SOLVER_COUNTERS)
    snap["by_kernel"] = {
        "exact": {
            "solves": snap["scalar_solves"] + snap["batch_solves"],
            "points": snap["scalar_solves"] + snap["batch_points"],
            "iterations": snap["scalar_iterations"]
            + snap["batch_iterations"],
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


def _point_params(
    platform: PlatformConfig,
    phases: Sequence[Phase],
    partition: PartitionSpec,
    mba_scale: Sequence[float] | None,
    prefetch: Sequence[float] | None = None,
) -> tuple[np.ndarray, ...]:
    """Per-core parameter arrays for one operating point.

    Shared by the scalar and batched solvers so both see bit-identical
    inputs (same construction, same op order). The prefetch-throttle axis
    folds into the parameter arrays here — effective blocking grows by the
    re-exposed stall, bytes-per-miss shrinks by the suppressed waste — so
    the scalar, exact-batch and fast solvers pick it up without any
    change to their iteration bodies. ``prefetch=None`` skips the
    transform entirely, and a level of exactly ``0.0`` multiplies by
    ``1.0`` (a bitwise identity), so unthrottled points stay byte-for-byte
    what they were before the axis existed.
    """
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


def _initial_ways(partition: PartitionSpec, caps: np.ndarray) -> np.ndarray:
    """Cold-start iterate: equal split per group plus the shared zone.

    The shared zone is distributed once across ALL cores, not once per
    group, or the guess double-counts it and the damped path can carry the
    surplus into the converged allocation.
    """
    ways = np.zeros(partition.n_cores)
    for group in partition.groups:
        idx = list(group.cores)
        ways[idx] = group.ways / len(idx)
    ways += partition.shared_ways / partition.n_cores
    return np.minimum(ways, caps)


def _illinois_root(excess, guess: float, lat_floor: float, lat_ceil: float) -> float:
    """Root of a strictly decreasing ``excess`` on ``[lat_floor, lat_ceil]``.

    Brackets the root around ``guess`` by geometric expansion, then closes
    in with the Illinois variant of regula falsi: guaranteed convergence,
    superlinear in practice (~6-10 evaluations vs ~50 for plain bisection).
    The expansion loops carry the previously evaluated endpoint forward, so
    no point is ever evaluated twice (the pre-refactor code re-evaluated
    ``excess`` at the step before the sign flip).
    """
    if excess(lat_floor) <= 0.0:
        return lat_floor
    if excess(lat_ceil) >= 0.0:
        return lat_ceil

    # Bracket around the warm start: expand geometrically until signs
    # differ. The boundary checks above guarantee a sign change inside
    # (floor, ceil), so each loop flips within its 60-step budget.
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

    # Illinois regula falsi on the strictly decreasing excess().
    for _ in range(60):
        if hi - lo < 1e-7 * hi:
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
    warm_start: tuple[Sequence[float], float] | None = None,
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
    warm_start:
        Optional ``(ways, latency_cycles)`` initial iterate, typically the
        previous monitoring period's converged operating point. Cuts the
        iteration count substantially when the operating point barely moved,
        at the price of bit-reproducibility: the converged result can differ
        from a cold solve in the last few floating-point digits (both sit
        within ``tol`` of the true fixed point). Leave ``None`` wherever
        results must be byte-identical across runs. Ignored under
        ``precision="fast"``.
    precision:
        ``"exact"`` (default) runs the bitwise-reproducible scalar solver;
        ``"fast"`` routes the point through the tolerance-contracted
        vectorised kernel (DESIGN.md §10). Fast results are a pure
        function of the operating point (``warm_start`` is ignored), so
        they stay safe to memoise.
    """
    if _check_precision(precision) == "fast":
        parsed = _parse_points(
            platform, [(phases, partition, mba_scale, prefetch)]
        )
        return _solve_batch_fast(
            platform, parsed, tol=tol, max_iter=max_iter, damping=damping
        )[0]
    n = partition.n_cores
    cpi_exe, apki, blocking, bytes_per_miss, caps, throttle = _point_params(
        platform, phases, partition, mba_scale, prefetch
    )
    _record_point(tuple(phases), partition, mba_scale, prefetch)

    link = MemoryLink.from_platform(platform)
    freq = platform.freq_hz

    def mrc_eval(ways: np.ndarray) -> np.ndarray:
        return np.array([p.mrc(w) for p, w in zip(phases, ways)])

    lat_floor = link.base_latency_cycles
    lat_ceil = link.max_latency_cycles

    # Loop-invariant setup for solve_latency, hoisted out of the outer
    # fixed-point loop: only ``mpi`` changes between calls, so the per-core
    # parameter lists and the link-curve constants are built exactly once.
    # The per-element products below keep the original NumPy evaluation
    # order ((mpi*blocking)/throttle, (freq*mpi)*bytes_per_miss) so results
    # stay bit-identical to the vectorised form.
    blocking_list = blocking.tolist()
    throttle_list = throttle.tolist()
    bytes_per_miss_list = bytes_per_miss.tolist()
    cpi_exe_list = cpi_exe.tolist()
    inv_capacity = 1.0 / link.capacity_bytes
    u_cap = link.utilisation_cap
    gain = link.queue_gain
    q_exp = link.queue_exponent

    def solve_latency(mpi: np.ndarray, guess: float) -> float:
        """Inner 1-D fixed point: latency consistent with its own demand.

        For fixed per-core miss rates, the map
        ``L -> link.latency(total_bw(L))`` is monotone *decreasing* in L
        (higher latency -> lower IPC -> less traffic -> lower latency), so
        ``excess(L) = g(L) - L`` is strictly decreasing with a unique root,
        found by :func:`_illinois_root` warm-started near ``guess`` (across
        outer iterations the latency barely moves).
        """
        # Pure-Python accumulation with the link curve inlined: for ~10
        # cores, float loops beat NumPy's per-call dispatch overhead by ~5x,
        # and excess() dominates the solver's profile.
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

        def excess(lat: float) -> float:
            demand = 0.0
            for c, e, s in triples:
                demand += c / (e + s * lat)
            u = demand * inv_capacity
            if u > u_cap:
                u = u_cap
            return lat_floor * (1.0 + gain * (u / (1.0 - u)) ** q_exp) - lat

        return _illinois_root(excess, guess, lat_floor, lat_ceil)

    # Initial iterate; a warm start replaces the cold guess with the
    # caller's previous iterate (clamped into the feasible region).
    if warm_start is None:
        ways = _initial_ways(partition, caps)
        latency = link.base_latency_cycles
    else:
        warm_ways, warm_latency = warm_start
        ways = np.asarray(warm_ways, dtype=float).copy()
        if ways.shape != (n,):
            raise ValueError(
                f"warm_start ways must have length {n}, got {ways.shape}"
            )
        ways = np.clip(ways, 0.0, np.minimum(caps, float(partition.total_ways)))
        latency = min(max(float(warm_latency), lat_floor), lat_ceil)

    step = damping
    max_iter_budget = max_iter
    prev_delta = float("inf")
    iterations = 0
    while iterations < max_iter_budget:
        iterations += 1
        mr = mrc_eval(ways)
        mpi = apki * mr  # misses per instruction
        latency = solve_latency(mpi, latency)
        ipc = 1.0 / (cpi_exe + mpi * blocking * (latency / throttle))

        # Insertion pressure: under LRU only MISSES insert lines (hits
        # refresh recency and protect the resident set), so steady-state
        # occupancy tracks each competitor's miss rate, not its access rate.
        pressure = freq * ipc * mpi
        ways_target = effective_ways(
            partition, pressure, caps, platform.pressure_theta
        )
        ways_next = (1 - step) * ways + step * ways_target
        ways_delta = float(np.max(np.abs(ways_next - ways)))
        ways = ways_next
        if ways_delta < tol * platform.llc_ways:
            break
        # Adaptive damping: near mr(0)=1 the pressure feedback is steep
        # (fewer ways -> more misses -> more insertion pressure -> more
        # ways), which limit-cycles at fixed step size. A non-shrinking
        # delta means we are orbiting the fixed point: tighten the step.
        if ways_delta >= prev_delta:
            if step > 0.021:
                step = max(step * 0.7, 0.02)
            else:
                # Already at the floor step: grant a larger budget — the
                # remaining error shrinks slowly but monotonically.
                max_iter_budget = max_iter * 10
        prev_delta = ways_delta
    if iterations >= max_iter_budget:
        raise ConvergenceError(
            f"no convergence after {iterations} iterations "
            f"(latency={latency:.1f} cy)"
        )
    SOLVER_COUNTERS["scalar_solves"] += 1
    SOLVER_COUNTERS["scalar_iterations"] += iterations

    # Final consistent evaluation at the converged operating point. The
    # damped iterate can sit an epsilon above an occupancy cap (it converges
    # onto the cap from above); clamp so the invariant holds exactly.
    ways = np.minimum(ways, caps)
    mr = mrc_eval(ways)
    mpi = apki * mr
    latency = solve_latency(mpi, latency)
    cpi = cpi_exe + mpi * blocking * (latency / throttle)
    ipc = 1.0 / cpi
    bw = freq * ipc * mpi * bytes_per_miss

    # Bandwidth rationing. The latency curve is capped (utilisation_cap), so
    # under extreme overload the latency equilibrium alone can leave
    # aggregate demand above the physical link capacity. When that happens
    # the link becomes a throughput bottleneck: achieved bandwidth is
    # rationed *equal-share* across demanders (light consumers keep their
    # full demand, heavy ones split the remainder — approximating the
    # fairness of FR-FCFS memory scheduling), and each throttled core's IPC
    # drops in proportion to its granted fraction.
    demand = float(bw.sum())
    if demand > link.capacity_bytes:
        granted = waterfill(
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
        # True achieved utilisation (rationing guarantees <= 1); the capped
        # MemoryLink.utilisation is only for the latency curve's domain.
        utilisation=float(bw.sum()) / link.capacity_bytes,
        iterations=iterations,
    )


def _illinois_root_batch(excess_b, guess, lat_floor, lat_ceil, gap_rtol=1e-7):
    """Vectorised :func:`_illinois_root`: one root per lane.

    ``excess_b(lat, lanes)`` evaluates the per-lane excess at ``lat[k]``
    for lane ``lanes[k]``. Every lane walks exactly the decision sequence
    of the scalar root finder — the same boundary checks, the same
    expansion steps, the same Illinois updates — via shrinking index sets,
    so each lane's root is bit-identical to a scalar solve of that lane.
    Lanes that finish (boundary hit, bracket gap closed, exact root) are
    dropped from the index sets and their state freezes.

    ``gap_rtol`` is the relative bracket-gap stop; the default matches the
    scalar root finder (callers on the exact path must not override it).
    The fast kernel loosens it for *intermediate* fixed-point iterations
    only — the final consistency root always runs at full precision.
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

    # Bracket around each lane's warm start by geometric expansion. The
    # boundary checks above guarantee a sign change strictly inside
    # (floor, ceil), so every lane flips within the 60-step budget.
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

    # Masked Illinois regula falsi on the strictly decreasing excess().
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
        f_hi[pi] *= 0.5  # Illinois: damp the stale endpoint.
        ni = running[neg]
        hi[ni] = mid[neg]
        f_hi[ni] = f_mid[neg]
        f_lo[ni] *= 0.5
        running = running[~zero]
    res = 0.5 * (lo + hi)
    res[exact] = exact_val[exact]
    out[rem] = res
    return out


#: Module-level memo of :func:`_point_params` arrays, keyed
#: ``(platform, phases, mba, prefetch)``. The arrays are construction-identical on
#: every rebuild and never mutated downstream (both kernels already share
#: them across lanes within a call), so cross-call reuse cannot change a
#: single bit of any solve. Bounded by wholesale clearing at the cap —
#: campaign working sets (one entry per distinct phase combination) sit
#: orders of magnitude below it.
#: Bounded LRU over per-point parameter arrays, keyed ``(platform,
#: phases, mba, prefetch)``. Long-running queue workers revisit phase tuples across
#: thousands of solver calls; LRU eviction (oldest entry out, counted in
#: ``solver_counters()["params_memo_evictions"]``) keeps the cache from
#: growing without limit while preserving the hot working set — the old
#: wholesale ``clear()`` at the cap threw the entire working set away.
#: The lock makes concurrent access safe under ``pool="threads"``.
_PARAMS_MEMO: OrderedDict[tuple, tuple] = OrderedDict()
_PARAMS_MEMO_MAX = 100_000
_PARAMS_MEMO_LOCK = threading.Lock()


def _parse_points(
    platform: PlatformConfig, points: Sequence[tuple]
) -> list[tuple]:
    """Normalise batch points into ``(phases, partition, mba, params)``.

    Shared by both batch kernels so each sees identically validated
    inputs; also feeds the active :func:`record_solver_points` recorder.
    Parameter arrays are memoised per ``(platform, phases, mba, prefetch)``
    in a bounded module-level cache — campaign populations reuse one phase
    tuple across many partitions and many solver calls, so most points
    share already-built (never-mutated) arrays. The prefetch axis lives
    entirely inside the params (see :func:`_point_params`), so parsed
    tuples stay 4-long and the kernel bodies never see it.
    """
    parsed = []
    memo = _PARAMS_MEMO
    # Identity-first memo: campaign populations overwhelmingly reuse the
    # *same tuple object* for phases across partitions (tuple() of a tuple
    # is the identity), and id-keyed hits skip hashing and comparing
    # ten-Phase tuples. Values pin the phases object so ids stay valid for
    # the duration of the call; the equality-keyed module memo remains the
    # fallback for equal-but-distinct tuples.
    id_memo: dict[tuple, tuple] = {}
    id_memo_get = id_memo.get
    recorder = _POINT_RECORDER
    parsed_append = parsed.append
    for point in points:
        prefetch = None
        if len(point) == 2:
            (phases, partition), mba = point, None
        elif len(point) == 3:
            phases, partition, mba = point
        elif len(point) == 4:
            phases, partition, mba, prefetch = point
        else:
            raise ValueError(
                "points must be (phases, partition[, mba_scale"
                "[, prefetch]]) tuples"
            )
        phases = tuple(phases)
        mba = None if mba is None else tuple(float(x) for x in mba)
        prefetch = (
            None if prefetch is None else tuple(float(x) for x in prefetch)
        )
        hit = id_memo_get((id(phases), mba, prefetch))
        if hit is not None:
            _ref, params = hit
            if len(phases) != partition.n_cores:
                raise ValueError(
                    f"expected {partition.n_cores} phases, got {len(phases)}"
                )
        else:
            key = (platform, phases, mba, prefetch)
            with _PARAMS_MEMO_LOCK:
                params = memo.get(key)
                if params is not None:
                    memo.move_to_end(key)
                    SOLVER_COUNTERS["params_memo_hits"] += 1
            if params is None:
                params = _point_params(
                    platform, phases, partition, mba, prefetch
                )
                with _PARAMS_MEMO_LOCK:
                    SOLVER_COUNTERS["params_memo_misses"] += 1
                    memo[key] = params
                    while len(memo) > _PARAMS_MEMO_MAX:
                        memo.popitem(last=False)
                        SOLVER_COUNTERS["params_memo_evictions"] += 1
            elif len(phases) != partition.n_cores:
                # The memo hit skipped _point_params' shape validation.
                raise ValueError(
                    f"expected {partition.n_cores} phases, got {len(phases)}"
                )
            id_memo[(id(phases), mba, prefetch)] = (phases, params)
        if recorder is not None:
            recorder.append((phases, partition, mba, prefetch))
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
    """Solve B operating points simultaneously with masked NumPy lanes.

    ``points`` is a sequence of ``(phases, partition)``, ``(phases,
    partition, mba_scale)`` or ``(phases, partition, mba_scale,
    prefetch)`` tuples sharing one ``platform``; one
    :class:`SteadyState` is returned per point, in order. Points may have
    different core counts — lanes are padded to the widest point with
    neutral parameters (zero access rate, zero bytes per miss) that
    contribute exactly ``0.0`` to shared-link demand.

    Parity guarantee under ``precision="exact"`` (DESIGN.md §7): each lane
    reproduces the scalar solver's floating-point op sequence — per-core
    demand accumulated in core order, the queue-curve power tail computed
    with Python floats, MRC lookups deduplicated but evaluated with
    ``__call__``-identical arithmetic — so lane ``i`` is byte-identical to
    ``solve_steady_state(platform, *points[i])``, including the iteration
    count. Converged lanes freeze (their rows stop updating) while
    stragglers keep iterating under per-lane adaptive damping and budget
    escalation, exactly as the scalar loop would.

    ``precision="fast"`` swaps in the tolerance-contracted kernel
    (DESIGN.md §10): results agree with exact lanes to within
    :data:`FAST_REL_TOL`/:data:`FAST_WAYS_ATOL` and remain pure per lane,
    but are not bitwise-reproducible against the scalar solver.
    """
    _check_precision(precision)
    if len(points) == 0:
        return []
    parsed = _parse_points(platform, points)
    if precision == "fast":
        return _solve_batch_fast(
            platform, parsed, tol=tol, max_iter=max_iter, damping=damping
        )
    return _solve_batch_exact(
        platform, parsed, tol=tol, max_iter=max_iter, damping=damping
    )


def _solve_batch_exact(
    platform: PlatformConfig,
    parsed: list[tuple],
    *,
    tol: float,
    max_iter: int,
    damping: float,
) -> list[SteadyState]:
    """Bitwise-exact batch kernel (see :func:`solve_steady_state_batch`)."""
    n_points = len(parsed)
    n_cores = np.array([partition.n_cores for _, partition, _, _ in parsed])
    width = int(n_cores.max())

    # Pad ragged points to (B, width) with neutral parameters.
    cpi2 = np.ones((n_points, width))
    apki2 = np.zeros((n_points, width))
    blk2 = np.zeros((n_points, width))
    bpm2 = np.zeros((n_points, width))
    caps2 = np.full((n_points, width), np.inf)
    thr2 = np.ones((n_points, width))
    ways2 = np.zeros((n_points, width))
    for i, (phases, partition, _mba, params) in enumerate(parsed):
        cpi_exe, apki, blocking, bytes_per_miss, caps, throttle = params
        k = partition.n_cores
        cpi2[i, :k] = cpi_exe
        apki2[i, :k] = apki
        blk2[i, :k] = blocking
        bpm2[i, :k] = bytes_per_miss
        caps2[i, :k] = caps
        thr2[i, :k] = throttle
        ways2[i, :k] = _initial_ways(partition, caps)

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

    # Group identical MRC objects across all lanes so each distinct
    # (curve, ways) pair is evaluated once per sweep: BE clones share
    # curve objects and sweep lanes share whole apps, so a 10-core lane
    # batch typically needs a handful of curve evaluations per pass.
    curve_slots: dict[int, tuple] = {}
    for i, (phases, _partition, _mba, _params) in enumerate(parsed):
        for j, phase in enumerate(phases):
            entry = curve_slots.setdefault(id(phase.mrc), (phase.mrc, [], []))
            entry[1].append(i)
            entry[2].append(j)
    curve_groups = [
        (curve, np.array(rows), np.array(cols))
        for curve, rows, cols in curve_slots.values()
    ]

    mr2 = np.zeros((n_points, width))

    def eval_mrc(lane_mask: np.ndarray) -> None:
        """mr2[i, j] = mrc_ij(ways2[i, j]) for every lane with lane_mask[i]."""
        for curve, rows, cols in curve_groups:
            take = lane_mask[rows]
            r = rows[take]
            if r.size == 0:
                continue
            c = cols[take]
            uniq, inverse = np.unique(ways2[r, c], return_inverse=True)
            mr2[r, c] = curve.eval_many(uniq)[inverse]

    def make_excess(c2, e2, s2):
        """Batched excess() over rows of the given parameter matrices."""

        def excess_b(lat: np.ndarray, sub: np.ndarray) -> np.ndarray:
            cs, es, ss = c2[sub], e2[sub], s2[sub]
            demand = np.zeros(lat.size)
            # Column loop: accumulate per-core demand in core order so the
            # float additions match the scalar excess() loop bit-for-bit
            # (a sum() reduction would reassociate them).
            for j in range(width):
                demand = demand + cs[:, j] / (es[:, j] + ss[:, j] * lat)
            u = demand * inv_capacity
            u = np.minimum(u, u_cap)
            ratio = u / (1.0 - u)
            # Array ** is not guaranteed bit-identical to Python float **;
            # route the power tail through Python floats to match the
            # scalar path exactly. O(active lanes) per evaluation.
            powed = np.array([r**q_exp for r in ratio.tolist()])
            return lat_floor * (1.0 + gain * powed) - lat

        return excess_b

    latency = np.full(n_points, lat_floor)
    step = np.full(n_points, damping)
    budget = np.full(n_points, max_iter, dtype=np.int64)
    prev_delta = np.full(n_points, np.inf)
    iterations = np.zeros(n_points, dtype=np.int64)
    active = np.ones(n_points, dtype=bool)

    while True:
        act = np.nonzero(active)[0]
        if act.size == 0:
            break
        iterations[act] += 1
        eval_mrc(active)
        mpi_a = apki2[act] * mr2[act]
        blk_a = blk2[act]
        thr_a = thr2[act]
        cpi_a = cpi2[act]
        excess_b = make_excess(
            (freq * mpi_a) * bpm2[act], cpi_a, (mpi_a * blk_a) / thr_a
        )
        lat_a = _illinois_root_batch(
            excess_b, latency[act], lat_floor, lat_ceil
        )
        latency[act] = lat_a
        ipc_a = 1.0 / (cpi_a + mpi_a * blk_a * (lat_a[:, None] / thr_a))

        # Insertion pressure (see the scalar loop): steady-state occupancy
        # tracks each competitor's miss rate. The pressure-sharing step is
        # per-lane (partitions differ across lanes); pad slots carry their
        # current ways so the damped update leaves them at exactly 0.0.
        pressure_a = freq * ipc_a * mpi_a
        ways_a = ways2[act]
        target_a = np.empty_like(ways_a)
        for row, i in enumerate(act):
            nc = int(n_cores[i])
            target_a[row, :nc] = effective_ways(
                parsed[i][1], pressure_a[row, :nc], caps2[i, :nc], theta
            )
            target_a[row, nc:] = ways_a[row, nc:]
        step_a = step[act]
        ways_next = (1 - step_a[:, None]) * ways_a + step_a[:, None] * target_a
        delta_a = np.max(np.abs(ways_next - ways_a), axis=1)
        ways2[act] = ways_next

        conv = delta_a < delta_tol
        ncv = ~conv
        # Per-lane adaptive damping, mirroring the scalar rules: a
        # non-shrinking delta tightens the step; at the floor step the
        # lane gets the 10x budget instead.
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
        # Deliberately NOT masked with ncv: the scalar solver raises
        # whenever the loop exits with iterations >= budget, even for a
        # lane that converged on exactly the last allowed iteration.
        blown = iterations[act] >= budget[act]
        if blown.any():
            i = int(act[np.nonzero(blown)[0][0]])
            raise ConvergenceError(
                f"lane {i}: no convergence after {int(iterations[i])} "
                f"iterations (latency={latency[i]:.1f} cy)"
            )

    # Final consistent evaluation at each converged operating point,
    # vectorised across all lanes (identical elementwise op sequence).
    ways2 = np.minimum(ways2, caps2)
    eval_mrc(np.ones(n_points, dtype=bool))
    mpi2 = apki2 * mr2
    excess_b = make_excess(
        (freq * mpi2) * bpm2, cpi2, (mpi2 * blk2) / thr2
    )
    latency = _illinois_root_batch(excess_b, latency, lat_floor, lat_ceil)
    cpi_tot = cpi2 + mpi2 * blk2 * (latency[:, None] / thr2)
    ipc2 = 1.0 / cpi_tot
    bw2 = freq * ipc2 * mpi2 * bpm2

    SOLVER_COUNTERS["batch_solves"] += 1
    SOLVER_COUNTERS["batch_points"] += n_points
    SOLVER_COUNTERS["batch_iterations"] += int(iterations.sum())

    out = []
    for i, (_phases, partition, _mba, _params) in enumerate(parsed):
        nc = partition.n_cores
        ways = ways2[i, :nc].copy()
        mr = mr2[i, :nc].copy()
        ipc = ipc2[i, :nc].copy()
        bw = bw2[i, :nc].copy()
        # Bandwidth rationing under extreme overload — per lane, exactly
        # as the scalar epilogue (see solve_steady_state).
        demand = float(bw.sum())
        if demand > link.capacity_bytes:
            granted = waterfill(
                link.capacity_bytes, np.ones(nc), np.asarray(bw, dtype=float)
            )
            scale = np.where(bw > 0.0, granted / np.maximum(bw, 1e-30), 1.0)
            ipc = ipc * scale
            bw = granted
        out.append(
            SteadyState(
                ipc=ipc,
                ways=ways,
                miss_ratio=mr,
                bw_bytes=bw,
                latency_cycles=float(latency[i]),
                utilisation=float(bw.sum()) / link.capacity_bytes,
                iterations=int(iterations[i]),
            )
        )
    return out


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
    parsed: list[tuple],
    fast_states: list[SteadyState],
    *,
    tol: float,
    max_iter: int,
    damping: float,
) -> None:
    """REPRO_FAST_CHECK shadow: exact-solve the batch, assert the contract."""
    exact_states = _solve_batch_exact(
        platform, parsed, tol=tol, max_iter=max_iter, damping=damping
    )
    for i, (fast, exact) in enumerate(zip(fast_states, exact_states)):
        problems = _fast_contract_violations(fast, exact)
        if problems:
            raise FastContractError(
                f"fast solve of lane {i} left the tolerance contract: "
                + "; ".join(problems)
            )


def _solve_batch_fast(
    platform: PlatformConfig,
    parsed: list[tuple],
    *,
    tol: float,
    max_iter: int,
    damping: float,
) -> list[SteadyState]:
    """Tolerance-contracted vectorised kernel behind ``precision="fast"``.

    Same damped fixed point + Illinois structure as the exact batch, with
    the parity shackles off: MRC curves evaluate through their vectorised
    ``eval_many_fast`` paths, the queue-curve power tail is a single
    ``np.power`` call instead of a Python-float loop, and the
    pressure-sharing step runs lane-batched
    (:func:`~repro.sim.llc.effective_ways_batch`, grouped by partition)
    instead of one Python call per lane per iteration. No masked-scalar
    tail remains on the hot path.

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
    n_cores = np.array([partition.n_cores for _, partition, _, _ in parsed])
    width = int(n_cores.max())

    # Build padded parameter planes by gather: parameters (and curve
    # coefficients) depend only on (phases, mba), which campaign
    # populations share across many partitions — compute one compact row
    # per distinct tuple, then index. Pads are neutral: zero access rate
    # and zero bytes per miss contribute exactly 0.0 to link demand, and
    # unit-scale curve coefficients keep the fused evaluation finite.
    # _parse_points memoises one params object per distinct (phases, mba),
    # so object identity is the dedup key — no re-hashing of phase tuples.
    # (parsed holds the references, so ids are stable for this call.)
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
    # One stacked solver plane — zones [cpi | apki | blk | bpm | thr] —
    # and one stacked curve plane — zones [knee | sharp | blend | scale |
    # floor | span | at1] (see MissRatioCurve.fused_fast_params; slots
    # whose curve cannot be fused fall back to per-curve eval_many_fast
    # calls). Stacking means one gather per expansion / per masked
    # evaluation instead of a dozen.
    u_solver = np.zeros((n_u, 5 * width))
    u_solver[:, :width] = 1.0  # pad cpi: neutral
    u_solver[:, 4 * width :] = 1.0  # pad throttle: neutral
    u_caps = np.full((n_u, width), np.inf)
    u_curve = np.ones((n_u, 7 * width))
    u_curve[:, 4 * width : 6 * width] = 0.0  # pad floor/span: flat zero
    tab_slots: list[tuple[int, int, object]] = []
    fused_rows: list[int] = []
    fused_cols: list[int] = []
    fused_vals: list[tuple] = []
    # fused_fast_params is pure per curve object; the catalog reuses a
    # handful of curve instances across thousands of slots.
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
        # Scatter all fused coefficients at once; fp order is
        # (floor, span, blend, scale, knee, sharpness, at_one).
        fv = np.array(fused_vals)
        jj = np.array(fused_rows)
        cc = np.array(fused_cols)
        u_curve[jj, cc] = fv[:, 4]  # knee
        u_curve[jj, width + cc] = fv[:, 5]  # sharpness
        u_curve[jj, 2 * width + cc] = fv[:, 2]  # blend
        u_curve[jj, 3 * width + cc] = fv[:, 3]  # scale
        u_curve[jj, 4 * width + cc] = fv[:, 0]  # floor
        u_curve[jj, 5 * width + cc] = fv[:, 1]  # span
        u_curve[jj, 6 * width + cc] = fv[:, 6]  # at_one
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

    # Lanes sharing a PartitionSpec run their pressure-sharing step as one
    # batched call; campaigns have few distinct partitions (UM, CT-k, the
    # controller's step ladder) across thousands of lanes.
    part_slots: dict[tuple, tuple[PartitionSpec, list[int]]] = {}
    for i, (_phases, partition, _mba, _params) in enumerate(parsed):
        entry = part_slots.setdefault(partition.key(), (partition, []))
        entry[1].append(i)
    part_groups = [
        (partition, np.array(rows)) for partition, rows in part_slots.values()
    ]

    # Cold-start iterate, vectorised per partition group: equal split per
    # group plus the shared zone, clamped by caps — elementwise-identical
    # to _initial_ways per lane. Pad columns stay at exactly 0.0.
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
        # Intermediate latency roots run at a loosened bracket gap: the
        # damped outer fixed point swamps the difference, and the final
        # consistency root below runs at full precision (the tolerance
        # contract is asserted on end-state outputs).
        lat_a = _illinois_root_batch(
            excess_b, latency[act], lat_floor, lat_ceil, gap_rtol=1e-4
        )
        latency[act] = lat_a
        ipc_a = 1.0 / (cpi_a + mpi_a * blk_a * (lat_a[:, None] / thr_a))

        # Insertion pressure (see the scalar loop), shared lane-batched per
        # partition group. Pad slots keep their current ways so the damped
        # update leaves them at exactly 0.0.
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
            target_a[r, :nc] = effective_ways_batch(
                partition, pressure_a[r, :nc], caps2[sel, :nc], theta
            )
        step_a = step[act]
        ways_next = (1 - step_a[:, None]) * ways_a + step_a[:, None] * target_a
        delta_a = np.max(np.abs(ways_next - ways_a), axis=1)
        ways2[act] = ways_next

        conv = delta_a < delta_tol
        ncv = ~conv
        # Per-lane adaptive damping, same rules as the exact kernel.
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

    # Final consistent evaluation at each converged operating point.
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
            granted = waterfill_batch(
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

    SOLVER_COUNTERS["fast_solves"] += 1
    SOLVER_COUNTERS["fast_points"] += n_points
    SOLVER_COUNTERS["fast_iterations"] += int(iterations.sum())

    # Per-lane link utilisation from the fixed-order demand sums above
    # (post-rationing): trailing pad columns add exactly 0.0, so the value
    # depends only on the lane's own bandwidth vector.
    util = demand / link.capacity_bytes
    lat_list = latency.tolist()
    util_list = util.tolist()
    iter_list = iterations.tolist()

    # One bulk copy per plane, row-sliced into per-point views: tens of
    # thousands of tiny .copy() calls collapse into four memcpys. The
    # views pin their (n_points, width) base arrays, which is at most a
    # few MB per batch and dies with the returned states.
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
    if _fast_check_enabled():
        _assert_fast_contract(
            platform, parsed, out, tol=tol, max_iter=max_iter, damping=damping
        )
    return out


class SteadyStateCache:
    """Bounded LRU memo over :func:`solve_steady_state`.

    One operating point — ``(phases, partition, mba_scale, platform,
    prefetch)`` — is
    solved at most once per process; every later request is a dictionary
    hit. The stepped :class:`~repro.sim.server.Server` path re-requests an
    identical operating point every monitoring period, and campaign runs
    revisit the same points across policies (DICER's sampling sweep passes
    through the CT partition, BE clones share phase tuples), so hit rates
    are high in exactly the workloads that dominate wall-clock time.

    Only *cold* solves are inserted: a cold solve is a pure function of the
    key, so a hit is byte-identical to recomputing — campaigns stay
    bit-reproducible regardless of execution order or worker count. Warm-
    started solves (whose low-order bits depend on the caller's history)
    are returned but never shared through the cache.

    Entries are keyed per ``precision`` (DESIGN.md §10): an exact memo hit
    is always a bitwise cold scalar solve, a fast hit is always a fast-
    kernel result within the fast tolerance contract — the two never
    cross. Hit/miss counters are public so benchmarks can report memo
    effectiveness; :meth:`clear` resets the entries and the per-generation
    counters, while the ``lifetime`` per-precision counters survive so
    post-``clear_caches()`` reports still see true process-wide rates.
    """

    def __init__(self, max_entries: int = 32768) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._data: OrderedDict[tuple, SteadyState] = OrderedDict()
        # Guards _data and the counters under pool="threads" campaigns.
        # Held only around lookup/insert bookkeeping — never across a
        # solve — so concurrent threads still solve in parallel. Entries
        # are pure functions of their key, so two threads racing the same
        # cold key at worst solve it twice and insert identical values.
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        # Lifetime per-precision counters (never reset by clear()): BENCH
        # hit rates must reflect every lookup the process made, not just
        # the generation since the last clear_caches().
        self.lifetime: dict[str, dict[str, int]] = {
            p: {"hits": 0, "misses": 0} for p in PRECISIONS
        }

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

        ``prefetch=None`` produces the same key shape older callers built
        (with a trailing ``None``), so pre-axis cache entries and new
        unthrottled requests share entries.
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
        warm_start: tuple[Sequence[float], float] | None = None,
        precision: str = "exact",
    ) -> SteadyState:
        """Fetch (or solve and memoise) one operating point."""
        key = self.make_key(
            platform, phases, partition, mba_scale, precision,
            prefetch=prefetch,
        )
        registry = get_registry()
        with self._lock:
            state = self._data.get(key)
            if state is not None:
                self.hits += 1
                self.lifetime[precision]["hits"] += 1
                registry.counter("steady_cache.hits").inc()
                self._data.move_to_end(key)
                return state
            self.misses += 1
            self.lifetime[precision]["misses"] += 1
        registry.counter("steady_cache.misses").inc()
        if registry.enabled:
            t0 = time.perf_counter()
            state = solve_steady_state(
                platform, phases, partition,
                mba_scale=mba_scale, prefetch=prefetch,
                warm_start=warm_start, precision=precision,
            )
            registry.histogram("steady_cache.solve_seconds").observe(
                time.perf_counter() - t0
            )
            registry.counter("steady_cache.solve_iterations").inc(
                state.iterations
            )
        else:
            state = solve_steady_state(
                platform, phases, partition,
                mba_scale=mba_scale, prefetch=prefetch,
                warm_start=warm_start, precision=precision,
            )
        if warm_start is None:
            with self._lock:
                self._data[key] = state
                if len(self._data) > self.max_entries:
                    self._data.popitem(last=False)
                size = len(self._data)
            registry.gauge("steady_cache.size").set(size)
        return state

    def solve_many(
        self,
        platform: PlatformConfig,
        points: Sequence[tuple],
        *,
        min_batch: int = 2,
        precision: str = "exact",
    ) -> list[SteadyState]:
        """Fetch (or batch-solve and memoise) many operating points.

        ``points`` entries are ``(phases, partition)``, ``(phases,
        partition, mba_scale)`` or ``(phases, partition, mba_scale,
        prefetch)`` tuples. Memo hits are served directly; the
        distinct misses are solved in ONE
        :func:`solve_steady_state_batch` call (below ``min_batch`` the
        scalar solver is used instead — NumPy dispatch overhead beats lane
        sharing for tiny batches). Because batch lanes are byte-identical
        to scalar cold solves, the memo invariant — every inserted entry
        equals a cold scalar solve of its key — is preserved.

        ``precision="fast"`` keys and solves through the fast contract;
        fast points always take the fast kernel (even singleton batches),
        so a fast memo entry is a pure function of its key no matter
        which call path inserted it.

        Duplicate points are solved once; the duplicates (and any point
        already memoised) count as hits, the distinct cold points as
        misses.
        """
        _check_precision(precision)
        registry = get_registry()
        normalised = []
        for point in points:
            prefetch = None
            if len(point) == 2:
                (phases, partition), mba = point, None
            elif len(point) == 3:
                phases, partition, mba = point
            else:
                phases, partition, mba, prefetch = point
            normalised.append((tuple(phases), partition, mba, prefetch))
        keys = [
            self.make_key(
                platform, phases, partition, mba, precision,
                prefetch=prefetch,
            )
            for phases, partition, mba, prefetch in normalised
        ]

        results: dict[tuple, SteadyState] = {}
        pending: dict[tuple, tuple] = {}
        with self._lock:
            for key, point in zip(keys, normalised):
                if key in results or key in pending:
                    continue
                state = self._data.get(key)
                if state is not None:
                    results[key] = state
                    self._data.move_to_end(key)
                else:
                    pending[key] = point

            hits = len(keys) - len(pending)
            self.hits += hits
            self.misses += len(pending)
            self.lifetime[precision]["hits"] += hits
            self.lifetime[precision]["misses"] += len(pending)
        if hits:
            registry.counter("steady_cache.hits").inc(hits)
        if pending:
            registry.counter("steady_cache.misses").inc(len(pending))
            cold = list(pending.items())
            t0 = time.perf_counter()
            if len(cold) >= min_batch or precision == "fast":
                states = solve_steady_state_batch(
                    platform,
                    [point for _key, point in cold],
                    precision=precision,
                )
            else:
                states = [
                    solve_steady_state(
                        platform, phases, partition, mba_scale=mba,
                        prefetch=prefetch, precision=precision,
                    )
                    for _key, (phases, partition, mba, prefetch) in cold
                ]
            if registry.enabled:
                elapsed = time.perf_counter() - t0
                registry.histogram("steady_cache.batch_seconds").observe(
                    elapsed
                )
                registry.histogram("steady_cache.batch_size").observe(
                    len(cold)
                )
                # Keep the per-point timing surface (DESIGN.md §6) alive
                # for batch-solved points: one observation per point at
                # the batch's amortised cost.
                per_point = registry.histogram("steady_cache.solve_seconds")
                for _ in cold:
                    per_point.observe(elapsed / len(cold))
                registry.counter("steady_cache.solve_iterations").inc(
                    sum(s.iterations for s in states)
                )
            with self._lock:
                for (key, _point), state in zip(cold, states):
                    results[key] = state
                    self._data[key] = state
                    if len(self._data) > self.max_entries:
                        self._data.popitem(last=False)
                size = len(self._data)
            registry.gauge("steady_cache.size").set(size)
        return [results[key] for key in keys]

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        """Drop all entries and reset the per-generation counters.

        The ``lifetime`` per-precision counters are deliberately NOT
        reset: they feed BENCH hit-rate reporting, which must cover every
        lookup the process made even when ``clear_caches()`` runs between
        campaign stages.
        """
        with self._lock:
            self._data.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> dict:
        """Counters for benchmark reports.

        ``hits``/``misses`` describe the current cache generation (reset
        by :meth:`clear`); the ``lifetime`` block covers the whole
        process, broken down per precision, with a ready-made
        ``hit_rate``.
        """
        life_hits = sum(c["hits"] for c in self.lifetime.values())
        lookups = life_hits + sum(
            c["misses"] for c in self.lifetime.values()
        )
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": len(self._data),
            "max_entries": self.max_entries,
            "lifetime": {
                "hits": life_hits,
                "misses": lookups - life_hits,
                "hit_rate": (life_hits / lookups) if lookups else 0.0,
                "by_precision": {
                    p: dict(c) for p, c in self.lifetime.items()
                },
            },
        }


#: Process-wide solver memo shared by every :class:`~repro.sim.server.
#: Server` (and hence every campaign run in the process). Bounded, so long
#: campaigns cannot grow it without limit; cleared by test fixtures that
#: need cold solves.
GLOBAL_STEADY_CACHE = SteadyStateCache()
