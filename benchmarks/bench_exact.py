"""Cold exact solves of one fixed 10-core operating-point set.

An HP (omnetpp1) and nine BE clones (lbm1), the commonest shape of an
admission search's exact solves, over the partitions DICER, LFOC and CBP
ask for: DICER's HP-ways ladder (1-19 ways), LFOC's four-group splits
and unmanaged start, and CBP's half split under prefetch and MBA
throttles on the BEs. Every round solves each point with
:func:`~repro.sim.contention.solve_steady_state` directly, with no
memo, so the number is the exact solver's own cost per point. Every
result is checked against a pinned SHA-256 of all its fields.
"""

import hashlib

from repro.sim.contention import solve_steady_state
from repro.sim.partition import CacheGroup, PartitionSpec
from repro.sim.platform import TABLE1_PLATFORM
from repro.workloads.mix import make_mix

#: SHA-256 over every field of every point's steady state, in order.
DIGEST = "c24d5a7fd8aa1660ac1ad3bc4f2bf35898180fe007cd2884fec0cad061be5a89"


def _groups(*groups) -> PartitionSpec:
    return PartitionSpec(
        n_cores=10,
        total_ways=20,
        groups=tuple(
            CacheGroup(f"g{i}", cores, float(ways))
            for i, (cores, ways) in enumerate(groups)
        ),
    )


def points() -> list[tuple]:
    """``(partition, mba_scale, prefetch)`` of every operating point."""
    dicer = [
        (PartitionSpec.hp_be(k, 10, 20), None, None) for k in range(1, 20)
    ]
    lfoc = [
        (PartitionSpec.unmanaged(10, 20), None, None),
        (_groups(((1, 2, 3), 6), ((4, 5, 6), 6), ((7, 8), 5), ((0, 9), 3)),
         None, None),
        (_groups(((7, 8, 9), 7), ((1, 2, 3), 6), ((4, 5), 4), ((0, 6), 3)),
         None, None),
    ]
    half = PartitionSpec.hp_be(10, 10, 20)
    cbp = [
        (half, None, (0.0,) + (level,) * 9) for level in (0.25, 0.5, 0.75, 1.0)
    ] + [
        (half, (1.0,) + (scale,) * 9, (0.0,) + (1.0,) * 9)
        for scale in (0.7, 0.5, 0.35, 0.25)
    ] + [
        (PartitionSpec.hp_be(9, 10, 20), (1.0,) + (0.25,) * 9,
         (0.0,) + (1.0,) * 9),
    ]
    return dicer + lfoc + cbp


def solve_all(phases, operating_points) -> str:
    """Cold-solve every point; the SHA-256 of all their fields."""
    digest = hashlib.sha256()
    for partition, mba, prefetch in operating_points:
        state = solve_steady_state(
            TABLE1_PLATFORM, phases, partition,
            mba_scale=mba, prefetch=prefetch,
        )
        digest.update(
            repr(
                (
                    [x.hex() for x in state.ipc.tolist()],
                    [x.hex() for x in state.ways.tolist()],
                    [x.hex() for x in state.miss_ratio.tolist()],
                    [x.hex() for x in state.bw_bytes.tolist()],
                    state.latency_cycles.hex(),
                    state.utilisation.hex(),
                    state.iterations,
                )
            ).encode()
        )
    return digest.hexdigest()


def bench_exact(benchmark):
    mix = make_mix("omnetpp1", "lbm1", n_be=9)
    phases = tuple(app.phases[0] for app in mix.apps())
    operating_points = points()
    digest = benchmark(solve_all, phases, operating_points)
    assert digest == DIGEST
