"""The fused prewarm over the whole classification population.

Every (HP, BE) pair of the catalog with nine BE clones under UM and CT
(paper §2.3.3), as a fast campaign's prewarm stages it: one
:func:`~repro.sim.server.stage_phase_products` call that solves every
cell's phase product in one fast batch and steps the static cells to
completion. Each round starts from a cold parameter memo, so the number
is the stage's whole cost. Every entry is checked against a pinned
SHA-256: an outcome's fields, a product's memo keys and its states'
fields.
"""

import hashlib

from repro.core.policies import CacheTakeoverPolicy, UnmanagedPolicy
from repro.experiments.runner import MAX_TIME_S, initial_partition
from repro.sim import contention
from repro.sim.platform import TABLE1_PLATFORM
from repro.sim.server import StaticOutcome, stage_phase_products
from repro.workloads.catalog import app_names
from repro.workloads.mix import make_mix

#: SHA-256 over every entry of the stage, in run order.
DIGEST = "8dd8117ac0a5b755eb98b177fe9c6ebcb0824ef19327d91b78cc206568d949b9"


def runs() -> list[tuple]:
    """``(models, initial partition, static)`` of every classification cell."""
    out = []
    names = app_names()
    for hp in names:
        for be in names:
            for policy in (UnmanagedPolicy(), CacheTakeoverPolicy()):
                models = make_mix(hp, be, n_be=9).apps()
                fresh = policy.fresh()
                partition = initial_partition(
                    fresh, len(models), TABLE1_PLATFORM.llc_ways
                )
                out.append((models, partition, not fresh.dynamic))
    return out


def digest(entries: list) -> str:
    """The SHA-256 of every field of every entry, in order."""
    h = hashlib.sha256()
    for entry in entries:
        if isinstance(entry, StaticOutcome):
            h.update(
                repr(
                    (
                        entry.time.hex(),
                        [x.hex() for x in entry.total_instructions],
                        entry.hp_completions,
                        [x.hex() for x in entry.hp_run_times],
                    )
                ).encode()
            )
            continue
        keys, states = entry
        h.update(repr(keys).encode())
        for state in states:
            h.update(
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
    return h.hexdigest()


def stage(population: list[tuple]) -> list:
    return stage_phase_products(
        TABLE1_PLATFORM, population, max_time_s=MAX_TIME_S
    )


def bench_stage(benchmark):
    population = runs()

    def cold():
        contention._PARAMS_MEMO.clear()
        return (population,), {}

    entries = benchmark.pedantic(stage, setup=cold, rounds=5, iterations=1)
    assert len(entries) == len(population)
    assert digest(entries) == DIGEST
