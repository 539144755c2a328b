"""Section 2.3.3 — CT-Favoured / CT-Thwarted population split.

Paper: ~60 % of the 3481 pairs are CT-Thwarted. The sweep also reports
how the split moves with the materiality threshold (an ablation the
hardware paper's measurement noise made implicit).
"""

from conftest import LIMIT, publish

from repro.experiments.ablation import sweep_classification_threshold
from repro.sim.contention import solver_counters


def bench_classification(benchmark, store):
    text = benchmark.pedantic(
        lambda: sweep_classification_threshold(store, limit=LIMIT),
        rounds=1,
        iterations=1,
    )
    solver = solver_counters()["by_kernel"]
    print(
        f"\n[solver] exact={solver['exact']} fast={solver['fast']} | "
        f"[store] workers={store.n_workers} {store.stats()}"
    )
    publish("classification", text)
