"""The paper's headline claims (abstract / Section 4.2) vs this
reproduction: SLO-80 share, SLO-90 share, full-server EFU, CT-T share."""

from conftest import LIMIT, publish

from repro.experiments.classify import classify_all
from repro.experiments.headline import evaluate_headlines, render_headlines
from repro.workloads.catalog import app_names


def bench_headline(benchmark, store, grid):
    def run():
        names = app_names()[:LIMIT]
        classes = classify_all(store, hp_names=names, be_names=names)
        ctt = sum(1 for c in classes if not c.ct_favoured) / len(classes)
        return evaluate_headlines(grid, ctt_fraction=ctt)

    claims = benchmark.pedantic(run, rounds=1, iterations=1)
    publish("headline", render_headlines(claims))
