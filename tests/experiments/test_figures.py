"""Smoke + behaviour tests for the figure campaigns (truncated populations
keep them fast; the full campaigns are the benchmark harness's job)."""

import pytest

from repro.experiments.fig1 import render_fig1, run_fig1
from repro.experiments.fig2 import run_fig2, render_fig2
from repro.experiments.fig3 import Fig3Data, render_fig3, run_fig3
from repro.experiments.fig4 import extract_fig4, render_fig4
from repro.experiments.fig5 import extract_fig5, render_fig5
from repro.experiments.fig6 import extract_fig6, render_fig6
from repro.experiments.fig7 import extract_fig7, render_fig7
from repro.experiments.fig8 import extract_fig8, render_fig8
from repro.experiments.grid import build_sample, run_grid
from repro.experiments.table1 import render_table1

LIMIT = 8  # catalog prefix used for the quick campaigns


@pytest.fixture(scope="module")
def grid(store):
    sample = build_sample(store, limit=LIMIT, seed=0)
    return run_grid(store, sample, cores=(2, 6, 10))


class TestTable1:
    def test_contains_paper_parameters(self):
        text = render_table1()
        assert "20-way" in text
        assert "68.3 Gbps" in text
        assert "50.0 Gbps" in text
        assert "alpha = 5%" in text


class TestFig1:
    def test_limited_campaign(self, store):
        data = run_fig1(store, limit_hp=LIMIT, limit_be=LIMIT)
        assert len(data.um_slowdowns) == LIMIT * LIMIT
        um_low, ct_low = data.cdf_row(1.1)
        um_all, ct_all = data.cdf_row(1e9)
        assert um_all == ct_all == 1.0
        # CT protects HP more often than UM (the figure's point).
        assert ct_low >= um_low

    def test_render(self, store):
        data = run_fig1(store, limit_hp=4, limit_be=4)
        text = render_fig1(data)
        assert "Figure 1" in text
        assert "<= 1.1x" in text


class TestFig2:
    def test_min_ways_monotone_in_target(self):
        data = run_fig2(limit=10)
        for name in data.min_ways[0.90]:
            assert (
                data.min_ways[0.90][name]
                <= data.min_ways[0.95][name]
                <= data.min_ways[0.99][name]
            )

    def test_cdf_monotone_in_ways(self):
        data = run_fig2(limit=10)
        values = [data.cdf(0.9, w) for w in (1, 5, 10, 20)]
        assert values == sorted(values)

    def test_streaming_apps_need_one_way(self):
        data = run_fig2(limit=6)  # prefix includes lbm1/libquantum1/milc1
        assert data.min_ways[0.99]["lbm1"] == 1.0

    def test_render(self):
        text = render_fig2(run_fig2(limit=5))
        assert "Figure 2" in text


class TestFig3:
    @pytest.fixture(scope="class")
    def data(self) -> Fig3Data:
        return run_fig3(ways=(1, 2, 8, 19))

    def test_paper_shape(self, data):
        # (i) best with few ways, (ii) CT detrimental, (iii) UM near best.
        assert data.best_ways <= 2
        best = data.static[data.best_ways].hp_slowdown
        ct = data.static[19].hp_slowdown
        assert ct > best + 0.15
        assert data.unmanaged.hp_slowdown < ct
        assert data.unmanaged.hp_slowdown == pytest.approx(best, abs=0.12)

    def test_render(self, data):
        text = render_fig3(data)
        assert "Figure 3" in text and "best static" in text


class TestGridFigures:
    def test_fig4_points(self, grid):
        data = extract_fig4(grid, n_cores=10)
        assert set(data.points) == {"UM", "CT"}
        assert "Figure 4" in render_fig4(data)

    def test_fig5_classes_and_policies(self, grid):
        data = extract_fig5(grid, n_cores=10)
        assert data.policies == ("UM", "CT", "DICER")
        assert all(len(r.hp_norm) == 3 for r in data.rows)
        render_fig5(data)

    def test_fig5_wrong_cores_rejected(self, grid):
        with pytest.raises(ValueError):
            extract_fig5(grid, n_cores=7)

    def test_fig6_efu_ordering(self, grid):
        data = extract_fig6(grid)
        # CT's EFU collapses with core count; DICER must beat CT at 10.
        assert data.efu[("DICER", 10)] > data.efu[("CT", 10)]
        assert "Figure 6" in render_fig6(data)

    def test_fig7_fractions_valid(self, grid):
        data = extract_fig7(grid)
        assert all(0.0 <= v <= 1.0 for v in data.achieved.values())
        # Easier SLOs are met at least as often.
        for policy in data.policies:
            for cores in data.cores:
                assert (
                    data.achieved[(0.80, policy, cores)]
                    >= data.achieved[(0.95, policy, cores)]
                )
        assert "SLO = 80%" in render_fig7(data)

    def test_fig8_bounded_and_lambda_ordered(self, grid):
        data = extract_fig8(grid)
        assert all(0.0 <= v <= 1.0 for v in data.values.values())
        for slo in data.slos:
            for policy in data.policies:
                for cores in data.cores:
                    assert (
                        data.values[(0.5, slo, policy, cores)]
                        >= data.values[(2.0, slo, policy, cores)] - 1e-12
                    )
        assert "lambda" in render_fig8(data)
