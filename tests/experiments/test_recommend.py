"""Tests for the operator recommendation API."""

from repro.experiments.recommend import recommend, render_recommendation
from repro.metrics.slo import slo_achieved


class TestRecommend:
    def test_ct_favoured_pair_prefers_protection(self):
        rec = recommend("omnetpp1", "bzip22", slo=0.85)
        assert rec.best.policy in ("CT", "DICER")
        assert rec.best.slo_met

    def test_ct_thwarted_pair_avoids_ct(self):
        rec = recommend("milc1", "gcc_base6", slo=0.8)
        assert rec.best.policy != "CT"

    def test_ranking_is_by_suci_then_efu(self):
        rec = recommend("omnetpp1", "bzip22", slo=0.9)
        keys = [(v.suci, v.result.efu) for v in rec.verdicts]
        assert keys == sorted(keys, reverse=True)

    def test_hopeless_slo_flagged(self):
        rec = recommend("omnetpp1", "milc1", slo=0.99)
        assert not rec.best.slo_met
        text = render_recommendation(rec)
        assert "no candidate meets the SLO" in text

    def test_verdicts_consistent_with_metrics(self):
        rec = recommend("milc1", "gcc_base6", slo=0.8)
        for v in rec.verdicts:
            assert v.slo_met == slo_achieved(v.result.hp_norm_ipc, rec.slo)
            if not v.slo_met:
                assert v.suci == 0.0

    def test_render_success_path(self):
        rec = recommend("namd1", "povray1", slo=0.9)
        text = render_recommendation(rec)
        assert "deploy" in text
        assert "Recommendation" in text
