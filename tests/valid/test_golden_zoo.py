"""LFOC and CBP golden-trace conformance: replay their corpora, twice.

Every ``lfoc_*``/``cbp_*`` file under ``tests/golden/`` pins the
per-period behaviour of one clustering or coordination regime. Replay
runs through the same :func:`~tests.valid.test_golden.replay_golden` as
the DICER corpus, against both the production controller and the
paper-literal oracle.
"""

from __future__ import annotations

import pytest

from repro.core.cbp import CbpConfig
from repro.core.lfoc import LfocConfig
from tests.valid.test_golden import events_seen, replay_golden, scenario_names

#: Every structured decision kind the LFOC controller can emit.
LFOC_EVENTS = {"warmup", "cluster", "hold", "recluster", "fault"}

#: Every structured decision kind the CBP controller can emit.
CBP_EVENTS = {
    "warmup",
    "fault",
    "throttle_prefetch",
    "throttle_mba",
    "saturated_hold",
    "grow_ways",
    "shrink_ways",
    "relax_mba",
    "relax_prefetch",
    "hold",
}

LFOC_NAMES = scenario_names(LfocConfig)
CBP_NAMES = scenario_names(CbpConfig)


class TestZooCorpusReplay:
    @pytest.mark.parametrize("name", LFOC_NAMES)
    def test_lfoc_controller_matches_golden(self, name):
        replay_golden(name, side="controller")

    @pytest.mark.parametrize("name", LFOC_NAMES)
    def test_lfoc_reference_matches_golden(self, name):
        replay_golden(name, side="oracle")

    @pytest.mark.parametrize("name", CBP_NAMES)
    def test_cbp_controller_matches_golden(self, name):
        replay_golden(name, side="controller")

    @pytest.mark.parametrize("name", CBP_NAMES)
    def test_cbp_reference_matches_golden(self, name):
        replay_golden(name, side="oracle")

    def test_corpus_exercises_every_lfoc_event_kind(self):
        assert events_seen(LfocConfig) == LFOC_EVENTS

    def test_corpus_exercises_every_cbp_event_kind(self):
        assert events_seen(CbpConfig) == CBP_EVENTS
