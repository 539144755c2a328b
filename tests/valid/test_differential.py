"""Differential fuzzing: DicerController vs. the paper-literal oracle.

Hypothesis generates synthetic RDT counter streams spanning every regime
the controller distinguishes — calm CT-Favoured optimisation, bandwidth
saturation (CT-Thwarted sampling), Equation-2 phase changes, exact
stability-band boundaries, and faulty reads — across a matrix of
configurations and cache geometries. The production controller and the
naive Listing 1-3 transcription must agree on *every* period's
allocation, event, mode and classification; a divergence dumps a
replayable JSONL trace (see ``repro.valid.differential.replay_trace``).

The three fuzz tests together run >500 generated streams, the
acceptance floor for this suite.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cbp import CbpConfig
from repro.core.config import DicerConfig
from repro.core.lfoc import LfocConfig
from repro.rdt.sample import PeriodSample
from repro.valid import (
    CONFORMANCE,
    Divergence,
    ScriptedRdt,
    dump_trace,
    load_trace,
    replay_trace,
    run_differential,
)

#: Where divergent counterexamples land (content-addressed; only written
#: on failure, so a green run leaves no artefacts).
DIVERGENCE_DIR = Path(__file__).parent / "divergences"

#: Table-1 saturation threshold in bytes/s (50 Gbps).
BW_THRESHOLD = DicerConfig().bw_threshold_bytes


def _assert_conformant(samples, config, total_ways):
    result = run_differential(
        samples,
        config=config,
        total_ways=total_ways,
        dump_dir=DIVERGENCE_DIR,
    )
    assert result.ok, result.report()


configs = st.builds(
    DicerConfig,
    sample_hp_ways=st.sampled_from(
        [(19, 15, 11, 8, 6, 4, 3, 2, 1), (19,), (5, 3, 1), (12, 6, 2)]
    ),
    sample_periods=st.integers(min_value=1, max_value=3),
    resample_cooldown_periods=st.sampled_from([0, 1, 5]),
    phase_detector=st.sampled_from(["geomean3", "ewma"]),
    alpha=st.sampled_from([0.01, 0.05, 0.2]),
    phase_threshold=st.sampled_from([0.1, 0.3]),
    saturation_detection=st.booleans(),
)

total_ways_st = st.integers(min_value=2, max_value=24)

# Raw value streams: finite spans crossing the saturation threshold
# (6.25e9) and the wraparound plausibility limit (6.25e12), plus
# non-finite and degenerate-duration injections.
_finite_bw = st.floats(min_value=0.0, max_value=2e13)
_weird = st.sampled_from([float("nan"), float("inf")])

random_samples = st.builds(
    PeriodSample,
    duration_s=st.sampled_from([1.0, 1.0, 1.0, 1e-9, 1e-12]),
    hp_ipc=st.one_of(st.floats(min_value=0.0, max_value=3.0), _weird),
    hp_mem_bytes_s=st.one_of(_finite_bw, _weird),
    total_mem_bytes_s=st.one_of(_finite_bw, _weird),
)


class TestRandomStreams:
    @given(
        stream=st.lists(random_samples, min_size=1, max_size=50),
        config=configs,
        total_ways=total_ways_st,
    )
    @settings(max_examples=250, deadline=None)
    def test_no_divergence_on_random_streams(
        self, stream, config, total_ways
    ):
        _assert_conformant(stream, config, total_ways)


class TestRegimeStreams:
    """Multiplicative walks that dwell in and switch between regimes.

    Absolute random draws rarely sit exactly on a decision boundary;
    these streams evolve IPC and bandwidth by *factors* drawn from the
    controller's own thresholds (1 ± alpha, 1 + phase_threshold), so
    exact-equality edges of Equations 2 and 3 are hit routinely.
    """

    @given(
        start_ipc=st.floats(min_value=0.2, max_value=2.0),
        start_bw=st.floats(min_value=1e8, max_value=5e9),
        moves=st.lists(
            st.tuples(
                st.sampled_from(
                    [0.7, 0.95, 0.99, 1.0, 1.01, 1.05, 1.2]
                ),  # ipc factor
                st.sampled_from(
                    [0.8, 1.0, 1.1, 1.3, 1.31, 2.0, 4.0]
                ),  # bw factor
            ),
            min_size=1,
            max_size=40,
        ),
        config=configs,
        total_ways=total_ways_st,
    )
    @settings(max_examples=200, deadline=None)
    def test_no_divergence_on_regime_walks(
        self, start_ipc, start_bw, moves, config, total_ways
    ):
        ipc, bw = start_ipc, start_bw
        stream = []
        for ipc_factor, bw_factor in moves:
            ipc = min(ipc * ipc_factor, 1e3)
            bw = min(bw * bw_factor, 1e12)
            stream.append(
                PeriodSample(
                    duration_s=1.0,
                    hp_ipc=ipc,
                    hp_mem_bytes_s=bw,
                    total_mem_bytes_s=bw * 1.5,
                )
            )
        _assert_conformant(stream, config, total_ways)

    @given(
        config=configs,
        total_ways=total_ways_st,
        ipcs=st.lists(
            st.floats(min_value=0.1, max_value=2.0),
            min_size=3,
            max_size=30,
        ),
        saturate_from=st.integers(min_value=0, max_value=20),
    )
    @settings(max_examples=150, deadline=None)
    def test_no_divergence_across_saturation_transition(
        self, config, total_ways, ipcs, saturate_from
    ):
        """Calm prefix, then persistent saturation: the CT-F -> CT-T flip."""
        stream = []
        for index, ipc in enumerate(ipcs):
            saturated = index >= saturate_from
            total = BW_THRESHOLD * (1.6 if saturated else 0.5)
            stream.append(
                PeriodSample(
                    duration_s=1.0,
                    hp_ipc=ipc,
                    hp_mem_bytes_s=total * 0.4,
                    total_mem_bytes_s=total,
                )
            )
        _assert_conformant(stream, config, total_ways)


class TestTraceRoundTrip:
    def _stream(self):
        return [
            PeriodSample(1.0, 1.0, 2e9, 3e9),
            PeriodSample(1.0, 1.0, 2e9, 8e9),
            PeriodSample(1.0, 0.7, 2e9, 3e9),
        ]

    def test_dump_then_load_round_trips(self, tmp_path):
        config = DicerConfig(sample_hp_ways=(5, 3, 1))
        samples = self._stream()
        path = dump_trace(
            tmp_path, samples, config=config, total_ways=6
        )
        loaded_config, loaded_ways, loaded = load_trace(path)
        assert loaded_config == config
        assert loaded_ways == 6
        assert loaded == samples

    def test_replay_reruns_the_comparison(self, tmp_path):
        config = DicerConfig(sample_hp_ways=(5, 3, 1))
        path = dump_trace(
            tmp_path, self._stream(), config=config, total_ways=6
        )
        result = replay_trace(path)
        assert result.ok
        assert result.n_periods == 3
        assert "conformant" in result.report()

    def test_load_rejects_non_trace_files(self, tmp_path):
        path = tmp_path / "not-a-trace.jsonl"
        path.write_text('{"kind": "sample"}\n')
        with pytest.raises(ValueError, match="no meta line"):
            load_trace(path)

    def test_scripted_backend_replays_and_records_actuations(self):
        from repro.core.dicer import DicerController
        from repro.rdt.harness import drive

        config = DicerConfig(sample_hp_ways=(5, 3, 1))
        backend = ScriptedRdt(self._stream(), total_ways=6)
        controller = DicerController(config, total_ways=6)
        trace = drive(controller, backend)
        assert len(trace) == 3
        # initial apply + one apply per period
        assert len(backend.applied) == 4
        assert backend.finished
        with pytest.raises(RuntimeError, match="exhausted"):
            backend.sample(1.0)


# -- a real divergence, for every controller ---------------------------------

#: Traces written by the trace dumper for the tampered runs below; the
#: current dumper must reproduce their bytes (the trace format is frozen).
TRACE_DIR = Path(__file__).parent / "traces"


def _per_core(bw, occ):
    return PeriodSample(
        duration_s=1.0,
        hp_ipc=1.0,
        hp_mem_bytes_s=bw[0],
        total_mem_bytes_s=sum(bw),
        core_ipcs=tuple(1.0 for _ in bw),
        core_mem_bytes_s=tuple(bw),
        core_occupancy_ways=tuple(occ),
    )


def _divergence_case(name):
    """(config, total_ways, samples, trace fixture) for one controller."""
    aggregate = [
        PeriodSample(1.0, 1.0, 2e9, 3e9),
        PeriodSample(1.0, 1.0, 2e9, 8e9),
        PeriodSample(1.0, 0.7, 2e9, 3e9),
    ]
    if name == "dicer":
        return (
            DicerConfig(sample_hp_ways=(5, 3, 1)), 6, aggregate,
            "divergence-7dbc04799c31.jsonl",
        )
    if name == "lfoc":
        stream = [
            _per_core([2.0e9, 0.05e9, 0.8e9], [1.0, 0.5, 5.0])
            for _ in range(4)
        ]
        return (
            LfocConfig(recluster_periods=2), 20, stream,
            "divergence-lfoc-0dc4cb7f8e71.jsonl",
        )
    return (
        CbpConfig(relax_periods=2), 20, aggregate,
        "divergence-cbp-de6e570151f5.jsonl",
    )


def _tamper(monkeypatch, oracle_cls, period=2):
    """Make the oracle report a bogus ``event`` at one period."""
    update = oracle_cls.update

    def tampered(self, sample):
        decision = update(self, sample)
        if decision.period == period:
            decision = replace(decision, event="tampered")
        return decision

    monkeypatch.setattr(oracle_cls, "update", tampered)


class TestDivergence:
    @pytest.mark.parametrize("name", ["dicer", "lfoc", "cbp"])
    def test_divergence_is_reported_dumped_and_replayed(
        self, name, tmp_path, monkeypatch
    ):
        config, total_ways, samples, fixture = _divergence_case(name)
        with monkeypatch.context() as patch:
            _tamper(patch, CONFORMANCE[type(config)].oracle)
            result = run_differential(
                samples,
                config=config,
                total_ways=total_ways,
                dump_dir=tmp_path,
            )
            assert not result.ok
            assert [(d.period, d.facet) for d in result.divergences] == [
                (2, "event")
            ]
            assert result.divergences[0].reference == "tampered"
            assert len(result.controller_trace) == len(samples)
            assert len(result.reference_trace) == len(samples)
            assert result.trace_path is not None
            report = result.report()
            assert "1 divergence(s) over" in report
            assert "period 2: event diverged" in report
            assert str(result.trace_path) in report
            # The dump replays to the same divergences while the bug stands.
            assert replay_trace(result.trace_path).divergences == (
                result.divergences
            )
        # The dumped bytes are the frozen trace format.
        assert result.trace_path.name == fixture
        assert (
            result.trace_path.read_bytes()
            == (TRACE_DIR / fixture).read_bytes()
        )
        # With the oracle fixed, the same trace replays conformant.
        fixed = replay_trace(result.trace_path)
        assert fixed.ok, fixed.report()
        assert fixed.n_periods == len(samples)

    @pytest.mark.parametrize(
        "fixture", sorted(p.name for p in TRACE_DIR.glob("*.jsonl"))
    )
    def test_recorded_trace_redumps_byte_identically(self, fixture, tmp_path):
        """Load, re-dump with the recorded divergences, replay clean."""
        path = TRACE_DIR / fixture
        config, total_ways, samples = load_trace(path)
        divergences = [
            Divergence(
                line["period"],
                line["facet"],
                line["controller"],
                line["reference"],
            )
            for line in map(json.loads, path.read_text().splitlines())
            if line["kind"] == "divergence"
        ]
        assert divergences
        redumped = dump_trace(
            tmp_path,
            samples,
            config=config,
            total_ways=total_ways,
            divergences=divergences,
        )
        assert redumped.name == fixture
        assert redumped.read_bytes() == path.read_bytes()
        assert replay_trace(path).ok
