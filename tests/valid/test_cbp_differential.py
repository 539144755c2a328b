"""Differential fuzzing: CbpController vs. the paper-literal oracle.

Hypothesis generates aggregate telemetry streams spanning every regime
the coordination ladder distinguishes — calm stability, IPC sag at the
exact alpha boundary, sustained saturation that exhausts both ladders,
alternating calm/saturated phases that interleave escalation with
relaxation, and faulty reads. Production and the naive transcription
must agree on every period's event, HP way count, ladder indices and
saturation flag; a divergence dumps a replayable trace
(``repro.valid.differential.replay_trace``).

The fuzz tests together run >300 generated streams, the acceptance floor
for this suite.
"""

from __future__ import annotations

from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cbp import CbpConfig
from repro.rdt.sample import PeriodSample
from repro.valid import (
    dump_trace,
    load_trace,
    replay_trace,
    run_differential,
)

#: Divergent counterexamples land here (only written on failure).
DIVERGENCE_DIR = Path(__file__).parent / "divergences"

#: Default saturation threshold in bytes/s.
BW_THRESHOLD = CbpConfig().bw_threshold_bytes


def _assert_conformant(samples, config, total_ways):
    result = run_differential(
        samples,
        config=config,
        total_ways=total_ways,
        dump_dir=DIVERGENCE_DIR,
    )
    assert result.ok, result.report()


configs = st.builds(
    CbpConfig,
    alpha=st.sampled_from([0.01, 0.05, 0.2]),
    warmup_periods=st.integers(min_value=1, max_value=4),
    relax_periods=st.integers(min_value=1, max_value=4),
    mba_levels=st.sampled_from(
        [(1.0,), (1.0, 0.5), (1.0, 0.7, 0.5, 0.35, 0.25)]
    ),
    prefetch_ladder=st.sampled_from(
        [(0.0,), (0.0, 1.0), (0.0, 0.25, 0.5, 0.75, 1.0)]
    ),
    min_hp_ways=st.sampled_from([2, 4]),
)

total_ways_st = st.integers(min_value=6, max_value=24)

_weird = st.sampled_from([float("nan"), float("inf")])

random_samples = st.builds(
    PeriodSample,
    duration_s=st.sampled_from([1.0, 1.0, 1.0, float("nan")]),
    hp_ipc=st.one_of(st.floats(min_value=0.0, max_value=3.0), _weird),
    hp_mem_bytes_s=st.floats(min_value=0.0, max_value=1e10),
    total_mem_bytes_s=st.one_of(
        st.floats(min_value=0.0, max_value=2e10), _weird
    ),
)


class TestRandomStreams:
    @given(
        stream=st.lists(random_samples, min_size=1, max_size=40),
        config=configs,
        total_ways=total_ways_st,
    )
    @settings(max_examples=150, deadline=None)
    def test_no_divergence_on_random_streams(
        self, stream, config, total_ways
    ):
        _assert_conformant(stream, config, total_ways)


class TestRegimeStreams:
    @given(
        start_ipc=st.floats(min_value=0.2, max_value=2.0),
        moves=st.lists(
            st.tuples(
                # IPC factors sitting on the 1 - alpha stability edges.
                st.sampled_from([0.7, 0.8, 0.95, 0.99, 1.0, 1.05, 1.3]),
                st.booleans(),  # saturated this period?
            ),
            min_size=1,
            max_size=40,
        ),
        config=configs,
        total_ways=total_ways_st,
    )
    @settings(max_examples=150, deadline=None)
    def test_no_divergence_on_regime_walks(
        self, start_ipc, moves, config, total_ways
    ):
        """Calm/saturated interleavings with boundary-biased IPC moves."""
        ipc = start_ipc
        stream = []
        for ipc_factor, saturated in moves:
            ipc = min(ipc * ipc_factor, 1e3)
            total = config.bw_threshold_bytes * (1.5 if saturated else 0.5)
            stream.append(
                PeriodSample(
                    duration_s=1.0,
                    hp_ipc=ipc,
                    hp_mem_bytes_s=total * 0.4,
                    total_mem_bytes_s=total,
                )
            )
        _assert_conformant(stream, config, total_ways)

    @given(
        config=configs,
        total_ways=total_ways_st,
        n_saturated=st.integers(min_value=0, max_value=15),
        n_calm=st.integers(min_value=0, max_value=15),
    )
    @settings(max_examples=100, deadline=None)
    def test_no_divergence_on_escalate_then_relax(
        self, config, total_ways, n_saturated, n_calm
    ):
        """A full escalation burst followed by a long calm recovery."""
        stream = [
            PeriodSample(1.0, 1.0, 4e9, config.bw_threshold_bytes * 1.5)
            for _ in range(n_saturated)
        ]
        stream += [
            PeriodSample(1.0, 1.0, 1e9, config.bw_threshold_bytes * 0.5)
            for _ in range(n_calm)
        ]
        _assert_conformant(stream, config, total_ways)


class TestTraceRoundTrip:
    def _stream(self):
        return [
            PeriodSample(1.0, 1.0, 2e9, 3e9),
            PeriodSample(1.0, 1.0, 4e9, BW_THRESHOLD * 1.5),
            PeriodSample(1.0, 0.7, 2e9, 3e9),
        ]

    def test_dump_then_load_round_trips(self, tmp_path):
        config = CbpConfig(relax_periods=2)
        samples = self._stream()
        path = dump_trace(
            tmp_path,
            samples,
            config=config,
            total_ways=20,
        )
        loaded_config, loaded_ways, loaded = load_trace(path)
        assert loaded_config == config
        assert loaded_ways == 20
        assert loaded == samples

    def test_replay_reruns_the_comparison(self, tmp_path):
        config = CbpConfig(relax_periods=2)
        path = dump_trace(
            tmp_path,
            self._stream(),
            config=config,
            total_ways=20,
        )
        result = replay_trace(path)
        assert result.ok
        assert result.n_periods == 3

    def test_divergent_stream_dumps_replayable_trace(self, tmp_path):
        """A doctored oracle mismatch produces a content-addressed dump."""
        from repro.valid.differential import Divergence

        config = CbpConfig()
        path = dump_trace(
            tmp_path,
            self._stream(),
            config=config,
            total_ways=20,
            divergences=[Divergence(2, "event", "hold", "grow_ways")],
        )
        assert path.name.startswith("divergence-cbp-")
        text = path.read_text()
        assert '"kind": "divergence"' in text
        # The divergence lines do not perturb the content address.
        clean = dump_trace(
            tmp_path,
            self._stream(),
            config=config,
            total_ways=20,
        )
        assert clean == path
