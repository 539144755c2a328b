"""Differential fuzzing: LfocController vs. the paper-literal oracle.

Hypothesis generates per-core telemetry streams spanning every regime the
clustering loop distinguishes — pure-class populations, boundary
bandwidths sitting exactly on the streaming/light thresholds, occupancy
ties that exercise the deterministic ordering, migrating cores that force
reclustering, and faulty per-core reads. Production and the naive
transcription must agree on every period's event, classification, cluster
membership and way split; a divergence dumps a replayable trace
(``repro.valid.differential.replay_trace``).

The fuzz tests together run >300 generated streams, the acceptance floor
for this suite.
"""

from __future__ import annotations

from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lfoc import LfocConfig
from repro.rdt.sample import PeriodSample
from repro.valid import (
    dump_trace,
    load_trace,
    replay_trace,
    run_differential,
)

#: Divergent counterexamples land here (only written on failure).
DIVERGENCE_DIR = Path(__file__).parent / "divergences"

DEFAULT = LfocConfig()


def _assert_conformant(samples, config, total_ways):
    result = run_differential(
        samples,
        config=config,
        total_ways=total_ways,
        dump_dir=DIVERGENCE_DIR,
    )
    assert result.ok, result.report()


configs = st.builds(
    LfocConfig,
    warmup_periods=st.integers(min_value=1, max_value=4),
    recluster_periods=st.integers(min_value=1, max_value=6),
    max_clusters=st.integers(min_value=1, max_value=6),
    streaming_ways=st.sampled_from([1, 2, 3]),
    light_ways=st.sampled_from([1, 2]),
)

total_ways_st = st.integers(min_value=8, max_value=24)

# Per-core bandwidths biased to the class boundaries: exactly at the
# streaming threshold, just under the light threshold, and points between.
_core_bw = st.sampled_from(
    [
        0.0,
        DEFAULT.light_bw_bytes * 0.5,
        DEFAULT.light_bw_bytes,  # exactly at light: NOT light
        DEFAULT.light_bw_bytes * 1.01,
        DEFAULT.streaming_bw_bytes * 0.5,
        DEFAULT.streaming_bw_bytes,  # exactly at streaming: streams
        DEFAULT.streaming_bw_bytes * 2.0,
    ]
)

# Occupancies biased to the light threshold and to exact ties.
_core_occ = st.sampled_from([0.0, 0.5, 1.0, 2.0, 2.0, 3.0, 6.0, 6.0, 12.0])


def _sample_from_cores(bw, occ):
    return PeriodSample(
        duration_s=1.0,
        hp_ipc=1.0,
        hp_mem_bytes_s=bw[0],
        total_mem_bytes_s=sum(bw) + 1.0,
        core_ipcs=tuple(1.0 for _ in bw),
        core_mem_bytes_s=tuple(bw),
        core_occupancy_ways=tuple(occ),
    )


class TestRandomStreams:
    @given(
        n_cores=st.integers(min_value=1, max_value=8),
        periods=st.integers(min_value=1, max_value=20),
        data=st.data(),
        config=configs,
        total_ways=total_ways_st,
    )
    @settings(max_examples=150, deadline=None)
    def test_no_divergence_on_random_streams(
        self, n_cores, periods, data, config, total_ways
    ):
        stream = []
        for _ in range(periods):
            bw = data.draw(
                st.lists(_core_bw, min_size=n_cores, max_size=n_cores)
            )
            occ = data.draw(
                st.lists(_core_occ, min_size=n_cores, max_size=n_cores)
            )
            stream.append(_sample_from_cores(bw, occ))
        _assert_conformant(stream, config, total_ways)

    @given(
        n_cores=st.integers(min_value=2, max_value=6),
        periods=st.integers(min_value=4, max_value=25),
        data=st.data(),
        config=configs,
        total_ways=total_ways_st,
    )
    @settings(max_examples=100, deadline=None)
    def test_no_divergence_with_fault_injection(
        self, n_cores, periods, data, config, total_ways
    ):
        """Random streams salted with empty / mismatched / non-finite reads."""
        stream = []
        for _ in range(periods):
            kind = data.draw(
                st.sampled_from(["good", "good", "empty", "short", "nan"])
            )
            bw = data.draw(
                st.lists(_core_bw, min_size=n_cores, max_size=n_cores)
            )
            occ = data.draw(
                st.lists(_core_occ, min_size=n_cores, max_size=n_cores)
            )
            if kind == "empty":
                stream.append(PeriodSample(1.0, 1.0, 1e9, 2e9))
            elif kind == "short":
                stream.append(
                    PeriodSample(
                        duration_s=1.0,
                        hp_ipc=1.0,
                        hp_mem_bytes_s=1e9,
                        total_mem_bytes_s=2e9,
                        core_ipcs=tuple(1.0 for _ in range(n_cores)),
                        core_mem_bytes_s=tuple(bw[:-1]),
                        core_occupancy_ways=tuple(occ),
                    )
                )
            elif kind == "nan":
                bad = list(bw)
                bad[0] = float("nan")
                stream.append(
                    PeriodSample(
                        duration_s=1.0,
                        hp_ipc=1.0,
                        hp_mem_bytes_s=1e9,
                        total_mem_bytes_s=2e9,
                        core_ipcs=tuple(1.0 for _ in range(n_cores)),
                        core_mem_bytes_s=tuple(bad),
                        core_occupancy_ways=tuple(occ),
                    )
                )
            else:
                stream.append(_sample_from_cores(bw, occ))
        _assert_conformant(stream, config, total_ways)

    @given(
        n_cores=st.integers(min_value=2, max_value=6),
        flip_at=st.integers(min_value=1, max_value=15),
        periods=st.integers(min_value=8, max_value=24),
        config=configs,
        total_ways=total_ways_st,
    )
    @settings(max_examples=100, deadline=None)
    def test_no_divergence_on_class_migrations(
        self, n_cores, flip_at, periods, config, total_ways
    ):
        """A core flips sensitive -> streaming mid-run (forced recluster)."""
        calm_bw = [DEFAULT.streaming_bw_bytes * 0.5] * n_cores
        hot_bw = list(calm_bw)
        hot_bw[-1] = DEFAULT.streaming_bw_bytes * 2.0
        occ = [float(2 + i) for i in range(n_cores)]
        stream = [
            _sample_from_cores(
                hot_bw if p >= flip_at else calm_bw, occ
            )
            for p in range(periods)
        ]
        _assert_conformant(stream, config, total_ways)


class TestTraceRoundTrip:
    def _stream(self):
        return [
            _sample_from_cores([2.0e9, 0.05e9, 0.8e9], [1.0, 0.5, 5.0])
            for _ in range(5)
        ]

    def test_dump_then_load_round_trips(self, tmp_path):
        config = LfocConfig(recluster_periods=2)
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
        config = LfocConfig(recluster_periods=2)
        path = dump_trace(
            tmp_path,
            self._stream(),
            config=config,
            total_ways=20,
        )
        result = replay_trace(path)
        assert result.ok
        assert result.n_periods == 5
