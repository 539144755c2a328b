"""Unit tests for the synthetic trace generators."""

import itertools
import tracemalloc

import numpy as np
import pytest

from repro.cachesim.traces import (
    CHUNK,
    LINE,
    mixed_trace,
    streaming_trace,
    working_set_trace,
    zipf_trace,
)
from repro.util.rng import make_rng


class TestStreaming:
    def test_sequential_and_wrapping(self):
        trace = list(streaming_trace(6, footprint_lines=4))
        assert trace == [0, LINE, 2 * LINE, 3 * LINE, 0, LINE]

    def test_line_aligned(self):
        assert all(
            a % LINE == 0 for a in streaming_trace(20, footprint_lines=7)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            list(streaming_trace(0, footprint_lines=4))


class TestWorkingSet:
    def test_confined_to_set(self):
        trace = list(working_set_trace(500, make_rng(0), ws_lines=16))
        assert all(0 <= a < 16 * LINE for a in trace)
        assert all(a % LINE == 0 for a in trace)

    def test_reproducible(self):
        a = list(working_set_trace(100, make_rng(5), ws_lines=8))
        b = list(working_set_trace(100, make_rng(5), ws_lines=8))
        assert a == b

    def test_covers_the_set(self):
        trace = set(working_set_trace(2000, make_rng(0), ws_lines=8))
        assert len(trace) == 8


class TestZipf:
    def test_skewed_reuse(self):
        trace = list(
            zipf_trace(5000, make_rng(0), universe_lines=1000, exponent=1.5)
        )
        counts = {}
        for a in trace:
            counts[a] = counts.get(a, 0) + 1
        top = max(counts.values())
        assert top > len(trace) * 0.2  # the hottest line dominates

    def test_exponent_validated(self):
        with pytest.raises(ValueError):
            list(zipf_trace(10, make_rng(0), universe_lines=10, exponent=1.0))

    def test_confined_to_universe(self):
        trace = zipf_trace(2000, make_rng(1), universe_lines=32)
        assert all(0 <= a < 32 * LINE for a in trace)


class TestMixed:
    def test_regions_disjoint(self):
        ws, scan = 16, 64
        trace = list(
            mixed_trace(
                2000, make_rng(0), ws_lines=ws, scan_lines=scan,
                scan_fraction=0.5,
            )
        )
        ws_hits = [a for a in trace if a < ws * LINE]
        scan_hits = [a for a in trace if a >= ws * LINE]
        assert ws_hits and scan_hits
        assert all(a < (ws + scan) * LINE for a in scan_hits)

    def test_scan_fraction_zero_is_pure_working_set(self):
        trace = list(
            mixed_trace(
                500, make_rng(0), ws_lines=8, scan_lines=64, scan_fraction=0.0
            )
        )
        assert all(a < 8 * LINE for a in trace)

    def test_scan_fraction_validated(self):
        with pytest.raises(ValueError):
            list(
                mixed_trace(
                    10, make_rng(0), ws_lines=8, scan_lines=8,
                    scan_fraction=1.5,
                )
            )


class TestChunkedDraws:
    """Traces draw lazily in CHUNK-sized pieces, without changing values."""

    N = 2 * CHUNK + 3  # two full chunks and a short tail

    @pytest.mark.parametrize("seed", [0, 7])
    def test_working_set_equals_one_shot_draw(self, seed):
        one_shot = make_rng(seed).integers(0, 100, size=self.N) * LINE
        chunked = working_set_trace(self.N, make_rng(seed), ws_lines=100)
        assert np.array_equal(np.fromiter(chunked, dtype=np.int64), one_shot)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_zipf_equals_one_shot_draw(self, seed):
        ranks = make_rng(seed).zipf(1.2, size=self.N)
        one_shot = ((ranks - 1) % 500) * LINE
        chunked = zipf_trace(self.N, make_rng(seed), universe_lines=500)
        assert np.array_equal(np.fromiter(chunked, dtype=np.int64), one_shot)

    @pytest.mark.parametrize(
        "make_trace",
        [
            lambda n: working_set_trace(n, make_rng(3), ws_lines=128),
            lambda n: zipf_trace(n, make_rng(3), universe_lines=128),
            lambda n: mixed_trace(
                n, make_rng(3), ws_lines=128, scan_lines=512
            ),
        ],
        ids=["working_set", "zipf", "mixed"],
    )
    def test_peak_memory_bounded_for_a_billion_accesses(self, make_trace):
        """A one-shot draw of 10**9 values would need ~8 GB; consuming
        the start of the trace must stay within a few chunks."""
        tracemalloc.start()
        try:
            trace = make_trace(10**9)
            consumed = sum(1 for _ in itertools.islice(trace, 3 * CHUNK))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert consumed == 3 * CHUNK
        assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"
