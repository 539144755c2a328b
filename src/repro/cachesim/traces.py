"""Synthetic address-trace generators.

Each generator yields byte addresses whose reuse behaviour matches one of
the catalog's archetypes, so the trace-driven cache simulator can *measure*
miss-ratio curves and validate the analytic forms used by the fast server
model:

* :func:`streaming_trace` — a sequential scan far larger than the cache:
  flat, high miss ratio at any allocation (cf. :class:`ConstantMRC`);
* :func:`working_set_trace` — uniform reuse over a fixed-size hot set:
  a sharp knee once the set fits (cf. :class:`KneeMRC`);
* :func:`zipf_trace` — Zipf-distributed reuse: smoothly decaying curve
  (cf. :class:`ExponentialMRC`);
* :func:`mixed_trace` — working set + scan blend (cf. :class:`BlendedMRC`).

All generators take a :class:`numpy.random.Generator` so traces are
reproducible; addresses are line-aligned. Random values are drawn in
fixed chunks of :data:`CHUNK` as the trace is consumed, so a generator's
memory stays bounded however long the trace it was asked for.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.util.validation import check_positive_int

__all__ = [
    "streaming_trace",
    "working_set_trace",
    "zipf_trace",
    "mixed_trace",
]

LINE = 64

#: Random values drawn per RNG call. A power of two: for a single-array
#: draw (``working_set_trace``, ``zipf_trace``) NumPy's stream is then
#: identical to one ``size=n_accesses`` draw.
CHUNK = 1 << 16


def _chunk_sizes(n_accesses: int) -> Iterator[int]:
    """``n_accesses`` split into :data:`CHUNK`-sized draws (last one short)."""
    for start in range(0, n_accesses, CHUNK):
        yield min(CHUNK, n_accesses - start)


def streaming_trace(
    n_accesses: int,
    *,
    footprint_lines: int,
    base: int = 0,
) -> Iterator[int]:
    """Sequential scan over ``footprint_lines``, wrapping around.

    With a footprint well above the cache size, every access misses no
    matter how many ways are granted — the LRU worst case.
    """
    check_positive_int("n_accesses", n_accesses)
    check_positive_int("footprint_lines", footprint_lines)
    for i in range(n_accesses):
        yield base + (i % footprint_lines) * LINE


def working_set_trace(
    n_accesses: int,
    rng: np.random.Generator,
    *,
    ws_lines: int,
    base: int = 0,
) -> Iterator[int]:
    """Uniform random reuse over a hot set of ``ws_lines`` lines."""
    check_positive_int("n_accesses", n_accesses)
    check_positive_int("ws_lines", ws_lines)
    for size in _chunk_sizes(n_accesses):
        for p in rng.integers(0, ws_lines, size=size):
            yield base + int(p) * LINE


def zipf_trace(
    n_accesses: int,
    rng: np.random.Generator,
    *,
    universe_lines: int,
    exponent: float = 1.2,
    base: int = 0,
) -> Iterator[int]:
    """Zipf-distributed reuse over ``universe_lines`` distinct lines.

    Hot lines are revisited constantly, the long tail almost never — the
    shape behind smoothly decaying miss-ratio curves.
    """
    check_positive_int("n_accesses", n_accesses)
    check_positive_int("universe_lines", universe_lines)
    if exponent <= 1.0:
        raise ValueError(f"exponent must be > 1, got {exponent}")
    for size in _chunk_sizes(n_accesses):
        for r in rng.zipf(exponent, size=size):
            yield base + (int(r - 1) % universe_lines) * LINE


def mixed_trace(
    n_accesses: int,
    rng: np.random.Generator,
    *,
    ws_lines: int,
    scan_lines: int,
    scan_fraction: float = 0.3,
    base: int = 0,
) -> Iterator[int]:
    """Hot working set interleaved with a polluting scan.

    ``scan_fraction`` of accesses walk a large streaming region; the rest
    reuse the hot set. Produces the knee-plus-gradient blend of real
    big-footprint applications. Each chunk draws its scan mask, then
    its hot-set picks, so traces longer than :data:`CHUNK` interleave
    the two draws chunk by chunk.
    """
    check_positive_int("n_accesses", n_accesses)
    check_positive_int("ws_lines", ws_lines)
    check_positive_int("scan_lines", scan_lines)
    if not 0.0 <= scan_fraction <= 1.0:
        raise ValueError(f"scan_fraction must be in [0,1], got {scan_fraction}")
    scan_base = base + ws_lines * LINE
    scan_pos = 0
    for size in _chunk_sizes(n_accesses):
        is_scan = rng.random(size=size) < scan_fraction
        picks = rng.integers(0, ws_lines, size=size)
        for scan, pick in zip(is_scan, picks):
            if scan:
                yield scan_base + (scan_pos % scan_lines) * LINE
                scan_pos += 1
            else:
                yield base + int(pick) * LINE
