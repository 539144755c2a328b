"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.experiments.store import ResultStore
from repro.sim.platform import TABLE1_PLATFORM


@pytest.fixture(scope="session")
def platform():
    """The paper's Table 1 platform (immutable, safe to share)."""
    return TABLE1_PLATFORM


@pytest.fixture(scope="session")
def store():
    """A session-wide result store so expensive runs are shared."""
    return ResultStore()


@pytest.fixture
def clean_caches():
    """Cold module-level caches before and after a test.

    For tests that reason about cold-vs-memoised solves: empties the solo
    profile caches and any phase products or static outcomes a fast
    campaign staged but no run claimed, on entry and on exit (so the rest
    of the suite keeps its warm caches semantics but never sees this
    test's entries).
    """
    from repro.sim.server import stage_phase_products
    from repro.sim.solo import clear_caches

    def cold():
        clear_caches()
        stage_phase_products(TABLE1_PLATFORM, ())  # stages nothing

    cold()
    yield
    cold()
