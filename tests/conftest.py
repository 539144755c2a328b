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
    profile caches on entry and on exit (so the rest of the suite keeps
    its warm caches semantics but never sees this test's entries).
    """
    from repro.sim.solo import clear_caches

    clear_caches()
    yield
    clear_caches()
