"""Fixtures shared by every test module."""

import pytest

from quasic import evolution


@pytest.fixture(autouse=True)
def empty_propagator_cache():
    """Start each test with no memoized RK4 propagator, so no result depends on test order."""
    evolution._rk4_prefixes.cache_clear()
