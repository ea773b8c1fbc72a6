"""Shared fixtures: factor tables and the memoized check context.

The expensive session fixtures are built once; tests that only need small
ranges share the same table rather than re-sieving.
"""

from __future__ import annotations

import pytest

from primemean import checks
from primemean.sieve import spf_build


@pytest.fixture(scope="session")
def table5k():
    return spf_build(5000)


@pytest.fixture(scope="session")
def table100k():
    return spf_build(10 ** 5)


@pytest.fixture(scope="session")
def ctx():
    """Check context shared across the whole run (tables + reports memo)."""
    return checks.CheckContext()
