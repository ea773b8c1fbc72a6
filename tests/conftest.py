"""Shared fixtures: factor tables and the memoized check context.

The expensive session fixtures are built once; tests that only need small
ranges share the same table rather than re-sieving.  Every test also fails
if it leaves a child process running or unreaped: a split prime walk
forks, and must reap every child on every way out.
"""

from __future__ import annotations

import os

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


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:       # no child at all
        return
    pytest.fail(f"the test left child {pid} unreaped" if pid
                else "the test left a child process running")
