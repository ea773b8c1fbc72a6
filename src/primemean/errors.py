"""Shared exception types.

The CLI maps these onto stable process exit codes, so library code should
raise the most specific type that applies rather than bare ValueError.
"""

from __future__ import annotations


class PrimemeanError(Exception):
    """Base class for all package-specific failures."""


class GridError(PrimemeanError):
    """Malformed evaluation grid, a range outside the sieve budget, or a
    cache location that is not a directory."""


class PrecisionError(PrimemeanError):
    """Requested precision is not reachable with the configured resources.

    `achievable` carries the best tail bound the current budget supports.
    """

    def __init__(self, message: str, achievable: float | None = None):
        super().__init__(message)
        self.achievable = achievable


class UnknownCheckError(PrimemeanError):
    """A verification check name that is not in the registry."""


class IllConditionedFitError(PrimemeanError):
    """Least-squares basis too ill-conditioned to report coefficients."""

    def __init__(self, message: str, condition: float | None = None):
        super().__init__(message)
        self.condition = condition


class ModelSpecError(PrimemeanError):
    """Invalid multiplicative-function model (builtin lookup or model file)."""


class CacheFormatError(PrimemeanError):
    """Checkpoint cache file is malformed or belongs to a different key."""


class AccumulationError(PrimemeanError):
    """Internal cross-check of a compensated accumulation failed, or a child
    process of a split prime walk died before sending its partials."""
