"""The package's public surface."""

from __future__ import annotations

import types

import primemean


def test_public_names_resolve_and_are_not_submodules():
    assert len(set(primemean.__all__)) == len(primemean.__all__)
    for name in primemean.__all__:
        assert not isinstance(getattr(primemean, name), types.ModuleType), name
