"""The package's public surface, and its modules' imports."""

from __future__ import annotations

import ast
import importlib
import sys
import types
from pathlib import Path

import numpy as np

import primemean
from primemean import constants, multfunc, primesums, sieve

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_public_names_resolve_and_are_not_submodules():
    assert len(set(primemean.__all__)) == len(primemean.__all__)
    for name in primemean.__all__:
        assert not isinstance(getattr(primemean, name), types.ModuleType), name


def _module_imports(body) -> dict[str, int]:
    """Names bound by the module-level imports of `body` (into `if` blocks,
    such as `if TYPE_CHECKING:`, not into functions or classes), with their
    line numbers."""
    bound = {}
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.If):
            bound.update(_module_imports(node.body + node.orelse))
    return bound


def _used_names(tree: ast.Module) -> set[str]:
    """Every name read anywhere in the module, names inside string
    annotations included."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, ast.FunctionDef) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in annotations:
        for c in ast.walk(ann):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                used.update(n.id for n in ast.walk(ast.parse(c.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return used


def test_no_module_level_import_goes_unused():
    src = Path(primemean.__file__).parent
    unused = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _used_names(tree)
        unused += [f"{path.name}:{line}: {name}"
                   for name, line in _module_imports(tree.body).items() if name not in used]
    assert not unused, unused


def test_only_the_sieve_takes_a_segment_length():
    # every prime walk takes accum.SEGMENT_SIZE; `sieve` alone may be told
    # another length
    src = Path(primemean.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "sieve.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                names = [arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs]
                if "segment_size" in names:
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_the_benchmark_reaches_what_it_calls(monkeypatch):
    # perfbench/layers.py wraps and calls these names of the package;
    # it is imported as perfbench/run.py imports it, perfbench/ on sys.path
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        layers = importlib.import_module("layers")
        for module, attr, _ in layers._PATCHES:
            assert callable(getattr(module, attr, None)), (module.__name__, attr)
    finally:
        for name in ("layers", "harness"):
            sys.modules.pop(name, None)
    grid = primesums.CheckpointGrid.log_spaced(100, 10 ** 4, 3)
    report = primesums.sums_stream(multfunc.builtin("kappa"), grid, parallel=True)
    assert report.points == grid.points
    assert hasattr(constants.c_q, "cache_info")
    walk = np.concatenate(list(sieve.stream_segmented(2, 10 ** 4).segments()))
    assert walk.tolist() == sieve.primes_up_to(10 ** 4).tolist()
    assert sieve.DEFAULT_SEGMENT_SIZE == 1 << 20
