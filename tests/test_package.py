"""The package's public surface, and its modules' imports."""

from __future__ import annotations

import ast
import types
from pathlib import Path

import primemean


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
