"""Every module-level function and constant of the package is used by the package or exported.

A function that only tests call is dead weight: the tests pin behaviour no
program path has. The check is static: a function counts as used when its
name is loaded (``f(...)``, ``module.f``, passed as a value) somewhere in the
package outside its own body. A module-level name bound by assignment counts
as used when it is loaded anywhere in the package; dunder names are exempt.
"""
from __future__ import annotations

import ast
from pathlib import Path

import ivrobust

PACKAGE = Path(ivrobust.__file__).parent


def _module_functions(tree: ast.Module):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _loaded_names(node: ast.AST) -> list[str]:
    names = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.append(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            names.append(sub.attr)
    return names


def _module_constants(tree: ast.Module) -> list[str]:
    targets = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets.extend(node.targets)
        elif isinstance(node, ast.AnnAssign):
            targets.append(node.target)
    return [sub.id for target in targets for sub in ast.walk(target)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)
            and not sub.id.startswith("__")]


def _parse(package: Path) -> tuple[dict[str, ast.Module], dict[str, int]]:
    """Each module's tree, and how often the package loads each name."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    loads: dict[str, int] = {}
    for tree in trees.values():
        for name in _loaded_names(tree):
            loads[name] = loads.get(name, 0) + 1
    return trees, loads


def unused_constants(package: Path = PACKAGE) -> list[str]:
    """``module.NAME`` for each module-level assigned name the package never loads."""
    trees, loads = _parse(package)
    return [f"{module}.{name}" for module, tree in trees.items()
            for name in _module_constants(tree)
            if name not in loads and name not in ivrobust.__all__]


def unused_functions(package: Path = PACKAGE) -> list[str]:
    """``module.function`` for each module-level function no other code loads."""
    trees, loads = _parse(package)
    unused = []
    for module, tree in trees.items():
        for fn in _module_functions(tree):
            # loads inside the function's own body (recursion) do not count
            own = _loaded_names(fn).count(fn.name)
            if loads.get(fn.name, 0) - own == 0 and fn.name not in ivrobust.__all__:
                unused.append(f"{module}.{fn.name}")
    return unused


def test_every_function_is_used_or_exported():
    assert unused_functions() == []


def test_every_constant_is_used_or_exported():
    assert unused_constants() == []


def test_guard_sees_a_test_only_function(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return helper()\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n\n"
        "def run_methods():\n    return used\n"
    )
    # run_methods is exported; used is referenced; helper is called by used
    assert unused_functions(tmp_path) == ["a.recursive"]


def test_guard_sees_an_unused_constant(tmp_path):
    (tmp_path / "a.py").write_text(
        "__version__ = '1'\n"
        "_USED, _PAIRED = 1, 2\n"
        "_LIMIT: int = 3\n"
        "_BIG = 4.5e15\n"
        "ALL_METHODS = ()\n\n\n"
        "def run_methods():\n    return _USED + _LIMIT\n"
    )
    # dunders are exempt, ALL_METHODS is exported, and _USED and _LIMIT are loaded
    assert unused_constants(tmp_path) == ["a._PAIRED", "a._BIG"]
