"""Every module-level function of the package is used by the package or exported.

A function that only tests call is dead weight: the tests pin behaviour no
program path has. The check is static: a function counts as used when its
name is loaded (``f(...)``, ``module.f``, passed as a value) somewhere in the
package outside its own body.
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


def unused_functions(package: Path = PACKAGE) -> list[str]:
    """``module.function`` for each module-level function no other code loads."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    loads: dict[str, int] = {}
    for tree in trees.values():
        for name in _loaded_names(tree):
            loads[name] = loads.get(name, 0) + 1
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


def test_guard_sees_a_test_only_function(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return helper()\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n\n"
        "def run_methods():\n    return used\n"
    )
    # run_methods is exported; used is referenced; helper is called by used
    assert unused_functions(tmp_path) == ["a.recursive"]
