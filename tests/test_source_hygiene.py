"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

import graphwell

PACKAGE_DIR = Path(graphwell.__file__).parent
MODULES = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Local name bound by each import statement -> its line number."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in imported_names(tree).items()
                    if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name)
def test_no_scipy(path):
    # The package is numpy-only; scipy serves scripts/generate_g22_reference.py
    # alone, as an independent oracle.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert not [m for m in modules if m.split(".")[0] == "scipy"], f"{path.name} imports scipy"


def test_modules_found():
    assert {p.name for p in MODULES} >= {"graph.py", "solver.py", "cli.py"}


def test_every_public_function_is_used():
    # No public function that nothing in the package uses: every top-level
    # public def or class must be named somewhere in src/graphwell, as a name,
    # an attribute or an import (which covers the exports of __init__).
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for p in PACKAGE_DIR.glob("*.py")}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    unused = sorted(f"{name}.{node.name} (line {node.lineno})"
                    for name, tree in trees.items() for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_") and node.name not in named)
    assert not unused, f"public functions nothing in the package uses: {', '.join(unused)}"
