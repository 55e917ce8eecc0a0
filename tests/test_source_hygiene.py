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


def package_trees() -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
            for p in PACKAGE_DIR.glob("*.py")}


def names_read(trees: dict[str, ast.Module]) -> set[str]:
    """Every name the package reads, as a name or an attribute, or imports
    (which covers the exports of __init__)."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return read


def top_level_defs(trees: dict[str, ast.Module]):
    """(module, name, line) of every top-level def and class."""
    return [(name, node.name, node.lineno) for name, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]


def top_level_assignments(trees: dict[str, ast.Module]):
    """(module, name, line) of every name a top-level assignment binds."""
    return [(name, target.id, node.lineno) for name, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Name)]


def unread(names, read: set[str], private: bool) -> str:
    """The names of one kind, public or private, that are not in read.
    Dunder names (__version__, __all__) are read by Python and tools."""
    return ", ".join(sorted(f"{module}.{name} (line {line})" for module, name, line in names
                            if name.startswith("_") == private and not name.startswith("__")
                            and name not in read))


def test_every_public_function_is_used():
    # No public function that nothing in the package uses: every top-level
    # public def or class must be read or imported somewhere in src/graphwell.
    trees = package_trees()
    unused = unread(top_level_defs(trees), names_read(trees), private=False)
    assert not unused, f"public functions nothing in the package uses: {unused}"


def test_every_public_assignment_is_read():
    # No dead module-level names either: every top-level public assignment
    # must be read or imported somewhere in src/graphwell.
    trees = package_trees()
    unused = unread(top_level_assignments(trees), names_read(trees), private=False)
    assert not unused, f"public names nothing in the package reads: {unused}"


def test_every_private_name_is_read():
    # A private top-level def, class or assignment is there for the package's
    # own use; one that nothing in src/graphwell reads is left-over code.
    trees = package_trees()
    names = top_level_defs(trees) + top_level_assignments(trees)
    unused = unread(names, names_read(trees), private=True)
    assert not unused, f"private names nothing in the package reads: {unused}"


MATRIX_PRODUCTS = {"dot", "matmul", "inner", "vdot", "einsum", "tensordot"}


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name)
def test_one_reduction_primitive(path):
    # Every vertex sum is np.vecdot (calculus.weighted_sum, solver._dots),
    # which sums each row of a batch as that row alone. The matrix products
    # may sum a batch in blocks of rows, so a restart's bits would depend on
    # the other restarts in its batch.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [f"np.{node.attr} (line {node.lineno})" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in MATRIX_PRODUCTS
             and isinstance(node.value, ast.Name) and node.value.id == "np"]
    found += [f"@ (line {node.lineno})" for node in ast.walk(tree)
              if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)]
    assert not found, f"{path.name} sums with a matrix product: {', '.join(found)}"
