"""Every module of the package uses every name it imports, and every name
a module defines at its top level is read somewhere in the repository."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "vertexforge"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(tree: ast.Module):
    """(line, name) of each imported name that its scope never reads: the
    enclosing function for an import inside one, else the module."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    used = {}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        scope = parents[node]
        while scope is not tree and not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = parents[scope]
        if scope not in used:
            used[scope] = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used[scope]:
                out.append((node.lineno, name))
    return out


def test_finds_unused():
    tree = ast.parse("import os\nfrom a import b, c\n\ndef f():\n    from d import e\n    return c\n")
    assert unused_imports(tree) == [(1, "os"), (2, "b"), (5, "e")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


ROOT = PACKAGE.parent.parent
READERS = ("src", "tests", "tools", "demos", "perfbench")


def defined_names(tree: ast.Module):
    """(line, name) of each function, class and assigned name at module level."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                out += [(n.lineno, n.id) for n in ast.walk(target) if isinstance(n, ast.Name)]
    return out


def read_names(tree: ast.Module) -> set:
    """Every name the tree reads: a loaded Name, an Attribute, an imported name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_finds_dead():
    tree = ast.parse("A = 1\nB, C = 2, 3\n\ndef f():\n    return A\n\nclass K:\n    pass\n")
    assert [(line, n) for line, n in defined_names(tree) if n not in read_names(tree)] == [
        (2, "B"), (2, "C"), (4, "f"), (7, "K")]


def test_no_dead_module_level_names():
    read = set()
    for top in READERS:
        for path in (ROOT / top).rglob("*.py"):
            read |= read_names(ast.parse(path.read_text()))
    dead = [(path.name, line, name) for path in MODULES
            for line, name in defined_names(ast.parse(path.read_text())) if name not in read]
    assert dead == []
