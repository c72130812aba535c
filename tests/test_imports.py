"""Every module of the package uses every name it imports."""

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
