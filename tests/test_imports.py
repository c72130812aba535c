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


def function_local_imports(tree: ast.Module):
    """(line, module) of each import statement inside a function body."""
    found = {node for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))}
    return sorted((node.lineno, getattr(node, "module", None) or node.names[0].name)
                  for node in found)


def test_finds_function_local_imports():
    tree = ast.parse("import os\n\ndef f():\n    from .a import b\n    def g():\n"
                     "        import c\n    return b\n")
    assert function_local_imports(tree) == [(4, "a"), (6, "c")]


def test_no_function_local_imports():
    found = [(path.name, line, mod) for path in MODULES
             for line, mod in function_local_imports(ast.parse(path.read_text()))]
    assert found == []


def package_imports(path: Path) -> set:
    """The package modules that a module imports at its top level:
    `from .x import y` names x, `from . import y` names y when y is a
    module and the package itself (`__init__`) otherwise."""
    out = set()
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, ast.ImportFrom) or node.level != 1:
            continue
        if node.module:
            out.add(node.module.split(".")[0])
        else:
            out |= {a.name if (PACKAGE / f"{a.name}.py").exists() else "__init__"
                    for a in node.names}
    return out


def test_package_import_graph_is_acyclic():
    graph = {p.stem: package_imports(p) for p in sorted(PACKAGE.glob("*.py"))}
    # the residue route imports localization, never the other way
    assert "residue" in graph["localcurve"] and "vertex" in graph["residue"]
    assert "residue" not in graph["vertex"]
    done = set()

    def visit(mod, path):
        assert mod not in path, " -> ".join(path + (mod,))
        if mod not in done:
            for dep in sorted(graph[mod]):
                visit(dep, path + (mod,))
            done.add(mod)

    for mod in graph:
        visit(mod, ())
