"""Source hygiene checks that need no linter: every import is used."""

import ast
from pathlib import Path

import pytest

import toeplab

SOURCES = sorted(p for p in Path(toeplab.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _own_imports(scope):
    """Import statements of a module or function, not of the functions nested in it."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


def unused_imports(source: str) -> list[str]:
    """``line: name`` for each import never read in the scope that binds it.

    A module-level import counts as read anywhere in the module, or when
    ``__all__`` lists it; a function-level import only inside its function.
    """
    tree = ast.parse(source)
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = {elt.value for elt in node.value.elts}
    unused = []
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        if isinstance(scope, ast.Module):
            read |= exported
        for imp in _own_imports(scope):
            if isinstance(imp, ast.ImportFrom) and imp.module == "__future__":
                continue
            for alias in imp.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unused.append(f"{imp.lineno}: {name}")
    return unused


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_detection():
    source = (
        "import os\n"
        "from math import pi, tau\n"
        "def f():\n"
        "    from json import dumps\n"
        "    return pi\n"
        "def g():\n"
        "    import sys\n"
        "    return os.sep, sys.argv\n"
    )
    assert unused_imports(source) == ["2: tau", "4: dumps"]
