"""Source hygiene checks that need no linter.

Every import is used and sits at module level, every absolute import is
the standard library or numpy, the one runtime dependency, and all
randomness comes from seeded generators, so reruns stay byte-identical.
Every function the benchmark's tracer (bench/tracer.py) wraps by name
still exists, so a deletion that would crash a traced pass fails here.
Every public function and class is read somewhere in src/ or bench/:
code that only tests call is deleted, bar a named allow-list.  Every
dataclass field is read there as an attribute, or the field is deleted.
"""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

import toeplab
from toeplab.hardy_sphere import InvariantSymbol
from toeplab.toric import EquivariantSpectrum

ALL_SOURCES = sorted(Path(toeplab.__file__).parent.glob("*.py"))
SOURCES = [p for p in ALL_SOURCES if p.name != "__init__.py"]
RUNTIME_MODULES = set(sys.stdlib_module_names) | {"numpy"}


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


def lazy_imports(source: str) -> list[str]:
    """``line: module`` for each import inside a function, which runs only when called."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Import):
                found |= {(node.lineno, alias.name) for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                found.add((node.lineno, "." * node.level + (node.module or "")))
    return [f"{line}: {m}" for line, m in sorted(found)]


@pytest.mark.parametrize("path", ALL_SOURCES, ids=[p.name for p in ALL_SOURCES])
def test_no_function_level_imports(path):
    assert lazy_imports(path.read_text()) == []


def test_lazy_import_detection():
    source = (
        "import os\n"
        "from .errors import ValidationError\n"
        "def f():\n"
        "    from .spectral import TestFunction\n"
        "    def g():\n"
        "        import json, csv\n"
        "    return g\n"
        "class C:\n"
        "    def m(self):\n"
        "        from . import _exact\n"
    )
    assert lazy_imports(source) == ["4: .spectral", "6: csv", "6: json", "10: ."]


def foreign_imports(source: str) -> list[str]:
    """``line: module`` for each absolute import outside RUNTIME_MODULES."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [(node.lineno, m) for m in modules if m.split(".")[0] not in RUNTIME_MODULES]
    return [f"{line}: {m}" for line, m in sorted(found)]


@pytest.mark.parametrize("path", ALL_SOURCES, ids=[p.name for p in ALL_SOURCES])
def test_runtime_imports_are_stdlib_or_numpy(path):
    assert foreign_imports(path.read_text()) == []


def test_foreign_import_detection():
    source = (
        "from __future__ import annotations\n"
        "import os, scipy.linalg\n"
        "from numpy.linalg import eigh\n"
        "from . import _exact\n"
        "from .errors import ValidationError\n"
        "def f():\n"
        "    from sympy import Rational\n"
        "    import hypothesis.strategies as st\n"
    )
    assert foreign_imports(source) == ["2: scipy.linalg", "7: sympy", "8: hypothesis.strategies"]


def unseeded_random_calls(source: str) -> list[str]:
    """``line: call`` for each ``default_rng()`` without a seed and each
    call into numpy's legacy global generator, ``np.random.<fn>(...)``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "default_rng" and not node.args and not node.keywords:
            found.append((node.lineno, "default_rng()"))
        elif (
            isinstance(func, ast.Attribute)
            and name != "default_rng"
            and isinstance(func.value, ast.Attribute)
            and func.value.attr == "random"
            and getattr(func.value.value, "id", None) in {"np", "numpy"}
        ):
            found.append((node.lineno, f"{func.value.value.id}.random.{name}"))
    return [f"{line}: {call}" for line, call in sorted(found)]


@pytest.mark.parametrize("path", ALL_SOURCES, ids=[p.name for p in ALL_SOURCES])
def test_randomness_is_seeded(path):
    assert unseeded_random_calls(path.read_text()) == []


def test_unseeded_random_detection():
    source = (
        "import numpy as np\n"
        "from numpy.random import default_rng\n"
        "rng = np.random.default_rng(7)\n"
        "def f(rng: np.random.Generator, seed):\n"
        "    a = np.random.default_rng()\n"
        "    b = default_rng()\n"
        "    np.random.seed(0)\n"
        "    c = numpy.random.normal(size=3)\n"
        "    return default_rng(seed).random(), rng.standard_normal(4)\n"
    )
    assert unseeded_random_calls(source) == [
        "5: default_rng()",
        "6: default_rng()",
        "7: np.random.seed",
        "8: numpy.random.normal",
    ]


def _tracer_spans() -> list[tuple[str, str]]:
    """The (module, function) pairs bench/tracer.py wraps, read from its source."""
    tree = ast.parse((Path(__file__).resolve().parents[1] / "bench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "SPANS":
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no SPANS")


@pytest.mark.parametrize("module,name", _tracer_spans(), ids=lambda v: v)
def test_traced_functions_exist(module, name):
    # the benchmark worker imports toeplab.cli itself, which loads every module
    assert callable(getattr(importlib.import_module(f"toeplab.{module}"), name))


def test_traced_methods_exist():
    # besides SPANS, the tracer wraps these and reads the sampler's default batch size
    assert callable(toeplab.hardy_sphere.invariant_eigenvalue)
    assert callable(EquivariantSpectrum.eigenvalue_of)
    assert callable(InvariantSymbol.eval_array)
    assert "batch_size" in inspect.signature(toeplab.toric.theorem2_leading).parameters


# Public names only tests read, kept on purpose: the oracles of acceptance
# criteria 03, 09 and 10, and the order test_multiindex checks fibers against.
TEST_ONLY_NAMES = {"c0_simplex_quad", "annihilation_residual", "grlex_key"}


def unreferenced_public_names(defining: list[str], using: list[str]) -> list[str]:
    """Public top-level functions and classes of the ``defining`` sources that
    no top-level statement of ``defining`` or ``using`` reads, as a name or an
    attribute, apart from the statement that defines them."""
    defs = set()
    reads = []
    for i, source in enumerate(defining + using):
        for stmt in ast.parse(source).body:
            name = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
            if i < len(defining) and name and not name.startswith("_"):
                defs.add(name)
            got = {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            got |= {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}
            reads.append(got - {name})
    return sorted(d for d in defs if not any(d in got for got in reads))


def test_public_names_are_read_outside_tests():
    # __init__.py only re-exports, which is no use
    bench = sorted((Path(__file__).resolve().parents[1] / "bench").glob("*.py"))
    found = unreferenced_public_names([p.read_text() for p in SOURCES], [p.read_text() for p in bench])
    assert found == sorted(TEST_ONLY_NAMES)


def test_unreferenced_public_name_detection():
    defining = (
        "def used(): return helper()\n"
        "def helper(): return 1\n"
        "def recursive(n): return recursive(n - 1)\n"
        "class Orphan: pass\n"
        "def _private(): pass\n"
    )
    using = "import lib\nlib.used()\n"
    assert unreferenced_public_names([defining], [using]) == ["Orphan", "recursive"]


def unread_dataclass_fields(defining: list[str], using: list[str]) -> list[str]:
    """``Class.field`` for each field of a ``@dataclass`` class in ``defining``
    whose name no source of ``defining`` or ``using`` reads as an attribute.
    A method call such as ``d.values()`` is not a read of a field ``values``."""
    fields = []
    reads = set()
    for i, source in enumerate(defining + using):
        tree = ast.parse(source)
        called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        reads |= {node.attr for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and id(node) not in called}
        for cls in ast.walk(tree) if i < len(defining) else ():
            decorators = [d.func if isinstance(d, ast.Call) else d for d in getattr(cls, "decorator_list", [])]
            if isinstance(cls, ast.ClassDef) and "dataclass" in {getattr(d, "id", getattr(d, "attr", None)) for d in decorators}:
                fields += [(cls.name, stmt.target.id) for stmt in cls.body
                           if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    return sorted(f"{cls}.{name}" for cls, name in fields if name not in reads)


def test_dataclass_fields_are_read_outside_tests():
    bench = sorted((Path(__file__).resolve().parents[1] / "bench").glob("*.py"))
    assert unread_dataclass_fields([p.read_text() for p in SOURCES], [p.read_text() for p in bench]) == []


def test_unread_dataclass_field_detection():
    defining = (
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Record:\n"
        "    read: int\n"
        "    called: int\n"
        "    stored: int\n"
        "    counted = 0\n"
        "@dataclasses.dataclass\n"
        "class Nested:\n"
        "    kept: dict\n"
        "    values: tuple\n"
        "class Plain:\n"
        "    loose: int\n"
        "def build(r):\n"
        "    r.stored = r.called()\n"
        "    return Nested(kept={}, values=(r.read,))\n"
    )
    using = "def use(n):\n    return n.kept.values()\n"
    assert unread_dataclass_fields([defining], [using]) == ["Nested.values", "Record.called", "Record.stored"]
