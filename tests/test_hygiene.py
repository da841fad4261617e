"""Source hygiene checks that need no linter.

Every import is used and sits at module level, every absolute import is
the standard library or numpy, the one runtime dependency, and all
randomness comes from seeded generators, so reruns stay byte-identical.
Only the shared Monte Carlo loop, ``reduction._monte_carlo``, makes a
generator or walks batch pieces.
Only multiindex's checks read ``_is_int`` and turn a caller's value into a
Fraction, bar named internal uses, and only ``multiindex._check_bytes`` reads
the memory budget ``MAX_SECTOR_BYTES``.
Every function the benchmark's tracer (bench/tracer.py) wraps by name
still exists, so a deletion that would crash a traced pass fails here.
Every public function and class is read somewhere in src/ or bench/:
code that only tests call is deleted, bar a named allow-list.  The same
holds for every public method and property of a class.  Every dataclass
field is read there as an attribute, or the field is deleted.  Every public
argument or dataclass field named like an integer has a row in
test_multiindex's tables, which check that it refuses floats and bools,
and every one named like a real has a row in its real table, which checks
that it refuses NaN, infinities, bools and strings.
"""

import ast
import importlib
import inspect
import sys
from collections import Counter
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


MONTE_CARLO_LOOP = ("reduction.py", "_monte_carlo")
LOOP_CALLS = {"default_rng", "_pieces"}


def monte_carlo_leaks(source: str, owner: str | None = None) -> list[str]:
    """``line: name`` for each call of a LOOP_CALLS name outside the top-level function ``owner``."""
    found = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == owner:
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
                if name in LOOP_CALLS:
                    found.append((node.lineno, name))
    return [f"{line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", ALL_SOURCES, ids=[p.name for p in ALL_SOURCES])
def test_only_the_monte_carlo_loop_draws(path):
    owner = MONTE_CARLO_LOOP[1] if path.name == MONTE_CARLO_LOOP[0] else None
    assert monte_carlo_leaks(path.read_text(), owner) == []


def test_monte_carlo_leak_detection():
    source = (
        "import numpy as np\n"
        "from . import reduction\n"
        "def _monte_carlo(seed):\n"
        "    rng = np.random.default_rng(seed)\n"
        "    def batches():\n"
        "        for piece in _pieces(9):\n"
        "            yield piece\n"
        "def oracle(seed):\n"
        "    rng = default_rng(seed)\n"
        "    pieces = list(reduction._pieces(9))\n"
        "class Sampler:\n"
        "    def run(self, seed):\n"
        "        return np.random.default_rng(seed)\n"
    )
    assert monte_carlo_leaks(source, "_monte_carlo") == ["9: default_rng", "10: _pieces", "13: default_rng"]
    assert monte_carlo_leaks(source)[:2] == ["4: default_rng", "6: _pieces"]


def _owned_nodes(source: str):
    """(owner, node) for every node of a module: owner names the top-level function,
    ``Class.method`` or class whose statement holds the node, or is '' at module level."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.ClassDef):
            tops = [(f"{stmt.name}.{n.name}" if isinstance(n, defs) else stmt.name, n) for n in stmt.body]
        else:
            tops = [(stmt.name if isinstance(stmt, defs) else "", stmt)]
        for owner, top in tops:
            yield from ((owner, n) for n in ast.walk(top))


# Readers of _is_int outside multiindex: one reduction check reads it only to
# order its own (a cell bound needs n before the dimension check that names it).
IS_INT_READERS = {"reduction.py": {"c0_simplex_quad"}}


def is_int_reads(source: str, allowed=frozenset()) -> list[str]:
    """``line: owner`` for each read of ``_is_int``, as a name or an attribute, outside the owners allowed."""
    found = []
    for owner, node in _owned_nodes(source):
        name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
        if name == "_is_int" and isinstance(node.ctx, ast.Load) and owner not in allowed:
            found.append((node.lineno, owner))
    return [f"{line}: {owner}" for line, owner in sorted(found)]


@pytest.mark.parametrize("path", [p for p in ALL_SOURCES if p.name != "multiindex.py"],
                         ids=lambda p: p.name)
def test_only_multiindex_reads_is_int(path):
    assert is_int_reads(path.read_text(), IS_INT_READERS.get(path.name, set())) == []


def test_is_int_read_detection():
    source = (
        "from .multiindex import _is_int\n"
        "from . import multiindex\n"
        "def _check_run(samples):\n"
        "    return _is_int(samples)\n"
        "def count(v):\n"
        "    return all(map(_is_int, v)) or multiindex._is_int(v)\n"
        "class Spec:\n"
        "    ok = _is_int(3)\n"
        "    def check(self, v):\n"
        "        return _is_int(v)\n"
        "_is_int = None\n"
    )
    assert is_int_reads(source, {"_check_run"}) == ["6: count", "6: count", "8: Spec", "10: Spec.check"]
    assert is_int_reads(source)[0] == "4: _check_run"


def max_sector_bytes_reads(source: str, allowed=frozenset()) -> list[str]:
    """``line: owner`` for each read of ``MAX_SECTOR_BYTES``, as a name or an attribute, outside the owners allowed."""
    found = []
    for owner, node in _owned_nodes(source):
        name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
        if name == "MAX_SECTOR_BYTES" and isinstance(node.ctx, ast.Load) and owner not in allowed:
            found.append((node.lineno, owner))
    return [f"{line}: {owner}" for line, owner in sorted(found)]


@pytest.mark.parametrize("path", ALL_SOURCES, ids=lambda p: p.name)
def test_only_check_bytes_reads_the_memory_budget(path):
    allowed = {"_check_bytes"} if path.name == "multiindex.py" else set()
    assert max_sector_bytes_reads(path.read_text(), allowed) == []


def test_max_sector_bytes_read_detection():
    source = (
        "from .multiindex import MAX_SECTOR_BYTES\n"
        "from . import multiindex\n"
        "MAX_SECTOR_BYTES = 2 * 1024**3\n"
        "def _check_bytes(nbytes):\n"
        "    return nbytes > MAX_SECTOR_BYTES\n"
        "def assemble_block(dim):\n"
        "    return 16 * dim > multiindex.MAX_SECTOR_BYTES or min(dim, MAX_SECTOR_BYTES)\n"
        "class Run:\n"
        "    cap = MAX_SECTOR_BYTES // 8\n"
        "    def held(self, n):\n"
        "        return 8 * n <= MAX_SECTOR_BYTES\n"
    )
    assert max_sector_bytes_reads(source, {"_check_bytes"}) == ["7: assemble_block", "7: assemble_block", "9: Run",
                                                                 "11: Run.held"]
    assert max_sector_bytes_reads(source)[0] == "5: _check_bytes"


# The one owner allowed a one-argument Fraction call: every exact rational a caller
# passes is converted by multiindex._check_rational, and _exact makes Fractions only
# of two ints.
FRACTION_CONVERSIONS = {"multiindex.py": {"_check_rational"}}


def fraction_conversions(source: str, allowed=frozenset()) -> list[str]:
    """``line: owner`` for each call of Fraction with one argument that is not a
    literal constant, such as Fraction(c), outside the owners allowed."""
    found = []
    for owner, node in _owned_nodes(source):
        if not isinstance(node, ast.Call) or owner in allowed or len(node.args) != 1 or node.keywords:
            continue
        if (node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)) != "Fraction":
            continue
        try:
            ast.literal_eval(node.args[0])
        except ValueError:  # not a literal
            found.append((node.lineno, owner))
    return [f"{line}: {owner}" for line, owner in sorted(found)]


@pytest.mark.parametrize("path", ALL_SOURCES, ids=lambda p: p.name)
def test_only_check_rational_makes_fractions_of_caller_values(path):
    assert fraction_conversions(path.read_text(), FRACTION_CONVERSIONS.get(path.name, set())) == []


def test_fraction_conversion_detection():
    source = (
        "import fractions\n"
        "from fractions import Fraction\n"
        "ZERO = Fraction(0)\n"
        "def fiber_volume(counts):\n"
        "    return [Fraction(c) for c in counts]\n"
        "def point(pt, k):\n"
        "    return [Fraction(c) for c in pt] + [Fraction(1, k), Fraction(-1), Fraction('1/3')]\n"
        "class Symbol:\n"
        "    half = fractions.Fraction(1, 2)\n"
        "    def coefficient(self, c):\n"
        "        return fractions.Fraction(c.real)\n"
    )
    assert fraction_conversions(source, {"fiber_volume"}) == ["7: point", "11: Symbol.coefficient"]
    assert fraction_conversions(source)[0] == "5: fiber_volume"


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



# Public members only tests read, kept on purpose: the acceptance tests call them.
TEST_ONLY_MEMBERS = {
    "AsymptoticFit.c0",
    "Reconstruction.max_error",
    "InvariantSymbol.coordinate",
    "InvariantSymbol.to_symbol_poly",
    "ToeplitzBlock.exact_diagonal",
}


def _loaded_attributes(node) -> list[str]:
    return [n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)]


def unread_public_members(defining: list[str], using: list[str]) -> list[str]:
    """``Class.member`` for each public method of a class in ``defining``, and
    each name a class body assigns (a ``cached_property``, say), that no
    source of ``defining`` or ``using`` reads as an attribute outside the
    member's own body.  A read matches by name, whatever the object."""
    members, reads = [], Counter()
    for i, source in enumerate(defining + using):
        tree = ast.parse(source)
        for cls in ast.walk(tree) if i < len(defining) else ():
            for stmt in cls.body if isinstance(cls, ast.ClassDef) else ():
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    members.append((cls.name, stmt.name, stmt))
                elif isinstance(stmt, ast.Assign):
                    members += [(cls.name, t.id, stmt) for t in stmt.targets if isinstance(t, ast.Name)]
        reads.update(_loaded_attributes(tree))
    return sorted(f"{cls}.{name}" for cls, name, stmt in members
                  if not name.startswith("_") and reads[name] == _loaded_attributes(stmt).count(name))


def test_public_members_are_read_outside_tests():
    bench = sorted((Path(__file__).resolve().parents[1] / "bench").glob("*.py"))
    found = unread_public_members([p.read_text() for p in SOURCES], [p.read_text() for p in bench])
    assert found == sorted(TEST_ONLY_MEMBERS)


def test_unread_public_member_detection():
    defining = (
        "from functools import cached_property\n"
        "class Block:\n"
        "    size: int\n"
        "    cached = cached_property(lambda self: 1)\n"
        "    _hidden = 2\n"
        "    def used(self): return self.helper()\n"
        "    def helper(self): return 1\n"
        "    def recursive(self, n): return self.recursive(n - 1)\n"
        "    @property\n"
        "    def shown(self): return 3\n"
        "    @property\n"
        "    def orphan(self): return 4\n"
        "    def _private(self): pass\n"
        "    def __len__(self): return 0\n"
        "def free(): pass\n"
    )
    using = "def use(b):\n    return b.used(), b.shown\n"
    assert unread_public_members([defining], [using]) == ["Block.cached", "Block.orphan", "Block.recursive"]


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


INTEGER_NAMES = {"n", "d", "k", "m", "i", "level", "order", "k_max", "mesh", "seed", "samples", "batch_size",
                 "denominator", "k_dim", "hermite_points", "fourier_points"}

# Integer-named arguments with no row in the tables: fields of the records that
# only their builders make, from arguments those builders check (assemble_block,
# equivariant_spectrum, spectral_distinguishability).
UNTABLED_INTEGER_ARGUMENTS = {"ToeplitzBlock.n", "ToeplitzBlock.k", "EquivariantSpectrum.k", "DistinguishReport.k_max"}


def integer_arguments(source: str) -> list[str]:
    return named_arguments(source, INTEGER_NAMES)


def named_arguments(source: str, names: set[str]) -> list[str]:
    """``function.argument``, ``Class.method.argument`` and ``Class.field`` for
    each parameter of a public function or method, and each field of a public
    ``@dataclass``, whose name is in ``names``; nested functions are not read."""
    found = []

    def visit(body, owner):
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and not stmt.name.startswith("_"):
                args = stmt.args.posonlyargs + stmt.args.args + stmt.args.kwonlyargs
                found.extend(f"{owner}{stmt.name}.{a.arg}" for a in args if a.arg in names)
            elif isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_"):
                decorators = [d.func if isinstance(d, ast.Call) else d for d in stmt.decorator_list]
                if "dataclass" in {getattr(d, "id", getattr(d, "attr", None)) for d in decorators}:
                    found.extend(f"{stmt.name}.{t.target.id}" for t in stmt.body
                                 if isinstance(t, ast.AnnAssign) and getattr(t.target, "id", None) in names)
                visit(stmt.body, f"{stmt.name}.")

    visit(ast.parse(source).body, "")
    return sorted(found)


def _table_keys(tables=("INTEGER_ARGUMENTS", "MULTI_INDEX_ARGUMENTS")) -> set[str]:
    """The keys of test_multiindex's tables, by default INTEGER_ARGUMENTS and MULTI_INDEX_ARGUMENTS, read from its source."""
    keys = set()
    for node in ast.parse((Path(__file__).parent / "test_multiindex.py").read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in tables:
            keys |= {k.value for k in node.value.keys}
    return keys


def test_every_integer_argument_has_a_table_row():
    found = {name for p in SOURCES for name in integer_arguments(p.read_text())}
    assert UNTABLED_INTEGER_ARGUMENTS <= found
    assert sorted(found - _table_keys() - UNTABLED_INTEGER_ARGUMENTS) == []


def test_integer_argument_detection():
    source = (
        "from dataclasses import dataclass\n"
        "def count(n, k=1, /, x=0, *, seed=0, label=''):\n"
        "    def inner(order): pass\n"
        "def _hidden(n): pass\n"
        "@dataclass(frozen=True)\n"
        "class Spec:\n"
        "    mesh: int\n"
        "    name: str\n"
        "    def scaled(self, order, x): pass\n"
        "    def _private(self, k): pass\n"
        "class Plain:\n"
        "    level: int\n"
        "    def at(self, level): pass\n"
        "class _Hidden:\n"
        "    def at(self, level): pass\n"
    )
    assert integer_arguments(source) == [
        "Plain.at.level", "Spec.mesh", "Spec.scaled.order", "count.k", "count.n", "count.seed"]


REAL_NAMES = {"coeffs", "tol", "volume", "re", "im", "xs", "ys", "step"}

# Real-named arguments with no row in test_multiindex's REAL_ARGUMENTS: a field of
# the record only its checked builder makes (spectral_distinguishability) and the
# exact Fractions of _exact's Newton table.
UNTABLED_REAL_ARGUMENTS = {"DistinguishReport.tol", "divided_differences.xs", "divided_differences.ys"}


def test_every_real_argument_has_a_table_row():
    found = {name for p in SOURCES for name in named_arguments(p.read_text(), REAL_NAMES)}
    assert UNTABLED_REAL_ARGUMENTS <= found
    assert sorted(found - _table_keys(("REAL_ARGUMENTS",)) - UNTABLED_REAL_ARGUMENTS) == []


def test_real_argument_detection():
    source = (
        "from dataclasses import dataclass\n"
        "def slope(xs, ys, /, n=2, *, tol=0.0):\n"
        "    def inner(step): pass\n"
        "def _hidden(volume): pass\n"
        "@dataclass\n"
        "class Record:\n"
        "    coeffs: tuple\n"
        "    label: str\n"
        "    def scaled(self, volume, k): pass\n"
        "class _Hidden:\n"
        "    def at(self, re, im): pass\n"
    )
    assert named_arguments(source, REAL_NAMES) == [
        "Record.coeffs", "Record.scaled.volume", "slope.tol", "slope.xs", "slope.ys"]
