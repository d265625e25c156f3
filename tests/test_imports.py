"""Each module of the package imports at module level only, uses every name
it imports, and only the entry points resolve a theory name."""
import ast
from pathlib import Path

import pytest

import wallcross

MODULES = sorted(Path(wallcross.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(set(imported) - used)


def test_unused_imports_are_found():
    source = "import json\nfrom math import gcd, lcm\nx = lcm(2, 3)\n"
    assert unused_imports(source) == ["gcd", "json"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def nested_imports(source: str) -> list[str]:
    """Names imported inside a function body."""
    tree = ast.parse(source)
    names = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    names += [a.asname or a.name for a in node.names]
    return sorted(names)


def test_nested_imports_are_found():
    source = "import json\ndef f():\n    import heapq\n    return json, heapq\n"
    assert nested_imports(source) == ["heapq"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_imports_inside_functions(path):
    assert nested_imports(path.read_text()) == []


# a theory name is resolved only at the entry points: the library takes
# `Theory` values, and the weak-table rules are the one place a catalog
# name picks physics
NAME_LOOKUPS = {"theory_by_name": {"cli", "spectrum"}, "spectrum_table": {"cli"}}


def name_lookups(source: str) -> list[str]:
    """The names of NAME_LOOKUPS that a module imports or reads as an
    attribute."""
    tree = ast.parse(source)
    names = [n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)]
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names += [a.name for a in node.names]
    return sorted(set(names) & NAME_LOOKUPS.keys())


def test_name_lookups_are_found():
    source = ("from .lattice import theory_by_name as t\n"
              "from . import spectrum\nx = spectrum.spectrum_table\n")
    assert name_lookups(source) == ["spectrum_table", "theory_by_name"]


def test_only_the_entry_points_resolve_theory_names():
    found = {(name, path.stem) for path in MODULES
             for name in name_lookups(path.read_text())}
    assert {(name, module) for name, module in found
            if module not in NAME_LOOKUPS[name]} == set()
