"""Each module of the package imports at module level only, uses every name
it imports, loads no layer it does not need, and only the entry points
resolve a theory name."""
import ast
import os
import subprocess
import sys
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


ROOT = Path(__file__).resolve().parent.parent
PROGRAM = [p for d in ("src", "perfbench", "demos")
           for p in sorted((ROOT / d).rglob("*.py"))]
# checked public entry points that the program itself never calls
UNREFERENCED: set[str] = set()


def defined_functions(source: str, module: str) -> list[tuple[str, str]]:
    """(qualified name, name) of every function and method but dunders."""
    out = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                if not (isinstance(child, ast.ClassDef)
                        or child.name.startswith("__")):
                    out.append((f"{prefix}.{child.name}", child.name))
                walk(child, f"{prefix}.{child.name}")

    walk(ast.parse(source), module)
    return out


def referenced_names(source: str) -> set[str]:
    """Every name read, attribute taken or name imported, and every
    dotted identifier in a string constant other than a docstring,
    leaving out a function's references to itself from its own body.
    Strings count because the benchmark's tracer wraps functions by name
    ("Theory.z", "canon_oriented"), and a function it names must stay;
    a docstring is prose, and a function only prose mentions is unused."""
    found = set()
    tree = ast.parse(source)
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}

    def walk(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        names = []
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.alias):
            names = [node.name.split(".")[-1]]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            names = [part for part in node.value.split(".") if part.isidentifier()]
        found.update(n for n in names if n not in inside)
        for child in ast.iter_child_nodes(node):
            walk(child, inside)

    walk(tree, frozenset())
    return found


def test_unreferenced_functions_are_found():
    # m3 is named in a string, h only in the module's and C's docstrings
    source = ('"""x.h"""\n'
              "def f():\n    return f()\n\ndef g():\n    return 1\n\n"
              "def h():\n    pass\n\n"
              "class C:\n    'C.h'\n    def __init__(self):\n        self.m = g\n"
              "    def m2(self):\n        return 'C.m3'\n    def m3(self):\n"
              "        pass\n")
    defined = defined_functions(source, "x")
    used = referenced_names(source)
    assert [q for q, name in defined if name not in used] == [
        "x.f", "x.h", "x.C.m2"]


def test_every_function_is_referenced_by_the_program():
    used = set().union(*(referenced_names(p.read_text()) for p in PROGRAM))
    unreferenced = {qual for path in MODULES
                    for qual, name in defined_functions(path.read_text(), path.stem)
                    if name not in used}
    assert unreferenced == UNREFERENCED


# what importing a layer must leave unloaded: the js sum needs no symbols,
# decay, oracle, quadrature or CLI; the decay and its fit need neither
# numpy nor the oracles nor the CLI; the KS oracle needs only the lattice
# and the tables, and the quadrature oracle no other module of the
# package.  A process that runs only one of them compiles only its own,
# which counts where no bytecode is cached: compiling js.py and trees.py
# takes about 4.6 ms on a 2-vCPU x86 machine (the minimum of 30 compiles)
LAYERS = {"wallcross.js": {"wallcross.symbolic", "wallcross.decay",
                           "wallcross.ks", "wallcross.tba", "wallcross.cli"},
          "wallcross.decay": {"numpy", "wallcross.ks", "wallcross.tba",
                              "wallcross.cli"},
          "wallcross.ks": {"numpy", "wallcross.symbolic", "wallcross.js",
                           "wallcross.trees", "wallcross.gmn",
                           "wallcross.decay", "wallcross.tba",
                           "wallcross.cli"},
          "wallcross.tba": {f"wallcross.{p.stem}" for p in MODULES
                            if p.stem not in ("__init__", "tba")}}


def loaded_modules(module: str) -> set[str]:
    """The modules a fresh interpreter holds after importing `module`."""
    code = f"import sys, {module}; print(*sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return set(run.stdout.split())


def test_loaded_modules_are_found():
    assert {"wallcross.symbolic", "wallcross.js"} <= loaded_modules(
        "wallcross.decay")


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_layers_load_only_what_they_use(module):
    assert loaded_modules(module) & LAYERS[module] == set()
