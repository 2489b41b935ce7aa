"""Every name a logjet module imports is used in that module, every name
the package exports is used by the package or the benchmark, the engine
does not import the chart-text layer, jets.py, the home of the map
arithmetic, imports no logjet module but errors, every module imports
only the standard library and logjet, importing logjet loads neither
dataclasses nor inspect, and every MAX_* bound is read at call time.

__init__.py is skipped: its imports are the package's re-exports.  An
import whose line carries "# noqa: F401" is kept on purpose: it must be a
hook that bench/tracing.py patches through the module, and the module must
not otherwise use it, so the marker cannot outlive its reason.
"""

import ast
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import logjet

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "logjet"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

sys.path.insert(0, str(ROOT / "bench"))

import tracing  # noqa: E402

# (module or class name, attribute) of every SPANS and COUNTS hook
HOOKS = {(owner.__name__, attr) for owner, attr, *_rest
         in tracing.SPANS + tracing.COUNTS}


def imports(source):
    """(line, name, marked, used) of each imported name: marked when its
    line carries "# noqa: F401", used when the module reads the name."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                found.append((alias.lineno, name,
                              "# noqa: F401" in lines[alias.lineno - 1],
                              name in used))
    return sorted(found)


def unused_imports(source):
    return [(line, name) for line, name, marked, used in imports(source)
            if not (marked or used)]


def stale_markers(module, source):
    """(line, name) of each "# noqa: F401" import that is not a tracing
    hook of module, or that module also uses."""
    return [(line, name) for line, name, marked, used in imports(source)
            if marked and (used or (module, name) not in HOOKS)]


def test_finds_an_unused_import():
    source = ("import os\nfrom json import dumps, loads\n"
              "from sys import argv  # noqa: F401\nprint(loads)\n")
    assert unused_imports(source) == [(1, "os"), (2, "dumps")]


def test_finds_a_stale_marker():
    source = ("from .jets import derivative_chain  # noqa: F401\n"
              "from .parse import render  # noqa: F401\n"
              "from .dimension import dimension_of  # noqa: F401\n"
              "print(dimension_of)\n")
    assert stale_markers("logjet.analyzer", source) == [
        (2, "render"), (3, "dimension_of")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_noqa_marks_only_an_unused_tracing_hook(path):
    assert stale_markers(f"logjet.{path.stem}",
                         path.read_text(encoding="utf-8")) == []


def referenced_names(source):
    """The names a module reads, as a bare name or as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_finds_a_referenced_name():
    source = ("import logjet\nfrom logjet import analyze\n"
              "def emit_report():\n    return logjet.load_chart, analyze\n")
    assert referenced_names(source) == {"logjet", "load_chart", "analyze"}


def test_every_export_is_used():
    """An export that neither the package nor bench/ uses is dead API."""
    users = MODULES + sorted((ROOT / "bench").glob("*.py"))
    used = set().union(*(referenced_names(p.read_text(encoding="utf-8"))
                         for p in users))
    assert sorted(set(logjet.__all__) - used) == []


# The engine works on the exponent maps the chart holds; only the chart,
# the analyzer's report summary and the CLI read or write chart text.
ENGINE = ("jets.py", "strata.py", "dimension.py")


def parse_imports(source):
    """(line, name) of each import of logjet.parse or of a name from it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if module in (".parse", "logjet.parse"):
                found.extend((node.lineno, a.name) for a in node.names)
            elif module in (".", "logjet"):
                found.extend((node.lineno, a.name) for a in node.names
                             if a.name == "parse")
        elif isinstance(node, ast.Import):
            found.extend((node.lineno, a.name) for a in node.names
                         if a.name == "logjet.parse")
    return found


def test_finds_a_parse_import():
    source = ("from .parse import render\nfrom . import parse, jets\n"
              "import logjet.parse\nfrom .jets import derivative_chain\n")
    assert parse_imports(source) == [
        (1, "render"), (2, "parse"), (3, "logjet.parse")]


@pytest.mark.parametrize("name", ENGINE)
def test_engine_imports_nothing_from_parse(name):
    assert parse_imports((PACKAGE / name).read_text(encoding="utf-8")) == []


def package_imports(source):
    """(line, module) of each import from the logjet package, relative or
    absolute; the module is named relative to the package ("logjet" for
    the package itself)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "logjet":
                continue
            if node.level:
                module = "logjet." + module if module else "logjet"
            if module == "logjet":
                found.extend((node.lineno, a.name) for a in node.names)
            else:
                found.append((node.lineno, module[len("logjet."):]))
        elif isinstance(node, ast.Import):
            found.extend((node.lineno, a.name.partition(".")[2] or a.name)
                         for a in node.names
                         if a.name.split(".")[0] == "logjet")
    return found


def test_finds_package_imports():
    source = ("from .errors import LogjetError\nfrom . import parse, jets\n"
              "import logjet.dimension\nfrom logjet.strata import stratify\n"
              "import os, logjet\nfrom operator import add\n")
    assert package_imports(source) == [
        (1, "errors"), (2, "parse"), (2, "jets"), (3, "dimension"),
        (4, "strata"), (5, "logjet")]


def test_jets_imports_only_errors():
    """jets.py holds the arithmetic of the map format, which parse, strata
    and dimension share, so it stays at the bottom of the import graph."""
    source = (PACKAGE / "jets.py").read_text(encoding="utf-8")
    assert {module for _line, module in package_imports(source)} == {
        "errors"}


# -- the cold start ------------------------------------------------------------
#
# Importing dataclasses loads inspect (and with it ast, dis and tokenize),
# and each @dataclass builds its methods from source text: together most
# of the import time of logjet, which every `logjet analyze` run pays
# before its first chart.  The records are NamedTuples instead (see the
# package docstring), and these checks keep both modules out.

SLOW_MODULES = {"dataclasses", "inspect"}

PROBE = """
import sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import logjet, logjet.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""


def slow_modules_loaded(src):
    """The SLOW_MODULES that importing logjet and logjet.cli from the
    directory src loads into a fresh isolated interpreter."""
    proc = subprocess.run([sys.executable, "-I", "-c", PROBE, str(src)],
                          capture_output=True, text=True, check=True)
    return SLOW_MODULES & set(proc.stdout.split())


def test_import_loads_neither_dataclasses_nor_inspect():
    assert slow_modules_loaded(PACKAGE.parent) == set()


def test_finds_a_dataclass_put_back(tmp_path):
    shutil.copytree(PACKAGE, tmp_path / "logjet",
                    ignore=shutil.ignore_patterns("__pycache__"))
    monoid = tmp_path / "logjet" / "monoid.py"
    source = monoid.read_text(encoding="utf-8")
    assert "class Face(NamedTuple):" in source
    monoid.write_text(source.replace(
        "class Face(NamedTuple):",
        "from dataclasses import dataclass\n\n\n"
        "@dataclass(frozen=True)\nclass Face:"), encoding="utf-8")
    assert slow_modules_loaded(tmp_path) == SLOW_MODULES


OWN_OR_STDLIB = sys.stdlib_module_names | {"logjet"}


def foreign_imports(source):
    """(line, module) of each import of a module that is neither in the
    standard library nor logjet itself."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found.extend((node.lineno, name) for name in names
                     if name.split(".")[0] not in OWN_OR_STDLIB)
    return found


def test_finds_a_foreign_import():
    source = ("import os, numpy\nfrom .jets import poly_add\n"
              "from sympy.core import Symbol\nimport logjet.parse\n"
              "from fractions import Fraction\n")
    assert foreign_imports(source) == [(1, "numpy"), (3, "sympy.core")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_imports_only_the_standard_library(path):
    """pyproject.toml declares no dependency, so none may be imported."""
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


# -- bounds read at call time --------------------------------------------------
#
# A trip test lowers a bound with monkeypatch.setattr(module, "MAX_...",
# small), which reaches only code that looks the name up when it runs.  A
# default-argument value, or a copy taken at module level, is bound at
# import and would keep the old figure, so the trip test would pass or
# fail for the wrong reason.

def bounds(tree):
    """The module-level MAX_* constants a module assigns."""
    return {target.id for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets if isinstance(target, ast.Name)
            and target.id.startswith("MAX_")}


def misread_bounds(source):
    """(line, name, why) of each module-level MAX_* constant that is not
    read at call time: read in a default-argument value, read outside any
    function body, or never read in one."""
    tree = ast.parse(source)
    names = bounds(tree)
    functions = [node for node in ast.walk(tree) if isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
    defaults = {id(node) for f in functions
                for value in f.args.defaults + f.args.kw_defaults
                if value is not None for node in ast.walk(value)}
    bodies = {id(node) for f in functions
              for part in (f.body if isinstance(f.body, list) else [f.body])
              for node in ast.walk(part)}
    found, read = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in names and isinstance(
                node.ctx, ast.Load):
            if id(node) in defaults:
                found.append((node.lineno, node.id, "default"))
            elif id(node) in bodies:
                read.add(node.id)
            else:
                found.append((node.lineno, node.id, "import time"))
    found.extend((0, name, "never read") for name in names - read)
    return sorted(found)


def test_finds_a_bound_read_too_early():
    source = ("MAX_A = 1\nMAX_B = 2\nMAX_C = 3\nMAX_D = 4\nLIMIT = MAX_C\n"
              "def f(x, cap=MAX_A):\n    return x <= MAX_B\n"
              "def g(x, *, cap=MAX_D):\n    return lambda y=MAX_B: y\n")
    assert misread_bounds(source) == [
        (0, "MAX_A", "never read"), (0, "MAX_C", "never read"),
        (0, "MAX_D", "never read"), (5, "MAX_C", "import time"),
        (6, "MAX_A", "default"), (8, "MAX_D", "default"),
        (9, "MAX_B", "default")]


def test_finds_every_bound():
    assert set().union(*(bounds(ast.parse(p.read_text(encoding="utf-8")))
                         for p in MODULES)) == {
        "MAX_PRODUCT_WORK", "MAX_GROEBNER_WORK", "MAX_FP_NODES",
        "MAX_MONOID_WORK", "MAX_NESTING"}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_bound_is_read_at_call_time(path):
    assert misread_bounds(path.read_text(encoding="utf-8")) == []
