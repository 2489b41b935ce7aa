"""Every name a logjet module imports is used in that module, and every
name the package exports is used by the package or the benchmark.

__init__.py is skipped: its imports are the package's re-exports.  An
import whose line carries "# noqa: F401" is kept on purpose (a hook that a
caller patches through the module) and is skipped too.
"""

import ast
from pathlib import Path

import pytest

import logjet

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "logjet"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_finds_an_unused_import():
    source = ("import os\nfrom json import dumps, loads\n"
              "from sys import argv  # noqa: F401\nprint(loads)\n")
    assert unused_imports(source) == [(1, "os"), (2, "dumps")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


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
