"""Every exception class that errors.py defines is raised somewhere else in
the package, so none is left orphaned when the code raising it goes.

A class counts as raised when some other module has `raise X(...)`;
LogjetError is exempt as the base of the hierarchy.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "logjet"
ERRORS = PACKAGE / "errors.py"


def defined_classes(source):
    return [node.name for node in ast.parse(source).body
            if isinstance(node, ast.ClassDef)]


def raised_names(source):
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
            func = node.exc.func
            if isinstance(func, ast.Name):
                names.add(func.id)
            elif isinstance(func, ast.Attribute):
                names.add(func.attr)
    return names


def test_finds_raised_names():
    source = ("raise A('x')\nraise errors.B(1)\nraise C\n"
              "try:\n    pass\nexcept D:\n    raise\n")
    assert raised_names(source) == {"A", "B"}


ERROR_CLASSES = [name for name in
                 defined_classes(ERRORS.read_text(encoding="utf-8"))
                 if name != "LogjetError"]
RAISED = set().union(*(raised_names(path.read_text(encoding="utf-8"))
                       for path in PACKAGE.glob("*.py") if path != ERRORS))


@pytest.mark.parametrize("name", ERROR_CLASSES)
def test_error_class_is_raised(name):
    assert name in RAISED
