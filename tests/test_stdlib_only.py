"""The runtime stays pure standard library.

Every absolute import in every module of the package, including imports
inside functions, must name a module of the standard library; relative
imports stay inside the package.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "butterflies"
MODULES = sorted(PACKAGE.rglob("*.py"))


def absolute_imports(source: str) -> list[str]:
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_package_has_modules():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_stdlib(path):
    roots = {name.split(".")[0] for name in absolute_imports(path.read_text())}
    assert roots - sys.stdlib_module_names == set()


def test_checker_sees_imports_inside_functions():
    source = "from . import x\ndef f():\n    import numpy.linalg\n    from hypothesis import given\n"
    assert absolute_imports(source) == ["numpy.linalg", "hypothesis"]
