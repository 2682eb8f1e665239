"""No handler of the library catches every exception.  A bare ``except:``, or
``except Exception`` / ``except BaseException`` alone or in a tuple, would
turn a defect into an answer; operands off the axioms are refused with the
package's own errors, and callers catch those by name."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
BROAD = {"Exception", "BaseException"}


def broad_handlers(tree: ast.AST) -> list[int]:
    """The line of each handler in `tree` that is bare or names a broad type."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        names = {t.id if isinstance(t, ast.Name) else getattr(t, "attr", None) for t in types}
        if node.type is None or not BROAD.isdisjoint(names):
            lines.append(node.lineno)
    return lines


def test_the_guard_finds_each_broad_form():
    forms = ["except:", "except Exception:", "except (KeyError, BaseException):", "except builtins.Exception:"]
    for form in forms:
        assert broad_handlers(ast.parse(f"try:\n    pass\n{form}\n    pass\n")) == [3], form
    assert broad_handlers(ast.parse("try:\n    pass\nexcept (KeyError, ValueError):\n    pass\n")) == []


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: p.name)
def test_no_broad_exception_handler(path):
    assert broad_handlers(ast.parse(path.read_text())) == [], f"broad handlers in {path.name}"
