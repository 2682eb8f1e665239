"""Every private module-level name of the library is read by some module of it.

A helper that a fold leaves behind, or a constant nothing reads, is dead code
that the tests of its callers no longer see.  Tests do not count as readers.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "butterflies"


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """The private (one leading underscore, not dunder) functions, classes and
    constants that `tree` defines at module level, with their lines."""
    found: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                found[name] = node.lineno
    return found


def read_names(tree: ast.Module) -> set[str]:
    """The names `tree` reads: loaded names, attributes and imported names."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def dead_private_names(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = set().union(*(read_names(t) for t in trees.values()))
    return [
        f"{module}:{line}: {name}"
        for module, tree in trees.items()
        for name, line in private_definitions(tree).items()
        if name not in read
    ]


def test_detects_a_dead_private_name():
    sources = {
        "a": "_LIMIT = 3\n_seen: set = set()\ndef _helper():\n    return _LIMIT\ndef _dead():\n    pass\n",
        "b": "from .a import _helper\nclass _Gone:\n    pass\nprint(_helper(), _seen)\n",
    }
    assert dead_private_names(sources) == ["a:5: _dead", "b:2: _Gone"]


def test_no_dead_private_name():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert dead_private_names(sources) == []
