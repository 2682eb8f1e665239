"""Every module-level name of the library has a reader.

A private name must be read by some module of the library.  A public name
must be read by the library, by the benchmark or by the acceptance test, or
be named in ``PUBLIC_ALLOWLIST`` with the claim it serves and the test that
reads it.  A helper that a fold leaves behind, a constant nothing reads, or
a function that only its own unit tests call is dead code.  The benchmark
reads some names only as the ``"layer.name"`` string keys of
``benchmarks/layers.py`` (``per_name_calls["extension.twist_factor_set"]``),
and those keys count as reads.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "butterflies"
TESTS = ROOT / "tests"

# the public names that no module of the library, no benchmark and no
# acceptance test reads: each with the claim it serves and the test that
# reads it, where it is a second route to that claim
PUBLIC_ALLOWLIST = {
    "whisker_left": ("horizontal composition of 2-cells in B(C)", "test_butterfly.py"),
    "whisker_right": ("horizontal composition of 2-cells in B(C)", "test_butterfly.py"),
    "extension_equivalences": (
        "butterfly morphisms D(H) -> A(G) are extension equivalences, found without the generator search",
        "test_extension.py",
    ),
    "butterfly_from_extension": (
        "an extension's butterfly, its Aut-leg by conjugation, is the one factor_set_to_extension reads off (phi, f)",
        "test_classify_columns.py",
    ),
    "factor_set_of_extension": (
        "along a section, an extracted weak map's F2 is the Schreier factor set",
        "test_extension.py",
    ),
    "validate_two_cell": ("2-cells are internal natural transformations", "test_two_cell_reference.py"),
    "identity_two_cell": ("the identity 2-cell goes to the identity butterfly morphism", "test_butterfly.py"),
    "identity_monoidal": ("the identity weak map assembles to an identity butterfly", "test_weakmap.py"),
    "subgroup_generated": (
        "the span closure `_close` and the subgroup oracle of the construction references",
        "test_law_suite_reference.py",
    ),
}


def definitions(tree: ast.Module) -> dict[str, int]:
    """The functions, classes and constants that `tree` defines at module
    level, dunders left out, with their lines."""
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
            if not name.startswith("__"):
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


def layer_keys(tree: ast.Module, layers: set[str]) -> set[str]:
    """The names that the ``"layer.name"`` string constants of `tree` read,
    for a layer in `layers`: ``"fingroup.FinGroup.checked"`` reads FinGroup."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            layer, _, rest = node.value.partition(".")
            if layer in layers and rest:
                out.add(rest.partition(".")[0])
    return out


def traced_lookups(tree: ast.Module) -> set[str]:
    """The traced names that `tree` looks up: the string subscripts of
    ``per_name_calls`` and the string arguments of ``inclusive``."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name) and node.value.id == "per_name_calls":
            keys = [node.slice]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "inclusive":
            keys = node.args
        else:
            continue
        out.update(k.value for k in keys if isinstance(k, ast.Constant) and isinstance(k.value, str))
    return out


def unread(trees: dict[str, ast.Module], read: set[str], public: bool) -> dict[str, str]:
    """The public (or private) names that `trees` define and `read` lacks,
    each with its place ``module:line: name``."""
    return {
        name: f"{module}:{line}: {name}"
        for module, tree in trees.items()
        for name, line in definitions(tree).items()
        if name.startswith("_") != public and name not in read
    }


def dead_private_names(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(text) for name, text in sources.items()}
    return list(unread(trees, set().union(*map(read_names, trees.values())), public=False).values())


def dead_public_names(library: dict[str, str], readers: list[str], keyed: str) -> dict[str, str]:
    """The public names of `library` (module -> source) that no AST read of
    `library` or `readers` and no ``"layer.name"`` key of `keyed` reads."""
    trees = {name: ast.parse(text) for name, text in library.items()}
    other = [ast.parse(text) for text in readers]
    read = set().union(*map(read_names, [*trees.values(), *other]), layer_keys(ast.parse(keyed), set(trees)))
    return unread(trees, read, public=True)


def library_sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def test_detects_a_dead_private_name():
    sources = {
        "a": "_LIMIT = 3\n_seen: set = set()\ndef _helper():\n    return _LIMIT\ndef _dead():\n    pass\n",
        "b": "from .a import _helper\nclass _Gone:\n    pass\nprint(_helper(), _seen)\n",
    }
    assert dead_private_names(sources) == ["a:5: _dead", "b:2: _Gone"]


def test_no_dead_private_name():
    assert dead_private_names(library_sources()) == []


def test_detects_a_dead_public_name():
    library = {
        "a": "LIMIT = 3\ndef helper():\n    return LIMIT\ndef dead():\n    pass\ndef timed():\n    pass\n",
        "b": "from .a import helper\nclass Gone:\n    pass\ndef bench_only():\n    pass\n",
    }
    readers = ["from a import helper\nimport b\nb.bench_only()\n"]
    keyed = 'calls = {}\nprint(calls["a.timed"], calls["b"], calls["c.Gone"], "a.dead_s")\n'
    assert dead_public_names(library, readers, keyed) == {
        "dead": "a:4: dead",
        "Gone": "b:2: Gone",
    }


def test_no_dead_public_name():
    """Each public name of the library has a reader outside the unit tests,
    or the allowlist names it; and the allowlist names no other."""
    readers = [path.read_text() for path in sorted((ROOT / "benchmarks").glob("*.py"))]
    readers.append((TESTS / "test_acceptance.py").read_text())
    keyed = (ROOT / "benchmarks" / "layers.py").read_text()
    dead = dead_public_names(library_sources(), readers, keyed)
    assert [place for name, place in dead.items() if name not in PUBLIC_ALLOWLIST] == []
    assert sorted(PUBLIC_ALLOWLIST) == sorted(dead)


def test_allowlisted_names_are_read_by_their_tests():
    for name, (_, test) in PUBLIC_ALLOWLIST.items():
        assert name in read_names(ast.parse((TESTS / test).read_text())), (name, test)


def test_traced_lookups_name_library_definitions():
    """Each traced function ``layer.name`` that the tracer looks up is defined
    in its layer: a lookup of a deleted function would read 0 on every traced
    run instead of failing.  Deeper names (``cli.store.put``) are the hooks
    the tracer installs on methods by hand."""
    lookups = traced_lookups(ast.parse((ROOT / "benchmarks" / "layers.py").read_text()))
    defined = {layer: definitions(ast.parse(text)) for layer, text in library_sources().items()}
    functions = [key.split(".") for key in sorted(lookups) if key.count(".") == 1]
    assert ["extension", "twist_factor_set"] in functions  # the AST pattern still finds the lookups
    assert [f"{layer}.{name}" for layer, name in functions if name not in defined.get(layer, ())] == []
