"""Fuzz the CLI boundary: a mutated object file never escapes as an exception.

Each case takes valid JSON of one kind, applies one mutation somewhere in its
tree (a wrong type, an out-of-range or negative index, a truncated list, two
swapped entries, a dropped field, a wrong ``kind``) and passes the file to
every subcommand that accepts that kind, in-process through ``cli.main``.
Whatever the mutation, each command must return a documented exit code:
0, 1 (domain failure) or 2 (usage or parse error).
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import Z2, Z3, Z4, z4_extension_butterfly

from butterflies import cli, jsonio
from butterflies.butterfly import to_fractor
from butterflies.extension import conjugation_xmod
from butterflies.weakmap import all_set_sections, extract_monoidal, identity_monoidal
from butterflies.xmod import denormalize, identity_morphism

_B = z4_extension_butterfly()
VALID = [
    ("group", Z4),
    ("xmod", conjugation_xmod(Z3)),
    ("2group", denormalize(conjugation_xmod(Z2))),
    ("butterfly", _B),
    ("xmod-morphism", identity_morphism(conjugation_xmod(Z2))),
    ("monoidal", extract_monoidal(_B, all_set_sections(_B)[1])),
    ("monoidal", identity_monoidal(denormalize(conjugation_xmod(Z2)))),
    ("fractor", to_fractor(_B)),
]

# every subcommand taking an object file, with FILE standing for the file
COMMANDS = {
    "group": [("validate", "FILE"), ("classify", "FILE", "Z2", "--oracle")],
    "xmod": [("validate", "FILE"), ("identity", "FILE")],
    "2group": [("validate", "FILE")],
    "butterfly": [
        ("validate", "FILE"),
        ("compose", "FILE", "FILE", "--check", "--witness"),
        ("flip", "FILE"),
        ("span", "FILE"),
        ("weakmap", "extract", "FILE", "--section", "0,1"),
    ],
    "xmod-morphism": [("validate", "FILE"), ("split", "FILE")],
    "monoidal": [("validate", "FILE"), ("weakmap", "assemble", "FILE")],
    "fractor": [("validate", "FILE")],
}

WRONG_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 40),
    st.just(10**20),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
    st.just([]),
    st.just({}),
    st.lists(st.integers(-1, 5), max_size=3),
)


def _positions(node, path=()):
    """Every position in a JSON tree, as the path of keys and indices to it."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _positions(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _positions(value, path + (i,))


def _at(data, path):
    for key in path:
        data = data[key]
    return data


FITS = {
    "offset": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "swap": lambda v: isinstance(v, list) and len(v) > 1,
    "truncate": lambda v: isinstance(v, list) and len(v) > 0,
    "drop": lambda v: isinstance(v, dict) and len(v) > 0,
    "replace": lambda v: True,
}


@st.composite
def mutated(draw):
    kind, obj = draw(st.sampled_from(VALID))
    data = jsonio.to_jsonable(obj)
    how = draw(st.sampled_from(["offset", "replace", "swap", "truncate", "drop", "kind"]))
    # a top-level field first, then a position inside it that the mutation
    # fits, so that short fields such as F1 are hit as often as group tables
    field = draw(st.sampled_from(sorted(data)))
    paths = [p for p in _positions(data[field], (field,)) if how != "kind" and FITS[how](_at(data, p))]
    if not paths:
        data["kind"] = draw(st.sampled_from(sorted(COMMANDS) + ["extension", "nonsense"]))
        return kind, data
    path = draw(st.sampled_from(paths))
    parent, key, target = _at(data, path[:-1]), path[-1], _at(data, path)
    if how == "offset":
        parent[key] = target + draw(st.sampled_from([-1, 1, 2, 100]))
    elif how == "swap":
        i, j = draw(st.integers(0, len(target) - 1)), draw(st.integers(0, len(target) - 1))
        target[i], target[j] = target[j], target[i]
    elif how == "truncate":
        del target[draw(st.integers(0, len(target) - 1)) :]
    elif how == "drop":
        del target[draw(st.sampled_from(sorted(target)))]
    else:
        parent[key] = draw(WRONG_VALUES)
    return kind, data


@settings(max_examples=500, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated())
def test_mutated_objects_exit_with_a_documented_code(case):
    kind, data = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "object.json"
        path.write_text(json.dumps(data))
        for command in COMMANDS[kind]:
            argv = ["--workspace", str(Path(tmp) / "store"), *(str(path) if a == "FILE" else a for a in command)]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            assert code in (0, 1, 2), (command, code)
