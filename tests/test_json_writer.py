"""The CLI's JSON writers.

Store writes compose each object's canonical bytes from its nested records'
texts, encoding a record that several objects share once per batch, and write
each object as soon as its bytes exist.  Printed JSON is written by
``jsonio.indented``, which must equal ``json.dumps(data, indent=1,
sort_keys=True)`` on every input.  Integer fields refuse JSON booleans and
floats.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import Z2, Z4, z4_extension_butterfly

from butterflies import jsonio
from butterflies.butterfly import span_of_butterfly, to_fractor
from butterflies.cli import Workspace, main, parse_group_spec
from butterflies.errors import UnknownKind
from butterflies.extension import FactorSet, conjugation_xmod, factor_set_to_extension
from butterflies.laws import generate_fixtures
from butterflies.weakmap import all_set_sections, extract_monoidal
from butterflies.xmod import denormalize, identity_morphism


def stdlib_indented(data) -> str:
    return json.dumps(data, indent=1, sort_keys=True)


def canonical(obj) -> tuple[str, bytes]:
    data = jsonio.to_jsonable(obj)
    return data["kind"], jsonio.canonical_bytes(data)


# ---------------------------------------------------------------------------
# the indented writer is json.dumps

keys = st.text() | st.sampled_from(["", "\n", "\x00\x1f", "é", " ", "\U0001f98b", '"\\', "a, b", "[1,2]"])
ints = st.integers() | st.integers(min_value=-(10**40), max_value=10**40)
floats = st.floats() | st.sampled_from([-0.0, float("inf"), float("-inf"), float("nan")])
int_lists = st.lists(ints) | st.lists(ints | st.booleans())
int_rows = st.lists(st.lists(ints, max_size=5), max_size=5)  # ragged, and some rows empty
int_tuple_rows = int_rows.map(lambda rows: tuple(map(tuple, rows)))
leaves = ints | st.booleans() | st.none() | floats | keys | int_lists | int_rows | int_tuple_rows
values = st.recursive(
    leaves,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(keys, inner, max_size=4)
        | st.dictionaries(st.integers(), inner, max_size=3)
    ),
    max_leaves=24,
)


@settings(max_examples=200, deadline=None)
@given(values)
def test_indented_is_json_dumps(data):
    assert jsonio.indented(data) == stdlib_indented(data)


@pytest.mark.parametrize(
    "data",
    [[], {}, (), [[]], [[], [1]], [[1], []], [[1, 2], [3]], ([-1, 2**70],), [True, 1], {"a": {1: 2}}, [{}], 0.5],
)
def test_indented_edge_cases(data):
    assert jsonio.indented(data) == stdlib_indented(data)


def test_store_chain_files_and_outputs_are_json_dumps(tmp_path, capsys):
    """The store round trip's chain on every crossed module of fixture set
    (0, 8): every object file is canonical JSON, and every output and every
    object file is printed as the stdlib encoder prints it."""
    ws = tmp_path / "ws"
    outputs = []

    def run(*argv) -> dict:
        assert main(["--workspace", str(ws), *map(str, argv)]) == 0
        outputs.append(capsys.readouterr().out)
        return json.loads(outputs[-1])

    for i, X in enumerate(generate_fixtures(0, 8).crossed_modules):
        xmod, morphism = tmp_path / f"x{i}.json", tmp_path / f"m{i}.json"
        xmod.write_text(json.dumps(jsonio.to_jsonable(X)))
        morphism.write_text(json.dumps(jsonio.to_jsonable(identity_morphism(X))))
        ref = run("--json", "identity", xmod)["ref"]
        run("--json", "compose", ref, ref, "--witness", "--check")
        run("--json", "flip", ref)
        run("--json", "span", ref)
        run("--json", "split", morphism)
        section = ",".join(map(str, range(X.G0.order)))
        extracted = run("--json", "weakmap", "extract", ref, "--section", section)["ref"]
        assembled = run("--json", "weakmap", "assemble", extracted)["ref"]
        run("--json", "validate", assembled)
        run("store", "get", assembled)
        run("--json", "store", "ls")
    assert len(outputs) == 110
    for out in outputs:
        assert out == stdlib_indented(json.loads(out)) + "\n"
    files = list((ws / "objects").iterdir())
    assert len(files) > 50
    for path in files:
        blob = path.read_bytes()
        data = json.loads(blob)
        assert (path.name, jsonio.canonical_bytes(data)) == (f"{jsonio.bytes_ref(blob)}.{data['kind']}.json", blob)
        assert jsonio.indented(data) == stdlib_indented(data)


# ---------------------------------------------------------------------------
# composed bytes are the canonical bytes


@pytest.fixture(scope="module")
def store_corpus() -> dict:
    """Every kind the store holds, over fixture set (0, 8)."""
    fx = generate_fixtures(0, 8)
    return {
        "group": [G for X in fx.crossed_modules for G in (X.G, X.G0)] + [B.E for B in fx.butterflies],
        "xmod": list(fx.crossed_modules),
        "2group": [denormalize(X) for X in fx.crossed_modules],
        "xmod-morphism": list(fx.morphisms),
        "butterfly": list(fx.butterflies),
        "fractor": [to_fractor(B) for B in fx.butterflies],
        "monoidal": [extract_monoidal(B, all_set_sections(B)[0]) for B in fx.butterflies],
    }


@pytest.mark.parametrize("kind", ["group", "xmod", "2group", "xmod-morphism", "butterfly", "fractor", "monoidal"])
def test_composed_bytes_are_canonical(store_corpus, kind):
    objs = store_corpus[kind]
    assert list(jsonio.encode_each(objs)) == [canonical(obj) for obj in objs]
    assert {k for k, _ in jsonio.encode_each(objs)} == {kind}


def test_composed_bytes_of_a_mixed_batch(store_corpus):
    # one batch, so one memo, across objects that share their groups and crossed modules
    objs = [obj for kind in store_corpus.values() for obj in kind]
    assert list(jsonio.encode_each(objs)) == [canonical(obj) for obj in objs]


def test_composed_bytes_of_a_bound_32_class():
    """The split class of V4 by V4xZ2: D(V4) -> A(V4xZ2), E of order 32."""
    H, G = parse_group_spec("V4"), parse_group_spec("V4xZ2")
    B = factor_set_to_extension(FactorSet(H, G, (0,) * 4, ((0,) * 4,) * 4))
    assert B.E.order == 32
    assert list(jsonio.encode_each([B])) == [canonical(B)]


@pytest.fixture()
def records(monkeypatch) -> list:
    """Each object whose fields the writers read, in order."""
    seen = []
    record = jsonio._record

    def counting(obj, nested):
        seen.append(obj)
        return record(obj, nested)

    monkeypatch.setattr(jsonio, "_record", counting)
    return seen


def test_shared_middle_is_encoded_once(tmp_path, records):
    middle, left, right = span_of_butterfly(z4_extension_butterfly())
    store = Workspace(tmp_path)
    refs = store.put_all([middle, left, right])
    assert [sum(obj is middle for obj in records), sum(obj is middle.G for obj in records)] == [1, 1]
    # the memo dies with its batch: a second put_all encodes the middle again
    records.clear()
    assert store.put_all([left]) == refs[1:2]
    assert sum(obj is middle for obj in records) == 1
    assert refs == [jsonio.bytes_ref(canonical(obj)[1]) for obj in (middle, left, right)]


def test_batch_failing_partway_keeps_its_written_files(tmp_path):
    store = Workspace(tmp_path)
    with pytest.raises(UnknownKind):
        store.put_all([Z4, object(), Z2])
    [path] = (tmp_path / "objects").iterdir()
    kind, blob = canonical(Z4)
    assert (path.name, path.read_bytes()) == (f"{jsonio.bytes_ref(blob)}.{kind}.json", blob)


# ---------------------------------------------------------------------------
# integer fields refuse JSON booleans and floats


def monoidal_json() -> dict:
    B = z4_extension_butterfly()
    return jsonio.to_jsonable(extract_monoidal(B, all_set_sections(B)[0]))


FIELDS = {
    "table": (lambda: jsonio.to_jsonable(Z2), ("table", 0, 0)),
    "nested-table": (lambda: jsonio.to_jsonable(conjugation_xmod(Z2)), ("G", "table", 1, 1)),
    "map": (lambda: jsonio.to_jsonable(conjugation_xmod(Z2)), ("boundary", 1)),
    "action": (lambda: jsonio.to_jsonable(conjugation_xmod(Z2)), ("action", 1, 0)),
    "F0": (monoidal_json, ("F0", 1)),
    "F1": (monoidal_json, ("F1", 0)),
    "F2": (monoidal_json, ("F2", 0, 0)),
    "derived": (lambda: jsonio.to_jsonable(to_fractor(z4_extension_butterfly())), ("derived", "sigma_bar", 1)),
}


@pytest.mark.parametrize("as_json", [bool, float])
@pytest.mark.parametrize("field", list(FIELDS))
def test_integer_field_refuses_bool_and_float_exit_2(tmp_path, capsys, field, as_json):
    build, path = FIELDS[field]
    data = build()
    *parents, last = path
    holder = data
    for key in parents:
        holder = holder[key]
    assert holder[last] in (0, 1)  # the same number, so only its JSON type is wrong
    holder[last] = as_json(holder[last])
    file = tmp_path / "object.json"
    file.write_text(json.dumps(data))
    assert main(["--workspace", str(tmp_path / "ws"), "validate", str(file)]) == 2
    assert "must be a list of integers" in capsys.readouterr().err


@pytest.mark.parametrize("order", [True, 1.0])
def test_declared_order_refuses_bool_and_float_exit_2(tmp_path, capsys, order):
    file = tmp_path / "group.json"
    file.write_text(json.dumps({"kind": "group", "name": "T", "order": order, "table": [[0]]}))
    assert main(["--workspace", str(tmp_path / "ws"), "validate", str(file)]) == 2
    assert capsys.readouterr().err == f"error: declared order {order!r} does not match the table\n"
